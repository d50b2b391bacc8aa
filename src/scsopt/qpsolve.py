"""Primal active-set solver for  min 1/2 x'Hx + g'x  s.t.  Ax = b, x >= lb.

H must be symmetric positive semidefinite.  Lower bounds may be -inf
componentwise.  Equality duals ``pi`` and bound multipliers ``mu`` are
returned satisfying the stationarity convention

    H x + g - A' pi - mu = 0,     mu >= 0,   mu_i (x_i - lb_i) = 0.

Semidefinite reduced Hessians are handled explicitly: when the equality-
constrained subproblem is unbounded the solver walks the descent ray to the
nearest bound, so purely linear blocks (an LP embedded in a QP) are solved
correctly rather than rejected.  The iteration starts from the caller's
point when it is feasible within the simplex's tolerance, else from a
vertex that a phase-1 simplex run on the shifted/split variables finds.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, simplex
from .exceptions import NumericalBreakdown

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class QpResult:
    status: str
    x: np.ndarray | None
    obj: float
    pi: np.ndarray | None
    mu: np.ndarray | None
    working_set: np.ndarray | None
    iterations: int
    phase1_basis: np.ndarray | None = None  # reusable warm start for feasibility LPs


def solve_qp(H, g, A, b, lb, phase1_basis=None, start=None):
    """QpResult for min 1/2 x'Hx + g'x s.t. Ax = b, x >= lb, A 2-D; lb entries may be -inf.

    ``start`` is an optional starting point.  It replaces phase 1 only where
    |Ax - b| and lb - x stay within the simplex's feasibility tolerance
    (``simplex._TOL`` relative to the data's scale); else phase 1 runs.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float).reshape(-1)
    n = g.size
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m = A.shape[0]
    lb = np.asarray(lb, dtype=float).reshape(-1)

    scale = 1.0 + float(np.abs(b).max(initial=0.0)) + float(np.abs(lb[np.isfinite(lb)]).max(initial=0.0))

    x = None if start is None else np.array(start, dtype=float).reshape(-1)
    feas_tol = simplex._TOL * scale
    if x is None or np.abs(A @ x - b).max(initial=0.0) > feas_tol or np.any(x < lb - feas_tol):
        # A vertex of {Ax = b, x >= lb}.  Its basis warm-starts the next solve
        # for the same A and lb: any feasible basis is optimal for the zero
        # objective, so a cached one usually costs zero pivots.
        phase1, x = simplex.solve_lp_bounded(np.zeros(n), A, b, lb, basis=phase1_basis)
        if x is None:
            return QpResult(INFEASIBLE, None, np.inf, None, None, None, 0)
        phase1_basis = phase1.basis

    bounded = np.isfinite(lb)
    act_tol = 1e-9 * scale
    working = bounded & (x - lb <= act_tol)
    x = np.where(working, lb, x)

    for it in range(100 * (n + m + 10)):
        free = ~working
        idx_f = np.flatnonzero(free)
        grad = H @ x + g
        face = linalg._factor(A[:, idx_f])
        N = face.Z
        p = np.zeros(n)
        ray = False
        if N.shape[1] > 0:
            Hr = N.T @ H[np.ix_(idx_f, idx_f)] @ N
            gr = N.T @ grad[idx_f]
            Hr = 0.5 * (Hr + Hr.T)
            lam, V = np.linalg.eigh(Hr)
            lam_max = lam.max(initial=0.0)
            sing_tol = 1e-10 * max(lam_max, 1.0)
            pos = lam > sing_tol
            g_null = V[:, ~pos].T @ gr
            g_scale = 1.0 + float(np.abs(gr).max(initial=0.0))
            if np.abs(g_null).max(initial=0.0) > 1e-9 * g_scale:
                # Subproblem unbounded: descend along the null component.
                q = -V[:, ~pos] @ g_null
                q /= np.linalg.norm(q)
                ray = True
            else:
                q = -V[:, pos] @ ((V[:, pos].T @ gr) / lam[pos]) if pos.any() else np.zeros(gr.size)
            p[idx_f] = N @ q

        step_scale = 1.0 + float(np.abs(x).max(initial=0.0))
        if not ray and np.abs(p).max(initial=0.0) <= 1e-11 * step_scale:
            # Stationary on the working set: check multipliers.
            pi, mu = _multipliers(A, grad, working, face)
            mu_min = mu[working].min(initial=0.0) if working.any() else 0.0
            if mu_min >= -1e-8 * (1.0 + float(np.abs(grad).max(initial=0.0))):
                return _finish(H, g, A, b, lb, x, working, it, phase1_basis)
            drop = np.flatnonzero(working)[int(np.argmin(mu[working]))]
            working[drop] = False
            continue

        # Ratio test against inactive finite bounds.
        blocking = -1
        alpha_max = np.inf
        dec = free & bounded & (p < -1e-13 * (1.0 + np.abs(p).max(initial=0.0)))
        for i in np.flatnonzero(dec):
            a_i = (x[i] - lb[i]) / (-p[i])
            if a_i < alpha_max - 1e-14:
                alpha_max = a_i
                blocking = i
        if ray:
            if not np.isfinite(alpha_max):
                return QpResult(UNBOUNDED, None, -np.inf, None, None, None, it, phase1_basis)
            alpha = alpha_max
        else:
            alpha = min(1.0, alpha_max)
        x = x + alpha * p
        if blocking >= 0 and alpha >= alpha_max - 1e-14:
            working[blocking] = True
            x[blocking] = lb[blocking]
    raise NumericalBreakdown("active-set QP iteration limit reached")


def _multipliers(A, grad, working, face):
    """(pi, mu): the least-norm pi with A_F' pi = grad_F from the face of A_F, and grad - A' pi on W."""
    pi = face.pinv.T @ grad[~working]
    return pi, np.where(working, grad - A.T @ pi, 0.0)


def kkt_holds(A, b, lb, x, free, grad, stat, mu):
    """KKT tolerances: residual ``stat`` ~ 0, x[free] >= lb[free], Ax = b, multipliers mu >= 0.

    ``stat`` and ``mu`` may hold zeros for the entries they do not cover or
    leave them out: an empty one passes, as each reduction starts from 0.
    """
    scale = 1.0 + np.abs(grad).max(initial=0.0)
    return bool(
        np.abs(stat).max(initial=0.0) <= 1e-9 * scale
        and (x[free] >= lb[free] - 1e-9 * (1.0 + np.abs(x).max(initial=0.0))).all()
        and (A.shape[0] == 0 or np.abs(A @ x - b).max(initial=0.0) <= 1e-8 * (1.0 + np.abs(b).max(initial=0.0)))
        and mu.min(initial=0.0) >= -1e-8 * scale
    )


def _finish(H, g, A, b, lb, x, working, iters, phase1_basis):
    """Re-solve the KKT system on the final working set for tight residuals."""
    n = x.size
    m = A.shape[0]
    idx_f = np.flatnonzero(~working)
    idx_w = np.flatnonzero(working)
    x_out = x.copy()
    x_out[idx_w] = lb[idx_w]
    nf = idx_f.size
    K = np.zeros((nf + m, nf + m))
    K[:nf, :nf] = H[np.ix_(idx_f, idx_f)]
    K[:nf, nf:] = -A[:, idx_f].T
    K[nf:, :nf] = A[:, idx_f]
    rhs = np.concatenate([
        -(g[idx_f] + H[np.ix_(idx_f, idx_w)] @ x_out[idx_w]),
        b - A[:, idx_w] @ x_out[idx_w],
    ])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    x_try = x_out.copy()
    x_try[idx_f] = sol[:nf]
    pi = sol[nf:]
    grad = H @ x_try + g
    mu = grad - A.T @ pi
    mu = np.where(working, mu, 0.0)
    stat = grad - A.T @ pi - mu
    if not kkt_holds(A, b, lb, x_try, idx_f, grad, stat, mu):
        # Keep the iterate the loop certified instead of a failed polish.
        x_try = x_out
        pi, mu = _multipliers(A, H @ x_try + g, working, linalg._factor(A[:, idx_f]))
    mu = np.maximum(mu, 0.0)
    obj = float(0.5 * x_try @ H @ x_try + g @ x_try)
    return QpResult(OPTIMAL, x_try, obj, pi, mu, working.copy(), iters, phase1_basis)
