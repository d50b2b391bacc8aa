"""Dense revised simplex for  min c'x  subject to  Ax = b, x >= 0.

Returns equality duals alongside the primal solution; downstream code uses
the duals as subgradient carriers, so optimal bases are resolved to dual
feasibility (reduced costs >= -1e-9 (1 + max |c|)) before returning.  A
dual-simplex path re-optimizes a cached basis after a right-hand-side
change, which is the hot path when one second-stage program is solved along
a sequence of nearby first-stage points: the reduced costs do not depend on
b, so the cached basis stays dual feasible and usually reaches the new
optimum in a handful of pivots without a phase-1 restart.

The basis inverse is kept explicitly and updated in product form across
pivots (bases here are small dense matrices); conditioning is screened with
the 1-norm estimate ||B||_1 ||B^-1||_1 against a 1e12 limit.

Pricing is Dantzig's rule with a permanent switch to Bland's rule after a
pivot budget, which guarantees termination under degeneracy.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalBreakdown

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_COND_LIMIT = 1e12
_TOL = 1e-9  # pricing, pivot and ratio-tie tolerance, relative to the data's scale


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    obj: float
    pi: np.ndarray | None
    basis: np.ndarray | None
    iterations: int


def solve_lp(c, A, b, basis=None):
    """Solve min c'x s.t. Ax = b, x >= 0.

    ``basis`` is an optional warm-start basis (column indices from a previous
    solve of the same matrix, typically with a different b).  If it cannot be
    reused the solver silently falls back to a cold two-phase start.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if c.size != n or b.size != m:
        raise ValueError(f"inconsistent LP dimensions: A is {m}x{n}, c has {c.size}, b has {b.size}")
    max_iter = 100 * (m + n + 10)

    if basis is not None:
        result = _warm_solve(c, A, b, np.asarray(basis, dtype=int), max_iter)
        if result is not None:
            return result
    return _cold_solve(c, A, b, max_iter)


def solve_lp_bounded(c, A, b, lb, basis=None):
    """(LpResult, v) for min c'v s.t. Av = b, v >= lb, with lb entries possibly -inf.

    Finite bounds are shifted to zero and each free variable is split into a
    positive and a negative column, placed next to each other; ``basis`` and
    the result refer to the split program.  v is None unless it is optimal.
    """
    finite = np.isfinite(lb)
    col = np.repeat(np.arange(A.shape[1]), np.where(finite, 1, 2))
    sign = np.ones(col.size)
    sign[1:][col[1:] == col[:-1]] = -1.0
    shift = np.where(finite, lb, 0.0)
    res = solve_lp(c[col] * sign, A[:, col] * sign, b - A @ shift, basis=basis)
    if res.status != OPTIMAL:
        return res, None
    v = shift.copy()
    np.add.at(v, col, sign * res.x)
    return res, v


def _invert(B):
    try:
        B_inv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("singular basis matrix")
    if not np.all(np.isfinite(B_inv)):
        raise NumericalBreakdown("non-finite basis inverse")
    return B_inv


def _check_condition(B, B_inv):
    est = float(np.abs(B).sum(axis=0).max() * np.abs(B_inv).sum(axis=0).max())
    if not np.isfinite(est) or est > _COND_LIMIT:
        raise NumericalBreakdown(f"basis condition estimate {est:.3e} exceeds {_COND_LIMIT:.0e}")


class _Basis:
    """Basis bookkeeping: indices plus an explicit, product-form-updated inverse."""

    __slots__ = ("A", "basis", "B_inv")

    def __init__(self, A, basis):
        self.A = A
        self.basis = basis.copy()
        self.B_inv = _invert(A[:, self.basis])

    def refactor(self):
        self.B_inv = _invert(self.A[:, self.basis])

    def pivot(self, j, r):
        """Replace basic position r by column j, updating the inverse in place."""
        u = self.B_inv @ self.A[:, j]
        piv = u[r]
        self.basis[r] = j
        if abs(piv) < 1e-11 * (1.0 + float(np.abs(u).max())):
            self.refactor()
            return
        row = self.B_inv[r] / piv
        self.B_inv -= np.outer(u, row)
        self.B_inv[r] = row

    def solution(self, b):
        return self.B_inv @ b

    def duals(self, c):
        return c[self.basis] @ self.B_inv


def _primal_loop(c, A, b, bs, max_iter):
    """Primal simplex from a primal-feasible basis. Returns (status, iters)."""
    m, n = A.shape
    in_basis = np.zeros(n, dtype=bool)
    in_basis[bs.basis] = True
    bland_after = max(100, 10 * (m + n))
    tol_c = _TOL * (1.0 + float(np.abs(c).max(initial=0.0)))
    for it in range(max_iter):
        if it and it % 50 == 0:
            bs.refactor()
        xB = bs.solution(b)
        pi = bs.duals(c)
        if not np.all(np.isfinite(xB)):
            raise NumericalBreakdown("non-finite basis solve")
        red = c - A.T @ pi
        red[bs.basis] = 0.0
        if it >= bland_after:
            cand = np.flatnonzero((red < -tol_c) & ~in_basis)
            if cand.size == 0:
                _check_condition(A[:, bs.basis], bs.B_inv)
                return OPTIMAL, it
            j = int(cand[0])
        else:
            masked = np.where(in_basis, np.inf, red)
            j = int(np.argmin(masked))
            if red[j] >= -tol_c:
                _check_condition(A[:, bs.basis], bs.B_inv)
                return OPTIMAL, it
        u = bs.B_inv @ A[:, j]
        piv_tol = _TOL * (1.0 + float(np.abs(u).max(initial=0.0)))
        pos = u > piv_tol
        if not pos.any():
            return UNBOUNDED, it
        ratios = np.full(m, np.inf)
        ratios[pos] = np.maximum(xB[pos], 0.0) / u[pos]
        theta = ratios.min()
        ties = np.flatnonzero(ratios <= theta + _TOL * (1.0 + abs(theta)))
        if it >= bland_after:
            r = int(ties[np.argmin(bs.basis[ties])])
        else:
            r = int(ties[np.argmax(u[ties])])
        in_basis[bs.basis[r]] = False
        in_basis[j] = True
        bs.pivot(j, r)
    raise NumericalBreakdown("primal simplex pivot limit reached")


def _dual_loop(c, A, b, bs, max_iter):
    """Dual simplex from a dual-feasible basis. Returns (status, iters) or None."""
    m, n = A.shape
    in_basis = np.zeros(n, dtype=bool)
    in_basis[bs.basis] = True
    tol_x = _TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
    for it in range(max_iter):
        if it and it % 50 == 0:
            bs.refactor()
        xB = bs.solution(b)
        if not np.all(np.isfinite(xB)):
            raise NumericalBreakdown("non-finite basis solve")
        if xB.min(initial=0.0) >= -tol_x:
            _check_condition(A[:, bs.basis], bs.B_inv)
            return OPTIMAL, it
        r = int(np.argmin(xB))
        w = bs.B_inv[r] @ A
        pi = bs.duals(c)
        red = c - A.T @ pi
        red[bs.basis] = 0.0
        piv_tol = _TOL * (1.0 + float(np.abs(w).max(initial=0.0)))
        cand = np.flatnonzero(~in_basis & (w < -piv_tol))
        if cand.size == 0:
            return INFEASIBLE, it
        ratios = red[cand] / (-w[cand])
        theta = ratios.min()
        ties = cand[ratios <= theta + _TOL * (1.0 + abs(theta))]
        j = int(ties.min())
        in_basis[bs.basis[r]] = False
        in_basis[j] = True
        bs.pivot(j, r)
    return None  # budget exhausted; caller falls back to a cold start


def _warm_solve(c, A, b, basis, max_iter):
    m, n = A.shape
    if basis.size != m or basis.min(initial=0) < 0 or basis.max(initial=-1) >= n:
        return None
    if len(set(basis.tolist())) != m:
        return None
    try:
        bs = _Basis(A, basis)
    except NumericalBreakdown:
        return None
    xB = bs.solution(b)
    pi = bs.duals(c)
    if not (np.all(np.isfinite(xB)) and np.all(np.isfinite(pi))):
        return None
    red = c - A.T @ pi
    red[basis] = 0.0
    tol_c = _TOL * (1.0 + float(np.abs(c).max(initial=0.0)))
    tol_x = _TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
    if red.min(initial=0.0) < -tol_c:
        return None  # not dual feasible, e.g. a basis for another cost: start cold
    iters = 0
    if xB.min(initial=0.0) < -tol_x:
        try:
            out = _dual_loop(c, A, b, bs, max_iter)
        except NumericalBreakdown:
            return None
        if out is None:
            return None
        status, iters = out
        if status == INFEASIBLE:
            return LpResult(INFEASIBLE, None, np.inf, None, bs.basis.copy(), iters)
        xB, pi = bs.solution(b), bs.duals(c)
    x = np.zeros(n)
    x[bs.basis] = xB
    return LpResult(OPTIMAL, x, float(c @ x), pi, bs.basis.copy(), iters)


def _cold_solve(c, A, b, max_iter):
    m, n = A.shape
    # Phase 1: flip rows to make b >= 0, start from the all-artificial basis.
    flip = np.where(b < 0.0, -1.0, 1.0)
    A1 = np.hstack([A * flip[:, None], np.eye(m)])
    b1 = b * flip
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    bs = _Basis(A1, np.arange(n, n + m))
    status, it1 = _primal_loop(c1, A1, b1, bs, max_iter)
    if status != OPTIMAL:
        raise NumericalBreakdown("phase-1 simplex did not terminate cleanly")
    xB = bs.solution(b1)
    feas_tol = 1e-7 * (1.0 + float(np.abs(b).max(initial=0.0)))
    if float(np.sum(xB[bs.basis >= n])) > feas_tol:
        return LpResult(INFEASIBLE, None, np.inf, None, None, it1)

    # Drive artificials out of the basis; a row where no real column can
    # pivot in is linearly dependent and is dropped.
    keep_rows = np.ones(m, dtype=bool)
    for pos in range(m):
        if bs.basis[pos] < n:
            continue
        row = bs.B_inv[pos] @ A1[:, :n]
        row[bs.basis[bs.basis < n]] = 0.0
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > 1e-8:
            bs.pivot(j, pos)
        else:
            keep_rows[pos] = False
    basis = bs.basis[keep_rows]
    if np.any(basis >= n):
        raise NumericalBreakdown("artificial variable stuck in basis")

    A_red = A1[keep_rows, :n]
    b1 = b1[keep_rows]
    bs = _Basis(A_red, basis)
    status, it2 = _primal_loop(c, A_red, b1, bs, max_iter)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, -np.inf, None, bs.basis.copy(), it1 + it2)
    xB = bs.solution(b1)
    pi_red = bs.duals(c)
    x = np.zeros(n)
    x[bs.basis] = xB
    pi = np.zeros(m)
    pi[keep_rows] = pi_red
    pi *= flip
    return LpResult(OPTIMAL, x, float(c @ x), pi, bs.basis.copy(), it1 + it2)
