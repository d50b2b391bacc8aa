"""Closed-form dual of the quadratic second stage, a cross-check of the oracle.

The quadratic recourse program admits a closed-form dual in the multipliers
s of the bound constraints,

    h = max_{s >= 0}  -1/2 s'Hs + e's + const,
    M = D P^{-1/2},   H = P^{-1/2} (I - M'(MM')^{-1} M) P^{-1/2},
    e = Hd - P^{-1/2} M' (MM')^{-1} r,          r = xi - Cx,
    const = 1/2 r'(MM')^{-1} r + d'P^{-1/2}M'(MM')^{-1} r - 1/2 d'Hd.

H contains an orthogonal projector and is singular in general, so the
recipe "project the unconstrained stationary point onto s >= 0" is only
trusted when the projected point actually satisfies the dual KKT conditions
(see ``closed_form_multiplier``).
"""

import numpy as np

from scsopt.exceptions import ScsoptError


class RankDeficientD(ScsoptError):
    """The second-stage equality matrix is not full row rank where that is required."""


def _p_inv_sqrt(P):
    lam, V = np.linalg.eigh(P)
    if lam.min() <= 0.0:
        raise ValueError("P must be positive definite")
    return V @ np.diag(1.0 / np.sqrt(lam)) @ V.T


def closed_form_terms(problem, scenario, x):
    """(H, e, const) of the bound-multiplier dual at (x, scenario)."""
    if not problem.quadratic_recourse:
        raise ValueError("closed form applies to quadratic second stages only")
    D, d = problem.D, problem.d
    m2, n2 = D.shape
    Pis = _p_inv_sqrt(problem.P)
    M = D @ Pis
    MMt = M @ M.T
    if np.linalg.matrix_rank(MMt, tol=1e-10 * max(1.0, float(np.abs(MMt).max()))) < m2:
        raise RankDeficientD("D must have full row rank for the closed-form dual")
    MMt_inv = np.linalg.inv(MMt)
    H = Pis @ (np.eye(n2) - M.T @ MMt_inv @ M) @ Pis
    r = scenario.xi - scenario.C @ np.asarray(x, dtype=float)
    e = H @ d - Pis @ M.T @ MMt_inv @ r
    const = float(0.5 * r @ MMt_inv @ r + d @ Pis @ M.T @ MMt_inv @ r - 0.5 * d @ H @ d)
    return H, e, const


def closed_form_dual_value(problem, scenario, x, s):
    """Dual objective -1/2 s'Hs + e's + const at multiplier s.

    Strong duality makes this equal h(x, scenario) at the optimal bound
    multipliers of the primal solve, which is the always-available
    cross-check between the two paths.
    """
    H, e, const = closed_form_terms(problem, scenario, x)
    s = np.asarray(s, dtype=float)
    return float(-0.5 * s @ H @ s + e @ s + const)


def closed_form_multiplier(problem, scenario, x):
    """(s_star, well_posed): project the unconstrained stationary point onto s >= 0.

    s_star = max(H^+ e, 0).  ``well_posed`` is True exactly when s_star
    satisfies the KKT conditions of  max_{s>=0} -1/2 s'Hs + e's  (gradient
    nonpositive everywhere, zero on the support), i.e. when projecting the
    stationary point really does solve the constrained dual; only then is
    the closed-form value guaranteed to equal h.
    """
    H, e, _ = closed_form_terms(problem, scenario, x)
    s_bar = np.linalg.pinv(H, rcond=1e-12) @ e
    s_star = np.maximum(s_bar, 0.0)
    grad = e - H @ s_star
    scale = 1.0 + float(np.abs(e).max(initial=0.0))
    tol = 1e-8 * scale
    well_posed = bool(np.all(grad <= tol) and np.all(np.abs(grad[s_star > tol]) <= tol))
    return s_star, well_posed
