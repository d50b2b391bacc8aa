"""Reference copies of code paths that were rewritten for speed alone.

Each function here is the code as it was before the rewrite, kept so that
the tests can require the rewrite to give the same bytes: the projection's
face loop (every try rebuilding F, A_F and b - A_W lb_W, and checking
full-length multipliers), ``qpsolve.kkt_holds`` with its float and np.all
wrappers, ``model.draw_scenarios`` with its per-draw support checks and
np.repeat placement, and the oracle's cell table as it was before its fields
grew in place (``RestackingTable``).
"""

import numpy as np

from scsopt import linalg, model, qpsolve
from scsopt.base import as_lower_bounds, as_matrix, as_vector
from scsopt.exceptions import InfeasibleRegion
from scsopt.model import Discrete, ScenarioSet, Uniform


def kkt_holds(A, b, lb, x, free, grad, stat, mu):
    scale = 1.0 + float(np.abs(grad).max(initial=0.0))
    return bool(
        float(np.abs(stat).max(initial=0.0)) <= 1e-9 * scale
        and np.all(x[free] >= lb[free] - 1e-9 * (1.0 + np.abs(x).max(initial=0.0)))
        and (A.shape[0] == 0 or float(np.abs(A @ x - b).max(initial=0.0)) <= 1e-8 * (1.0 + np.abs(b).max(initial=0.0)))
        and mu.min(initial=0.0) >= -1e-8 * scale
    )


def project_polyhedral(A, b, lower_bounds, x, released=None):
    """The projection; ``released``, a list, gets one entry per try that dropped a pin."""
    A = as_matrix(A, "A")
    b = as_vector(b, A.shape[0], "b")
    x = as_vector(x, A.shape[1], "x")
    lb = as_lower_bounds(lower_bounds, x.size)
    if lb is None:
        lb = np.full(x.size, -np.inf)
    W = np.zeros(x.size, dtype=bool)
    for _ in range(x.size + 1):
        F = ~W
        AF = A[:, F]
        face = linalg._face(AF)
        if face.cond > 1e7:
            break
        step = face.pinv @ (AF @ x[F] - (b - A[:, W] @ lb[W]))
        lam = face.pinv.T @ step
        z = np.where(W, lb, x)
        z[F] = x[F] - step
        mu = z - x + A.T @ lam
        if kkt_holds(A, b, lb, z, F, z - x, np.where(F, mu, 0.0), np.where(W, mu, 0.0)):
            return z
        moved = W & (mu >= 0.0)
        if released is not None and (W & ~moved).any():
            released.append(int(W.sum()))
        gap = np.where(F, z - lb, np.inf)
        worst = int(np.argmin(gap))
        if gap[worst] < 0.0:
            moved[worst] = True
        if np.array_equal(moved, W):
            break
        W = moved
    res = qpsolve.solve_qp(np.eye(x.size), -x, A, b, lb=lb)
    if res.status != qpsolve.OPTIMAL:
        raise InfeasibleRegion("projection target region {Az=b, z>=lb} is empty")
    return res.x


def draw_scenarios(problem, rng, n):
    if n < 1:
        raise ValueError("n must be >= 1")
    entries = problem.stochastic_map
    atoms = None
    if all(isinstance(e.dist, (Discrete, Uniform)) for e in entries):
        values = rng.random((n, len(entries)))
        if all(isinstance(e.dist, Discrete) for e in entries):
            size = 1
            for e in entries:
                size *= len(e.dist.values)
            if size <= model._MAX_SCENARIOS:
                atoms = np.zeros(n, dtype=np.int64)
        for j, entry in enumerate(entries):
            if atoms is None:
                values[:, j] = entry.dist.quantile(values[:, j])
            else:
                idx = entry.dist.index(values[:, j])
                values[:, j] = entry.dist._values[idx]
                atoms = atoms * len(entry.dist.values) + idx
    else:
        values = np.array([[e.dist.draw(rng) for e in entries] for _ in range(n)])
    xi = np.repeat(problem.xi[None, :], n, axis=0)
    C = np.repeat(problem.C[None, :, :], n, axis=0)
    for j, entry in enumerate(entries):
        if entry.kind == "rhs":
            xi[:, entry.row] = values[:, j]
        else:
            C[:, entry.row, entry.col] = values[:, j]
    return ScenarioSet(xi, C, np.full(n, 1.0 / n), atoms)


class RestackingTable:
    """The oracle's cell table before its fields grew in place.

    Each pooled cell, a tuple of arrays, is kept in a list, and every pool
    re-stacks each field cell-major with ``np.stack``; a screen reduces its
    checks down the middle (map row) axis of cells x map rows x columns.
    """

    def __init__(self):
        self.cells, self.stack = [], ()

    def pool(self, cell):
        if cell is not None:
            self.cells.append(cell)
            self.stack = [np.stack(field) for field in zip(*self.cells)]

    def screen(self, problem, R, start):
        G, *fields = (field[start:] for field in self.stack) if start else self.stack
        Z = (G.reshape(-1, G.shape[2]) @ R).reshape(G.shape[0], G.shape[1], R.shape[1])
        if problem.quadratic_recourse:
            a, work = fields
            Z += a[:, :, None]
            y, pi = Z[:, :work.shape[1]], Z[:, work.shape[1]:]
            grad = problem.P @ y + problem.d[:, None]
            mu = np.where(work[:, :, None], grad - problem.D.T @ pi, 0.0)
            ok = ((y.min(axis=1) >= -1e-9 * (1.0 + np.abs(y).max(axis=1)))
                  & (mu.min(axis=1) >= -1e-8 * (1.0 + np.abs(grad).max(axis=1))))
        else:
            ok = Z.min(axis=1) >= -1e-9 * (1.0 + np.abs(R).max(axis=0))
        self.ok = ok  # cells x columns: which cells solve which columns
        hit = ok.any(axis=0)
        cols = hit.nonzero()[0]
        k = ok.argmax(axis=0)[cols]
        if problem.quadratic_recourse:
            h = 0.5 * np.einsum("ij,ij->i", y[k, :, cols], grad[k, :, cols] + problem.d)
            return hit, h, pi[k, :, cols]
        pi, d_B = fields
        return hit, np.einsum("ij,ij->i", Z[k, :, cols], d_B[k]), pi[k]
