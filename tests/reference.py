"""Reference copies of code paths that were rewritten for speed or brevity alone.

Each function here is the code as it was before the rewrite, kept so that
the tests can require the rewrite to give the same bytes: the projection's
face loop (every try rebuilding F, A_F and b - A_W lb_W, and checking
full-length multipliers), ``qpsolve.kkt_holds`` with its float and np.all
wrappers, ``model.draw_scenarios`` with its per-draw support checks and
np.repeat placement, the oracle's cell table as it was before its fields
grew in place (``RestackingTable``), and ``smps.assemble`` with a
conversion written out for each stage.
"""

import warnings

import numpy as np

from scsopt import linalg, model, qpsolve
from scsopt.base import as_lower_bounds, as_matrix, as_vector
from scsopt.exceptions import InfeasibleRegion, UnknownName, UnsupportedStructure
from scsopt.model import Discrete, RandomEntry, ScenarioSampler, ScenarioSet, TwoStageProblem, Uniform


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


def assemble(core, split, marginals, seed=0):
    """SMPS assembly with a conversion written out for each stage.

    Unlike ``smps.assemble`` it gives a second-stage column with lo = up = 0
    a bound-row slack too; ``marginals`` is ``smps.parse_stoch``'s list.
    """
    s1_cols, s2_cols = split.stage1_cols, split.stage2_cols
    r1_rows, r2_rows = split.stage1_rows, split.stage2_rows
    s1_idx = {c: i for i, c in enumerate(s1_cols)}
    s2_idx = {c: i for i, c in enumerate(s2_cols)}
    r2_idx = {r: i for i, r in enumerate(r2_rows)}

    for (row, col) in core.entries:
        if row in r1_rows and col in s2_idx:
            raise UnsupportedStructure(
                f"first-stage row {row!r} references second-stage column {col!r}")

    # Upper/fixed variable bounds become extra equality rows (with slacks for UP).
    extra1 = []  # (col name, bound value, needs_slack)
    extra2 = []
    lower1 = np.zeros(len(s1_cols))
    for j, col in enumerate(s1_cols):
        lo, up = core.bounds.get(col, (0.0, np.inf))
        lower1[j] = lo
        if np.isfinite(up):
            extra1.append((col, up, lo != up))
    for col in s2_cols:
        lo, up = core.bounds.get(col, (0.0, np.inf))
        if lo != 0.0:
            raise UnsupportedStructure(
                f"second-stage column {col!r} has a nonzero lower bound")
        if np.isfinite(up):
            extra2.append((col, up, True))

    ineq1 = [r for r in r1_rows if core.row_sense[r] != "E"]
    ineq2 = [r for r in r2_rows if core.row_sense[r] != "E"]
    n_slack1 = len(ineq1) + sum(1 for _, _, s in extra1 if s)
    n_slack2 = len(ineq2) + sum(1 for _, _, s in extra2 if s)
    n1 = len(s1_cols) + n_slack1
    n2 = len(s2_cols) + n_slack2
    m1 = len(r1_rows) + len(extra1)
    m2 = len(r2_rows) + len(extra2)

    A = np.zeros((m1, n1))
    b = np.zeros(m1)
    D = np.zeros((m2, n2))
    C = np.zeros((m2, n1))
    xi = np.zeros(m2)
    c_vec = np.zeros(n1)
    d_vec = np.zeros(n2)
    Q = np.zeros((n1, n1))

    for j, col in enumerate(s1_cols):
        c_vec[j] = core.entries.get((core.obj_row, col), 0.0)
    for j, col in enumerate(s2_cols):
        d_vec[j] = core.entries.get((core.obj_row, col), 0.0)
    for (c1, c2), val in core.quad.items():
        if c1 not in s1_idx or c2 not in s1_idx:
            raise UnsupportedStructure("QUADOBJ terms must involve first-stage columns only")
        i, j = s1_idx[c1], s1_idx[c2]
        Q[i, j] = val
        Q[j, i] = val

    slack = len(s1_cols)
    for i, row in enumerate(r1_rows):
        for j, col in enumerate(s1_cols):
            v = core.entries.get((row, col))
            if v is not None:
                A[i, j] = v
        b[i] = core.rhs.get(row, 0.0)
        sense = core.row_sense[row]
        if sense != "E":
            A[i, slack] = 1.0 if sense == "L" else -1.0
            slack += 1
    for kdx, (col, up, needs_slack) in enumerate(extra1):
        i = len(r1_rows) + kdx
        A[i, s1_idx[col]] = 1.0
        b[i] = up
        if needs_slack:
            A[i, slack] = 1.0
            slack += 1

    slack = len(s2_cols)
    for i, row in enumerate(r2_rows):
        for j, col in enumerate(s2_cols):
            v = core.entries.get((row, col))
            if v is not None:
                D[i, j] = v
        for j, col in enumerate(s1_cols):
            v = core.entries.get((row, col))
            if v is not None:
                C[i, j] = v
        xi[i] = core.rhs.get(row, 0.0)
        sense = core.row_sense[row]
        if sense != "E":
            D[i, slack] = 1.0 if sense == "L" else -1.0
            slack += 1
    for kdx, (col, up, _slacked) in enumerate(extra2):
        i = len(r2_rows) + kdx
        D[i, s2_idx[col]] = 1.0
        xi[i] = up
        D[i, slack] = 1.0
        slack += 1

    lower = np.concatenate([lower1, np.zeros(n_slack1)])

    entries = []
    for col, row, dist in marginals:
        if row == core.obj_row:
            raise UnsupportedStructure("random objective coefficients are not supported")
        if row not in r2_idx:
            raise UnsupportedStructure(
                f"randomness on first-stage row {row!r} is not supported")
        if col == "RHS":
            entries.append(RandomEntry(kind="rhs", row=r2_idx[row], dist=dist))
        elif col in s1_idx:
            entries.append(RandomEntry(kind="tech", row=r2_idx[row], col=s1_idx[col], dist=dist))
        elif col in s2_idx:
            raise UnsupportedStructure(
                f"randomness on recourse-matrix column {col!r} is not supported")
        else:
            raise UnknownName(f"stochastic column {col!r} not found")

    if core.rhs.get(core.obj_row, 0.0) != 0.0:
        warnings.warn("objective-row RHS constant ignored")

    problem = TwoStageProblem(
        Q=Q, c=c_vec, A=A, b=b, D=D, d=d_vec, xi=xi, C=C,
        lower_bounds=lower, stochastic_map=entries, name=core.name,
    )
    return problem, ScenarioSampler(problem, seed=seed)
