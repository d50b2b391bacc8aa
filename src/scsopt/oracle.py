"""Second-stage solvers, subgradient extraction, and sample-average objectives.

For a first-stage point x and scenario (xi, C) the recourse program is

    h(x) = min { g(y) : Dy = xi - Cx, y >= 0 }

with g linear or convex quadratic.  The equality duals pi of that program
give the production subgradient of h with respect to x as  v = -C' pi,
for both the linear and the quadratic second stage.

Both solutions are piecewise affine in r = xi - Cx: an LP's optimal basis,
and a strictly convex QP's optimal working set (Bemporad, Morari, Dua and
Pistikopoulos, 2002), fixes one affine map on a polyhedral cell of r.  The
sample-average oracle stacks those maps and screens its scenarios against
every known cell in one matrix product instead of a solve each.
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import model, qpsolve, simplex
from .exceptions import DimensionMismatch, NumericalBreakdown, RecourseInfeasible
from .model import ScenarioSet
from .rng import substream

_CACHE_LIMIT = 128
_ROW_TABLE_LIMIT = 32  # points; a line search ends by its 25th trial, so its start is still held
_PILOT_SIZE = 32
_FIRST_CAPACITY = 8  # cells a table holds before its first doubling


@dataclass
class RecourseSolution:
    h: float
    y: np.ndarray | None
    pi: np.ndarray | None
    status: str
    mu: np.ndarray | None = None
    basis: np.ndarray | None = None
    working_set: np.ndarray | None = None  # active bounds of a QP solve


def solve_recourse(problem, scenario, x, basis=None):
    """Value, primal and equality duals of the recourse program at (x, scenario).

    ``basis`` warm-starts the simplex (the phase-1 simplex of a QP).
    """
    rhs = scenario.xi - scenario.C @ np.asarray(x, dtype=float)
    if problem.quadratic_recourse:
        res = qpsolve.solve_qp(problem.P, problem.d, problem.D, rhs, lb=np.zeros(problem.n2),
                               phase1_basis=basis)
        found = dict(mu=res.mu, basis=res.phase1_basis, working_set=res.working_set)
    else:
        res = simplex.solve_lp(problem.d, problem.D, rhs, basis=basis)
        found = dict(basis=res.basis)
    if res.status != "optimal":
        return RecourseSolution(h=res.obj, y=None, pi=None, status=res.status)
    return RecourseSolution(h=res.obj, y=res.x, pi=res.pi, status="optimal", **found)


def require_optimal(sol, scenario_index=None):
    if sol.status == "optimal":
        return sol
    if sol.status == "infeasible":
        raise RecourseInfeasible(
            f"second stage infeasible (scenario {scenario_index})", scenario_index
        )
    if sol.status == "unbounded":
        raise RecourseInfeasible(
            f"second stage unbounded below (scenario {scenario_index})", scenario_index
        )
    raise NumericalBreakdown(f"recourse solve ended with status {sol.status!r}")


def pilot(problem, seed):
    """Oracle over the pilot sample that sets a solver's scale at its starting point."""
    return SaaFunction(problem, model.draw_scenarios(problem, substream(seed, "pilot"), _PILOT_SIZE))


# ---------------------------------------------------------------------------
# sample-average objective

class SaaFunction:
    """Sample-average objective F(x) = c(x) + sum_i w_i h(x, omega_i).

    Draws that share an atom index (``ScenarioSet.atoms``) are one row of
    ``scenarios``, in first-appearance order, with weight count / n over the
    n draws; ``len(F)`` is n.  A set without an index, or whose indices are
    all distinct (an enumerated support), is used as given.  An oracle's
    sample never changes: a grown sample is a new oracle over all its draws
    (``sibling``), which keeps the cell table and the last basis.

    Per-row recourse values and subgradients are cached per evaluation
    point (bounded LRU) as one array of rows [h_i | v_i], filled whole the
    first time a point is asked for; the entry also keeps F(x) and the
    subgradient, each from the first time it is asked for (a caller gets a
    copy of the latter).  The rows are screened against a table of cells
    stacked in discovery order, each an affine map of the right-hand side r:

    * an LP cell is a dual-feasible basis B (dual feasibility depends only on
      (d, D)); a scenario whose basic solution B^-1 r is nonnegative is
      optimal with the cell's constant pi;
    * a QP cell is a working set, the bounds active at a scalar solve's
      optimum, whose inverted KKT matrix maps r to [y; pi] (y zero off the
      free set); a scenario with y and bound multipliers nonnegative is
      optimal.  A singular or ill-conditioned KKT matrix is never stacked.

    Each field of the table is one array, cells outermost, that doubles when
    full.  A screen pass is one product of the stacked maps with the missing
    r; a QP pass lays its results out map rows x cells x scenarios, so each
    check reduces over contiguous blocks.  The first cell in discovery order
    that solves a scenario settles it.  A scenario
    outside every cell reaches ``solve_recourse``, warm-started from the last
    basis a solve returned (the phase-1 basis of a QP), and its cell joins
    the table before the rest are screened again.  The sums below run over
    the rows in their fixed order, so results are bit-reproducible.

    Siblings, the oracles of one fit, also share a table of filled rows
    keyed by point, for the last ``_ROW_TABLE_LIMIT`` points filled.  At
    each point it holds the last fill over at least as many rows as the one
    before, by reference: the filling oracle's map from atom index to row
    and its row array.  An oracle with an atom index whose every atom has a
    row there gathers those rows and does not fill.  A gathered row may
    differ in the last bits from the one the oracle's own fill would give:
    a scalar solve, or a pass over one column, rounds unlike a wider pass.
    """

    def __init__(self, problem, scenarios):
        if scenarios.C.shape[1:] != (problem.m2, problem.n1):  # then xi is N x m2 too
            raise DimensionMismatch(f"scenario C is {scenarios.C.shape}, not N x {problem.m2} x {problem.n1}")
        self.problem = problem
        self._n = len(scenarios)
        self.scenarios, self._first = scenarios, range(self._n)  # row i first appears at draw _first[i]
        self._row_of = None  # atom index -> row
        if scenarios.atoms is not None:
            self._row_of, first, count = {}, [], []  # per atom, in first-appearance order
            for j, atom in enumerate(scenarios.atoms.tolist()):
                i = self._row_of.get(atom)
                if i is None:
                    self._row_of[atom] = len(first)
                    first.append(j)
                    count.append(1)
                else:
                    count[i] += 1
            if len(first) < self._n:
                self._first = rows = np.array(first)
                weights = np.array(count, dtype=float) / self._n
                self.scenarios = ScenarioSet(scenarios.xi[rows], scenarios.C[rows], weights,
                                             scenarios.atoms[rows])
        self._cache = OrderedDict()
        self._basis_hint = None  # the last basis a scalar solve returned
        self._cells = {"tried": {}, "n": 0, "fields": None, "stack": (), "rows": {}}  # shared by siblings
        self._shared_C = bool((self.scenarios.C == self.scenarios.C[0]).all())
        self._terms = None  # (1 + rows) x n1 buffer of the subgradient's summands

    def sibling(self, scenarios):
        """Oracle over ``scenarios`` sharing this one's cells and rows, starting from its last basis.

        For sample sets of the same problem, e.g. a grown sample, which holds
        the draws so far and the new ones, and the replication sets drawn
        against it.
        """
        out = SaaFunction(self.problem, scenarios)
        out._cells, out._basis_hint = self._cells, self._basis_hint
        return out

    def __len__(self):
        return self._n

    def _pool(self, key):
        """Try the cell of free set ``key``: an LP basis, or the inactive bounds of a QP.

        Every key tried is remembered; a singular or dual-infeasible LP basis
        and a singular or ill-conditioned QP KKT matrix are never stacked.
        """
        table = self._cells
        if key not in table["tried"]:
            free = np.array(key, dtype=int)
            cell = self._qp_cell(free) if self.problem.quadratic_recourse else self._lp_cell(free)
            table["tried"][key] = cell is not None
            if cell is not None:
                n, fields = table["n"], table["fields"]
                if fields is None:
                    fields = [np.empty((_FIRST_CAPACITY,) + part.shape, dtype=part.dtype) for part in cell]
                elif n == len(fields[0]):  # full: double it, the new slots holding copies to overwrite
                    fields = [np.concatenate([field, field]) for field in fields]
                for field, part in zip(fields, cell):
                    field[n] = part
                table["fields"], table["n"] = fields, n + 1
                table["stack"] = [field[:n + 1] for field in fields]  # views of the cells stacked

    def _lp_cell(self, basis):
        """(B_inv, pi, d_B) of a dual-feasible basis of (d, D)."""
        d, D = self.problem.d, self.problem.D
        try:
            B_inv = simplex._invert(D[:, basis])
        except NumericalBreakdown:
            return None
        pi = d[basis] @ B_inv
        red = d - D.T @ pi
        red[basis] = 0.0
        tol_c = 1e-9 * (1.0 + float(np.abs(d).max(initial=0.0)))
        return (B_inv, pi, d[basis]) if red.min(initial=0.0) >= -tol_c else None

    def _qp_cell(self, free):
        """(G, a, work): [y; pi] = a + G r with y zero off the free set F, and the mask of W.

        P y + d - D'pi - mu = 0 with y_W = 0 and mu_F = 0 leaves the KKT system
        [[P_FF, -D_F'], [D_F, 0]] [y_F; pi] = [-d_F; r].
        """
        P, d, D = self.problem.P, self.problem.d, self.problem.D
        (m2, n2), nf = D.shape, free.size
        K = np.block([[P[np.ix_(free, free)], -D[:, free].T], [D[:, free], np.zeros((m2, m2))]])
        try:
            K_inv = simplex._invert(K)
            simplex._check_condition(K, K_inv)
        except NumericalBreakdown:
            return None
        at = np.concatenate([free, n2 + np.arange(m2)])
        G, a, work = np.zeros((n2 + m2, m2)), np.zeros(n2 + m2), np.ones(n2, dtype=bool)
        G[at], a[at], work[free] = K_inv[:, nf:], -K_inv[:, :nf] @ d[free], False
        return G, a, work

    def _screen(self, R, start):
        """(hit, h, pi) of the columns of R that the stacked cells from ``start`` on solve.

        QP checks are within ``qpsolve._finish``'s tolerances.  The product
        with R takes the maps as one matrix of (cell, map row) rows, and
        ``P y`` and ``D'pi`` stay one product per cell: a product's rounding
        can depend on its shape.
        """
        p, stack = self.problem, self._cells["stack"]
        G, *fields = (field[start:] for field in stack) if start else stack
        Z = (G.reshape(-1, G.shape[2]) @ R).reshape(G.shape[0], G.shape[1], R.shape[1])
        if p.quadratic_recourse:
            a, work = fields
            (cells, rows, width), n2 = Z.shape, work.shape[1]
            V = np.empty((rows + 2 * n2, cells, width))
            np.add(Z.transpose(1, 0, 2), a.T[:, :, None], out=V[:rows])
            y, pi, grad, mu = V[:n2], V[n2:rows], V[rows:rows + n2], V[rows + n2:]
            np.matmul(p.P, y.transpose(1, 0, 2), out=grad.transpose(1, 0, 2))
            grad += p.d[:, None, None]
            np.matmul(p.D.T, pi.transpose(1, 0, 2), out=mu.transpose(1, 0, 2))
            np.subtract(grad, mu, out=mu)
            ok = y.min(axis=0) >= -1e-9 * (1.0 + np.abs(y).max(axis=0))
            ok &= (np.where(work.T[:, :, None], mu, 0.0).min(axis=0)
                   >= -1e-8 * (1.0 + np.abs(grad).max(axis=0)))
        else:
            ok = Z.min(axis=1) >= -1e-9 * (1.0 + np.abs(R).max(axis=0))
        hit = ok.any(axis=0)
        cols = hit.nonzero()[0]
        k = ok.argmax(axis=0)[cols]
        if p.quadratic_recourse:
            found = V.transpose(1, 0, 2)[k, :, cols]  # [y | pi | P y + d | mu] per column
            h = 0.5 * np.einsum("ij,ij->i", found[:, :n2], found[:, rows:rows + n2] + p.d)
            return hit, h, found[:, n2:rows]
        pi, d_B = fields
        return hit, np.einsum("ij,ij->i", Z[k, :, cols], d_B[k]), pi[k]

    def _solutions(self, x):
        """N x (1 + n1) array whose row i is [h_i | v_i] at x."""
        return self._memo(x)[1][0]

    def _memo(self, x):
        """(x as a float vector, its LRU entry [rows, F(x) or None, subgradient or None]).

        Only a point not in the LRU is checked, since equal bytes are equal
        values; its rows are gathered or filled.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        key = x.tobytes()
        memo = self._cache.pop(key, None)
        if memo is None:
            if x.size != self.problem.n1:
                raise DimensionMismatch(f"x must have length {self.problem.n1}, got {x.size}")
            if not np.isfinite(x).all():
                raise ValueError("x contains NaN or Inf entries")
            rows = self._gather(key)
            memo = [self._fill(x, key) if rows is None else rows, None, None]
        self._cache[key] = memo
        if len(self._cache) > _CACHE_LIMIT:
            self._cache.popitem(last=False)
        return x, memo

    def _gather(self, key):
        """The rows at the point ``key`` from the family's table, or None if one lacks."""
        entry = self._cells["rows"].get(key) if self._row_of else None
        if entry is None:
            return None
        row_of, rows = entry
        at = [row_of.get(atom) for atom in self._row_of]
        return None if None in at else rows[at]

    def _fill(self, x, key):
        """The rows at x: screen every scenario, solve one, pool its cell, repeat.

        The right-hand sides, one column each (one product with C_0 when C is
        shared), are screened against every stacked cell; a first pass that
        settles them all writes the rows whole.  While scenarios remain, the
        first is solved warm-started from the last basis, its cell joins the
        table, and the rest are screened against the cells added since the
        last pass.  An oracle with an atom index enters the rows in the
        family's table at ``key``.
        """
        S, cells = self.scenarios, self._cells
        rows, missing = np.empty((len(S), 1 + self.problem.n1)), np.arange(len(S))
        R = (np.subtract(S.xi.T, (S.C[0] @ x)[:, None], order="C") if self._shared_C
             else np.ascontiguousarray((S.xi - S.C @ x).T))
        screened = 0
        while missing.size:
            if cells["n"] > screened:
                hit, h, pi = self._screen(R, screened)
                settled = hit.all()
                idx = slice(None) if settled and missing.size == len(S) else missing[hit]
                rows[idx, 0] = h
                rows[idx, 1:] = -(pi @ S.C[0]) if self._shared_C else -np.einsum("imn,im->in", S.C[idx], pi)
                if settled:
                    break
                missing, R = missing[~hit], R[:, ~hit]
            screened = cells["n"]
            i = int(missing[0])
            s = S[i]
            sol = require_optimal(solve_recourse(self.problem, s, x, basis=self._basis_hint),
                                 int(self._first[i]))
            rows[i, 0] = sol.h
            rows[i, 1:] = -s.C.T @ sol.pi
            self._basis_hint = sol.basis
            free = sol.basis if sol.working_set is None else np.flatnonzero(~sol.working_set)
            self._pool(tuple(free.tolist()))
            missing, R = missing[1:], R[:, 1:]
        table, held = self._cells["rows"], self._cells["rows"].get(key)
        if self._row_of is not None and (held is None or len(S) >= len(held[0])):
            table.pop(key, None)  # re-entered as the newest
            table[key] = (self._row_of, rows)
            if len(table) > _ROW_TABLE_LIMIT:
                del table[next(iter(table))]
        return rows

    def _value(self, x, memo):
        if memo[1] is None:
            h = np.ascontiguousarray(memo[0][:, 0])
            memo[1] = self.problem.first_stage_cost(x) + float(self.scenarios.weights @ h)
        return memo[1]

    def _subgrad(self, x, memo):
        # Reducing over axis 0 adds the rows one after another, so this is
        # bit-equal to g = Qx + c; g = g + w_i v_i over i in scenario order.
        if memo[2] is None:
            if self._terms is None:
                self._terms = np.empty((1 + len(self.scenarios), self.problem.n1))
            terms = self._terms
            terms[0] = self.problem.Q @ x + self.problem.c
            np.multiply(self.scenarios.weights[:, None], memo[0][:, 1:], out=terms[1:])
            memo[2] = np.add.reduce(terms, axis=0)
        return memo[2].copy()

    def value(self, x):
        return self._value(*self._memo(x))

    def subgrad(self, x):
        return self._subgrad(*self._memo(x))

    def value_and_subgrad(self, x):
        x, memo = self._memo(x)
        return self._value(x, memo), self._subgrad(x, memo)
