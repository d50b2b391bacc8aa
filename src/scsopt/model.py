"""Problem and scenario data model for two-stage stochastic quadratic programs.

A problem instance is

    min_x  1/2 x'Qx + c'x + E[h(x, omega)]      s.t.  Ax = b  (, x >= lb)

where the recourse value h(x, omega) is the optimum of the second-stage
program  min { g(y) : Dy = xi(omega) - C(omega) x, y >= 0 }  with g linear
(d'y) or convex quadratic (1/2 y'Py + d'y).  Randomness is confined to
entries of the right-hand side xi and of the technology matrix C, described
by independent marginals in ``stochastic_map``.

The module also solves the deterministic equivalent over a finite scenario
set (the ground-truth oracle used throughout the test suite): a program with
linear recourse by multi-cut decomposition over the SAA oracle's rows, one
with quadratic recourse by the dense active-set solve of the
block-structured form.  It also evaluates exact objectives over finite
supports.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, qpsolve, simplex
from .base import as_lower_bounds, as_matrix, as_vector
from .exceptions import DimensionMismatch, InfeasibleRegion, RecourseInfeasible
from .rng import substream

_MAX_SCENARIOS = 1_000_000  # largest support enumerate_support builds


# ---------------------------------------------------------------------------
# distributions

@dataclass(frozen=True)
class Discrete:
    values: tuple
    probs: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if len(values) != len(probs) or not values:
            raise ValueError("discrete marginal needs matching, non-empty values and probs")
        if min(probs) <= 0.0:
            raise ValueError("discrete probabilities must be positive")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"discrete probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "_cum", np.cumsum(probs))
        object.__setattr__(self, "_values", np.asarray(values))

    def draw(self, rng):
        return float(self.quantile(rng.random()))

    def index(self, u):
        """Atom indices at uniforms ``u``: the first whose cumulative probability reaches u."""
        return np.minimum(np.searchsorted(self._cum, u, "left"), len(self.values) - 1)

    def quantile(self, u):
        return self._values[self.index(u)]


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def draw(self, rng):
        return float(rng.uniform(self.lo, self.hi))

    def quantile(self, u):
        return self.lo + (self.hi - self.lo) * u


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def draw(self, rng):
        return float(self.mu + self.sigma * rng.standard_normal())


@dataclass(frozen=True)
class RandomEntry:
    """One random position: kind 'rhs' (xi[row]) or 'tech' (C[row, col])."""

    kind: str
    row: int
    col: int = -1
    dist: object = None

    def __post_init__(self):
        if self.kind not in ("rhs", "tech"):
            raise ValueError(f"unknown stochastic entry kind {self.kind!r}")
        if not callable(getattr(self.dist, "draw", None)):
            raise ValueError(f"stochastic entry needs a marginal with a draw method, not {self.dist!r}")


# ---------------------------------------------------------------------------
# problem / scenarios

class TwoStageProblem:
    """Validated container for one two-stage instance.

    ``lower_bounds`` is always a length-n1 array; a free entry is -inf, and
    None given for the whole vector means every entry is free.
    ``recourse_lo``/``recourse_hi`` are optional declared bounds on
    h(x, omega) over the feasible region (instance metadata consumed by the
    sampling schedule); they are not enforced here.
    """

    def __init__(self, Q, c, A, b, D, d, xi, C, P=None, lower_bounds=None,
                 stochastic_map=(), name="", recourse_lo=None, recourse_hi=None):
        self.c = as_vector(c, name="c")
        self.n1 = self.c.size
        self.Q = as_matrix(Q, "Q", shape=(self.n1, self.n1))
        if np.abs(self.Q - self.Q.T).max(initial=0.0) > 1e-12 * (1.0 + np.abs(self.Q).max(initial=0.0)):
            raise ValueError("Q must be symmetric")
        self.A = as_matrix(A, "A")
        if self.A.shape[1] != self.n1:
            raise DimensionMismatch(f"A has {self.A.shape[1]} columns, expected {self.n1}")
        self.m1 = self.A.shape[0]
        self.b = as_vector(b, self.m1, "b")
        self.d = as_vector(d, name="d")
        self.n2 = self.d.size
        self.D = as_matrix(D, "D")
        if self.D.shape[1] != self.n2:
            raise DimensionMismatch(f"D has {self.D.shape[1]} columns, expected {self.n2}")
        self.m2 = self.D.shape[0]
        self.xi = as_vector(xi, self.m2, "xi")
        self.C = as_matrix(C, "C", shape=(self.m2, self.n1))
        if P is None:
            self.P = None
        else:
            self.P = as_matrix(P, "P", shape=(self.n2, self.n2))
            if np.abs(self.P - self.P.T).max(initial=0.0) > 1e-12 * (1.0 + np.abs(self.P).max(initial=0.0)):
                raise ValueError("P must be symmetric")
            try:
                np.linalg.cholesky(self.P)
            except np.linalg.LinAlgError as exc:
                raise ValueError("P must be positive definite") from exc
        self.lower_bounds = as_lower_bounds(lower_bounds, self.n1)
        self.stochastic_map = tuple(stochastic_map)
        for entry in self.stochastic_map:
            if entry.kind == "rhs":
                if not 0 <= entry.row < self.m2:
                    raise DimensionMismatch(f"rhs position {entry.row} out of range")
            else:
                if not (0 <= entry.row < self.m2 and 0 <= entry.col < self.n1):
                    raise DimensionMismatch(f"tech position ({entry.row},{entry.col}) out of range")
        # atoms per entry, the radix of a drawn row's atom index; None unless every
        # marginal is discrete (a finite support)
        self._radix = (tuple(len(e.dist.values) for e in self.stochastic_map)
                       if all(isinstance(e.dist, Discrete) for e in self.stochastic_map) else None)
        self.name = name
        self.recourse_lo = None if recourse_lo is None else float(recourse_lo)
        self.recourse_hi = None if recourse_hi is None else float(recourse_hi)

    @property
    def quadratic_recourse(self):
        return self.P is not None

    def first_stage_cost(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.Q @ x + self.c @ x)

    def support_size(self):
        return None if self._radix is None else math.prod(self._radix)


@dataclass(frozen=True)
class Scenario:
    """Row i of a ScenarioSet, as indexing and iteration yield it."""

    xi: np.ndarray
    C: np.ndarray
    weight: float


class ScenarioSet:
    """Ordered scenarios whose weights sum to one, stored as arrays.

    ``xi`` is N x m2, ``C`` is N x m2 x n1 and ``weights`` has N positive
    entries; other shapes raise DimensionMismatch.  ``atoms`` is None or,
    for rows of a finite support, each row's index in ``enumerate_support``'s
    order, one entry per row; rows that share an index are equal.  Indexing
    or iterating yields ``Scenario`` views of single rows.
    """

    def __init__(self, xi, C, weights, atoms=None):
        xi, C = np.asarray(xi, dtype=float), np.asarray(C, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if xi.ndim != 2 or C.ndim != 3 or C.shape[:2] != xi.shape or weights.shape != xi.shape[:1]:
            raise DimensionMismatch(f"scenario arrays of shapes {xi.shape}, {C.shape} and "
                                    f"{weights.shape} are not N x m2, N x m2 x n1 and N")
        atoms = None if atoms is None else np.asarray(atoms)
        if atoms is not None and atoms.shape != weights.shape:
            raise DimensionMismatch(f"atoms of shape {atoms.shape} is not one entry per row")
        if not weights.min(initial=np.inf) > 0.0:  # a NaN weight fails it too
            raise ValueError("scenario weight must be positive")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-12 * len(weights):
            raise ValueError(f"scenario weights sum to {total!r}, not 1")
        self.xi, self.C, self.weights, self.atoms = xi, C, weights, atoms

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i):
        return Scenario(self.xi[i], self.C[i], float(self.weights[i]))


def _place(problem, values, weights, atoms):
    """ScenarioSet whose row r carries ``values[r, j]`` at the position of stochastic entry j."""
    n = len(weights)
    xi, C = np.empty((n,) + problem.xi.shape), np.empty((n,) + problem.C.shape)
    xi[:], C[:] = problem.xi, problem.C
    for j, entry in enumerate(problem.stochastic_map):
        if entry.kind == "rhs":
            xi[:, entry.row] = values[:, j]
        else:
            C[:, entry.row, entry.col] = values[:, j]
    return ScenarioSet(xi, C, weights, atoms)


def draw_scenarios(problem, rng, n):
    """n i.i.d. scenarios with equal weights 1/n, consuming ``rng``.

    Discrete and uniform marginals map one ``rng.random((n, k))`` block through
    ``quantile``, the same stream and bits as n rows of scalar ``draw`` calls;
    a map with any other marginal draws row by row.  Every row is returned,
    repeats included.  When every marginal is discrete and the support has at
    most ``_MAX_SCENARIOS`` atoms, each row carries its atom index: the C-order
    mixed radix of its per-entry atom indices, ``enumerate_support``'s row.
    Whether the support is finite, and the radix, are read from the problem,
    which derives them from its map once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    entries, radix, atoms = problem.stochastic_map, problem._radix, None
    if all(isinstance(e.dist, (Discrete, Uniform)) for e in entries):
        values = rng.random((n, len(entries)))
        if radix is not None and problem.support_size() <= _MAX_SCENARIOS:
            atoms = np.zeros(n, dtype=np.int64)
        for j, entry in enumerate(entries):
            if atoms is None:
                values[:, j] = entry.dist.quantile(values[:, j])
            else:
                idx = entry.dist.index(values[:, j])
                values[:, j] = entry.dist._values[idx]
                atoms = atoms * radix[j] + idx
    else:
        values = np.array([[e.dist.draw(rng) for e in entries] for _ in range(n)])
    return _place(problem, values, np.full(n, 1.0 / n), atoms)


def enumerate_support(problem):
    """Exact finite support with product weights; requires discrete marginals only.

    Atoms come in ``itertools.product`` order (the last entry varies fastest),
    and row r carries atom index r.  A support above ``_MAX_SCENARIOS`` atoms
    raises before anything is allocated.
    """
    size = problem.support_size()
    if size is None:
        raise ValueError("support enumeration requires finite (discrete) marginals")
    if size > _MAX_SCENARIOS:
        raise ValueError(f"support has {size} scenarios, above limit {_MAX_SCENARIOS}")
    entries = problem.stochastic_map
    atoms = np.indices([len(e.dist.values) for e in entries]).reshape(len(entries), size)
    values = np.empty((size, len(entries)))
    weights = np.ones(size)
    for j, entry in enumerate(entries):
        values[:, j] = entry.dist._values[atoms[j]]
        weights = weights * np.asarray(entry.dist.probs)[atoms[j]]
    return _place(problem, values, weights, np.arange(size))


class ScenarioSampler:
    """Reproducible scenario stream: identical seeds give identical draws.

    ``sample`` advances an internal stream, so successive calls return
    independent batches.
    """

    def __init__(self, problem, seed=0):
        self.problem = problem
        self.seed = int(seed)
        self._rng = substream(self.seed, "sample")

    def sample(self, n):
        return draw_scenarios(self.problem, self._rng, n)

    def support(self):
        return enumerate_support(self.problem)


# ---------------------------------------------------------------------------
# deterministic equivalent

@dataclass
class ExtensiveSolution:
    status: str
    value: float
    x: np.ndarray | None


class DeterministicProgram:
    """Deterministic equivalent over a finite scenario set.

    The program is  min 1/2 x'Qx + c'x + sum_i w_i g(y_i)  over [x, y_1, ..., y_N]
    subject to Ax = b, x >= lb and C_i x + D y_i = xi_i, y_i >= 0.

    A program with linear recourse is solved by multi-cut decomposition (Van
    Slyke and Wets, 1969; Birge and Louveaux, 1988).  The master has
    variables [x, theta_1..theta_N, cut slacks], objective
    1/2 x'Qx + c'x + sum_s w_s theta_s, and rows Ax = b plus one row
    theta_s - v'x - s = h - v'x_k  per cut, where [h | v] is scenario s's row
    of a ``SaaFunction`` over the set at x_k.  The first cuts are taken at
    ``initial_feasible_point``; each round appends the cuts that the master
    point violates.  With Q = 0 the new slacks join the last basis, which
    stays dual feasible, so the dual simplex goes on from it.  With Q != 0
    the active-set QP starts at the last master point with each theta_s
    raised to at least h_s(x), where every old and new cut holds (the first
    master starts at the first cut point), and so runs no phase 1.  With no
    cut violated, the value is F(x) at the master's x.  A master that is not
    optimal (unbounded, as with a free first stage and a Q that is singular
    on it), a recourse infeasible at the start or at a master point, an
    empty first stage or a round that would add no new cut hands the
    program to the dense solve.

    A program with quadratic recourse, and every hand-off, is solved whole
    in the block-structured form: the revised simplex for an LP, the
    active-set solve for a QP.  ``oracle`` is the ``SaaFunction`` a decomposed
    solve built over the scenarios (None before one), for siblings to share.
    """

    def __init__(self, problem, scenarios):
        if scenarios.xi.shape[1:] != (problem.m2,) or scenarios.C.shape[1:] != (problem.m2, problem.n1):
            raise DimensionMismatch("scenario shapes do not match the problem")
        self.problem = problem
        self.scenarios = scenarios
        self.is_lp = (not problem.quadratic_recourse) and np.abs(problem.Q).max(initial=0.0) == 0.0
        self.oracle = None

    def solve(self):
        sol = None if self.problem.quadratic_recourse else self._decomposed_solve()
        return self._dense_solve() if sol is None else sol

    def _decomposed_solve(self):
        """The multi-cut solution, or None where the dense solve must decide."""
        from . import oracle

        p = self.problem
        F = self.oracle = oracle.SaaFunction(p, self.scenarios)
        w = F.scenarios.weights
        N, n1 = w.size, p.n1
        lb = np.concatenate([p.lower_bounds, np.full(N, -np.inf)])
        try:
            x = initial_feasible_point(p)
            rows = F._solutions(x)
        except (InfeasibleRegion, RecourseInfeasible):
            return None
        cuts, seen, new, res, theta = np.empty((0, n1 + N + 1)), set(), np.arange(N), None, rows[:, 0]
        while True:
            block = np.zeros((new.size, n1 + N + 1))  # [-v | e_s | h - v'x] per violated scenario s
            block[:, :n1] = -rows[new, 1:]
            block[np.arange(new.size), n1 + new] = 1.0
            block[:, -1] = rows[new, 0] - rows[new, 1:] @ x
            keys = {row.tobytes() for row in block}
            if keys <= seen:
                return None
            seen |= keys
            cuts = np.vstack([cuts, block])
            K = len(cuts)
            M = np.zeros((p.m1 + K, n1 + N + K))
            M[:p.m1, :n1] = p.A
            M[p.m1:, :n1 + N] = cuts[:, :-1]
            M[p.m1:, n1 + N:] = -np.eye(K)
            b = np.concatenate([p.b, cuts[:, -1]])
            cost, lb_K = np.concatenate([p.c, w, np.zeros(K)]), np.concatenate([lb, np.zeros(K)])
            if self.is_lp:
                basis = None if res is None else np.concatenate([res.basis, res.x.size + np.arange(new.size)])
                res, v = simplex.solve_lp_bounded(cost, M, b, lb_K, basis=basis)
            else:
                # start at the last x with theta_s >= h_s(x): every old and new cut holds there
                xt = np.concatenate([x, np.maximum(theta, rows[:, 0])])
                H = np.zeros((n1 + N + K, n1 + N + K))
                H[:n1, :n1] = p.Q
                res = qpsolve.solve_qp(H, cost, M, b, lb_K,
                                       start=np.concatenate([xt, cuts[:, :-1] @ xt - cuts[:, -1]]))
                v = res.x if res.status == qpsolve.OPTIMAL else None
            if v is None:
                return None
            x, theta = v[:n1], v[n1:n1 + N]
            try:
                rows = F._solutions(x)
            except RecourseInfeasible:
                return None
            # violated beyond the feasibility tolerance the dual simplex keeps on the master's rows
            new = np.flatnonzero(rows[:, 0] > theta + simplex._TOL * (1.0 + np.abs(b).max()))
            if not new.size:
                return ExtensiveSolution(status="optimal", value=F.value(x), x=x)

    def _dense_solve(self):
        """Solve the block-structured program whole."""
        p, S = self.problem, self.scenarios
        n1, n2, m1, m2, N = p.n1, p.n2, p.m1, p.m2, len(S)
        nv = n1 + N * n2
        A_eq = np.zeros((m1 + N * m2, nv))
        A_eq[:m1, :n1] = p.A
        A_eq[m1:, :n1] = S.C.reshape(N * m2, n1)
        for i in range(N):
            A_eq[m1 + i * m2:m1 + (i + 1) * m2, n1 + i * n2:n1 + (i + 1) * n2] = p.D
        b_eq = np.concatenate([p.b, S.xi.reshape(N * m2)])
        lin = np.concatenate([p.c, (S.weights[:, None] * p.d).reshape(N * n2)])
        lb = np.zeros(nv)
        lb[:n1] = p.lower_bounds
        if self.is_lp:
            res, v = simplex.solve_lp_bounded(lin, A_eq, b_eq, lb)
            status, value = res.status, None if v is None else lin @ v
        else:
            H = np.zeros((nv, nv))
            H[:n1, :n1] = p.Q
            if p.quadratic_recourse:
                for i, w in enumerate(S.weights):
                    c0 = n1 + i * n2
                    H[c0:c0 + n2, c0:c0 + n2] = w * p.P
            res = qpsolve.solve_qp(H, lin, A_eq, b_eq, lb=lb)
            status, value, v = res.status, res.obj, res.x
        if status != "optimal":
            return ExtensiveSolution(status=status, value=np.nan, x=None)
        return ExtensiveSolution(status="optimal", value=float(value), x=v[:n1])


def extensive_form(problem, scenarios):
    """Deterministic-equivalent program for the given finite scenario set."""
    return DeterministicProgram(problem, scenarios)


def true_objective(problem, scenarios, x):
    """c(x) + sum_i w_i h(x, omega_i) by one recourse solve per scenario."""
    from . import oracle

    x = as_vector(x, problem.n1, "x")
    total = problem.first_stage_cost(x)
    for i, s in enumerate(scenarios):
        sol = oracle.solve_recourse(problem, s, x)
        oracle.require_optimal(sol, i)
        total += s.weight * sol.h
    return float(total)


def initial_feasible_point(problem):
    """Feasible start: the projection of the origin onto {Ax = b, x >= lower_bounds}."""
    return linalg.project_polyhedral(problem.A, problem.b, problem.lower_bounds, np.zeros(problem.n1))
