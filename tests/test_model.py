from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from scsopt import simplex
from scsopt.exceptions import DimensionMismatch, InfeasibleRegion
from scsopt.model import (
    DeterministicProgram,
    Discrete,
    Normal,
    RandomEntry,
    ScenarioSampler,
    ScenarioSet,
    TwoStageProblem,
    Uniform,
    draw_scenarios,
    enumerate_support,
    extensive_form,
    initial_feasible_point,
    true_objective,
)
from scsopt.rng import substream


def simple_problem(**kw):
    defaults = dict(
        Q=np.zeros((2, 2)), c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0],
        D=np.hstack([np.eye(2), -np.eye(2)]), d=[1.0, 1.0, 2.0, 2.0],
        xi=[0.5, 0.5], C=[[0.3, 0.0], [0.0, 0.3]],
    )
    defaults.update(kw)
    return TwoStageProblem(**defaults)


class TestValidation:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            simple_problem(Q=[[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_pd_p(self):
        with pytest.raises(ValueError, match="positive definite"):
            simple_problem(P=-np.eye(4))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            simple_problem(c=[np.nan, 0.0])

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            simple_problem(C=np.zeros((3, 2)))

    def test_discrete_probs_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            Discrete((0.0, 1.0), (0.5, 0.4))

    def test_random_entry_needs_a_marginal(self):
        with pytest.raises(ValueError, match="draw method"):
            RandomEntry("rhs", 0)
        with pytest.raises(ValueError, match="draw method"):
            RandomEntry("tech", 0, 1, dist=(0.0, 1.0))

    def test_scenario_weights_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            ScenarioSet(np.zeros((2, 1)), np.zeros((2, 1, 1)), [0.25, 0.25])

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [1.5, -0.5], [0.5, np.nan]])
    def test_scenario_weights_must_be_positive(self, weights):
        with pytest.raises(ValueError, match="positive"):
            ScenarioSet(np.zeros((2, 1)), np.zeros((2, 1, 1)), weights)

    @pytest.mark.parametrize("xi, C, weights, atoms", [
        pytest.param(np.zeros(2), np.zeros((1, 2, 2)), [1.0], None, id="xi-not-N-by-m2"),
        pytest.param(np.zeros((1, 2)), np.zeros((1, 2)), [1.0], None, id="C-not-3d"),
        pytest.param(np.zeros((1, 2)), np.zeros((1, 3, 2)), [1.0], None, id="C-rows-differ"),
        pytest.param(np.zeros((2, 2)), np.zeros((2, 2, 2)), [1.0], None, id="weights-not-N"),
        pytest.param(np.zeros((2, 1)), np.zeros((2, 1, 1)), [0.5, 0.5], np.array([0]),
                     id="atoms-not-N"),
        pytest.param(np.zeros((2, 1)), np.zeros((2, 1, 1)), [0.5, 0.5], np.zeros((2, 1), dtype=int),
                     id="atoms-not-1d"),
    ])
    def test_scenario_set_checks_its_shapes(self, xi, C, weights, atoms):
        with pytest.raises(DimensionMismatch):
            ScenarioSet(xi, C, weights, atoms)


class TestSampling:
    def test_single_support_point(self):
        p = simple_problem(stochastic_map=[
            RandomEntry("rhs", 0, dist=Discrete((2.5,), (1.0,)))])
        got = ScenarioSampler(p, seed=1).sample(1)
        assert len(got) == 1
        assert got[0].xi[0] == 2.5
        assert got[0].weight == 1.0

    def test_same_seed_same_stream(self):
        p = simple_problem(stochastic_map=[
            RandomEntry("rhs", 0, dist=Normal(0.0, 1.0)),
            RandomEntry("tech", 1, 0, dist=Uniform(-1.0, 1.0))])
        a = ScenarioSampler(p, seed=42).sample(100)
        b = ScenarioSampler(p, seed=42).sample(100)
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.xi, t.xi)
            np.testing.assert_array_equal(s.C, t.C)

    def test_stream_advances_between_calls(self):
        p = simple_problem(stochastic_map=[
            RandomEntry("rhs", 0, dist=Normal(0.0, 1.0))])
        sampler = ScenarioSampler(p, seed=0)
        first = sampler.sample(10)
        second = sampler.sample(10)
        assert not np.array_equal(
            [s.xi[0] for s in first], [s.xi[0] for s in second])

    def test_empirical_mean_binomial_bound(self):
        p = simple_problem(stochastic_map=[
            RandomEntry("rhs", 0, dist=Discrete((0.0, 1.0), (0.5, 0.5)))])
        got = ScenarioSampler(p, seed=3).sample(10_000)
        mean = np.mean([s.xi[0] for s in got])
        assert 0.47 <= mean <= 0.53

    def test_support_enumeration_weights(self):
        p = simple_problem(stochastic_map=[
            RandomEntry("rhs", 0, dist=Discrete((1.0, 2.0, 3.0), (0.2, 0.3, 0.5))),
            RandomEntry("rhs", 1, dist=Discrete((0.0, 1.0), (0.4, 0.6)))])
        sup = enumerate_support(p)
        assert len(sup) == 6
        assert sum(s.weight for s in sup) == pytest.approx(1.0, abs=1e-12)

    def test_spawned_substreams_differ(self):
        p = simple_problem(stochastic_map=[
            RandomEntry("rhs", 0, dist=Normal(0.0, 1.0))])
        a = draw_scenarios(p, substream(9, "grow", 1), 5)
        b = draw_scenarios(p, substream(9, "test_set", 1), 5)
        assert not np.array_equal([x.xi[0] for x in a], [x.xi[0] for x in b])


class TestExtensiveForm:
    def test_single_scenario_lp_matches_direct(self):
        p = simple_problem(lower_bounds=[0.0, 0.0])
        scen = ScenarioSet([[2.0, 1.0]], [p.C], [1.0])
        sol = extensive_form(p, scen).solve()
        assert sol.status == "optimal"
        # grid-search oracle over the feasible segment x1 + x2 = 1, x >= 0
        best = min(true_objective(p, scen, np.array([t, 1.0 - t]))
                   for t in np.linspace(0.0, 1.0, 2001))
        assert sol.value == pytest.approx(best, abs=1e-3)

    def test_two_scenarios_average(self):
        p = simple_problem(lower_bounds=[0.0, 0.0])
        pair = ScenarioSet([[2.0, 1.0], [1.0, 2.0]], [p.C, p.C], [0.5, 0.5])
        x = np.array([0.4, 0.6])
        one = true_objective(p, ScenarioSet(pair.xi[:1], pair.C[:1], [1.0]), x)
        two = true_objective(p, ScenarioSet(pair.xi[1:], pair.C[1:], [1.0]), x)
        both = true_objective(p, pair, x)
        assert both == pytest.approx(0.5 * one + 0.5 * two, abs=1e-10)

    def test_small_sqlp_grid_search(self):
        rng = np.random.default_rng(4)
        p = simple_problem(
            Q=np.diag([1.0, 1.5]), c=[-1.0, -0.5], lower_bounds=[0.0, 0.0],
            stochastic_map=[RandomEntry("rhs", 0, dist=Discrete((0.2, 0.6, 1.1), (0.3, 0.4, 0.3)))])
        sup = enumerate_support(p)
        sol = extensive_form(p, sup).solve()
        best = min(true_objective(p, sup, np.array([t, 1.0 - t]))
                   for t in np.linspace(0.0, 1.0, 3001))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(best, abs=1e-3)

    def test_quadratic_recourse_extensive(self):
        p = simple_problem(Q=np.eye(2), P=np.eye(4), lower_bounds=[0.0, 0.0])
        sup = ScenarioSet([[1.0, 0.5]], [p.C], [1.0])
        sol = extensive_form(p, sup).solve()
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(true_objective(p, sup, sol.x), abs=1e-6)

    def test_value_matches_true_objective_at_optimum(self):
        p = simple_problem(Q=np.eye(2), c=[-0.5, -1.5], lower_bounds=[0.0, 0.0],
                           stochastic_map=[RandomEntry("rhs", 1, dist=Discrete((0.3, 0.7, 1.4), (0.2, 0.5, 0.3)))])
        sup = enumerate_support(p)
        sol = extensive_form(p, sup).solve()
        assert abs(sol.value - true_objective(p, sup, sol.x)) <= 1e-6


class TestTrueObjective:
    def test_zero_second_stage(self):
        p = simple_problem(d=[0.0, 0.0, 0.0, 0.0])
        scen = ScenarioSet([p.xi], [p.C], [1.0])
        x = np.array([0.5, 0.5])
        assert true_objective(p, scen, x) == pytest.approx(p.first_stage_cost(x), abs=1e-12)

    def test_convexity_along_segments(self):
        p = simple_problem(Q=np.eye(2),
                           stochastic_map=[RandomEntry("rhs", 0, dist=Discrete((0.1, 0.9), (0.5, 0.5)))])
        sup = enumerate_support(p)
        rng = np.random.default_rng(8)
        for _ in range(25):
            u, v = rng.normal(size=2), rng.normal(size=2)
            x1 = initial_feasible_point(p) + np.array([u[0], -u[0]])
            x2 = initial_feasible_point(p) + np.array([v[0], -v[0]])
            t = rng.uniform()
            lhs = true_objective(p, sup, t * x1 + (1 - t) * x2)
            rhs = t * true_objective(p, sup, x1) + (1 - t) * true_objective(p, sup, x2)
            assert lhs <= rhs + 1e-8


def test_support_above_the_limit_raises_before_allocating(monkeypatch):
    # seven independent 8-atom marginals: 8^7 = 2,097,152 atoms
    eighth = Discrete(tuple(range(8)), (0.125,) * 8)
    p = TwoStageProblem(Q=np.zeros((2, 2)), c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0],
                        D=np.eye(7), d=np.ones(7), xi=np.zeros(7), C=np.zeros((7, 2)),
                        stochastic_map=[RandomEntry("rhs", i, dist=eighth) for i in range(7)])

    def no_atom_table(*args, **kwargs):
        raise AssertionError("the atom table was built")

    monkeypatch.setattr(np, "indices", no_atom_table)
    with pytest.raises(ValueError, match="2097152 scenarios, above limit 1000000"):
        enumerate_support(p)
    with pytest.raises(ValueError, match="above limit"):
        ScenarioSampler(p).support()


def test_initial_feasible_point_respects_bounds():
    # the affine projection of the origin, (1.5, -1.5), breaks a bound
    p = simple_problem(A=[[1.0, -1.0]], b=[3.0], lower_bounds=[0.0, 0.0])
    x0 = initial_feasible_point(p)
    assert np.abs(p.A @ x0 - p.b).max() <= 1e-8 * (1 + np.abs(p.b).max())
    assert x0.min() >= -1e-9


def test_initial_feasible_point_rejects_inconsistent_rows():
    p = simple_problem(A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0])
    with pytest.raises(InfeasibleRegion):
        initial_feasible_point(p)


def test_draw_scenarios_equal_weights():
    p = simple_problem(stochastic_map=[RandomEntry("rhs", 0, dist=Uniform(0.0, 1.0))])
    got = draw_scenarios(p, substream(1, "sample"), 8)
    assert all(s.weight == pytest.approx(1.0 / 8) for s in got)


def scalar_draw(dist, rng):
    """One draw from ``rng``: a discrete atom by a running sum of probabilities, else ``dist.draw``."""
    if not isinstance(dist, Discrete):
        return dist.draw(rng)
    u, acc = rng.random(), 0.0
    for value, prob in zip(dist.values, dist.probs):
        acc += prob
        if u <= acc:
            return value
    return dist.values[-1]


def scalar_draws(problem, rng, n):
    """(xi, C) stacks of n scenarios drawn one entry at a time."""
    xi = np.repeat(problem.xi[None, :], n, axis=0)
    C = np.repeat(problem.C[None, :, :], n, axis=0)
    for r in range(n):
        for e in problem.stochastic_map:
            value = scalar_draw(e.dist, rng)
            if e.kind == "rhs":
                xi[r, e.row] = value
            else:
                C[r, e.row, e.col] = value
    return xi, C


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.booleans())
def test_draws_match_scalar_stream(seed, with_normal):
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(int(rng.integers(0, 5))):
        kind = "rhs" if rng.random() < 0.5 else "tech"
        if rng.random() < 0.5:
            k = int(rng.integers(1, 6))
            probs = rng.uniform(0.5, 1.5, k)
            probs /= probs.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            dist = Discrete(tuple(rng.normal(size=k)), tuple(probs))
            # u equal to a cumulative probability takes that atom; u above the last one, the last atom
            cum = np.cumsum(probs)
            assert dist.quantile(cum).tolist() == list(dist.values)
            assert dist.quantile(np.nextafter(cum[-1], 2.0)) == dist.values[-1]
        else:
            lo = float(rng.normal())
            dist = Uniform(lo, lo + float(rng.uniform(0.1, 3.0)))
        entries.append(RandomEntry(kind, int(rng.integers(2)), int(rng.integers(2)), dist=dist))
    if with_normal:
        entries.insert(int(rng.integers(len(entries) + 1)), RandomEntry("rhs", 1, dist=Normal(0.0, 1.0)))
    p = simple_problem(stochastic_map=entries)
    n = int(rng.integers(1, 50))
    got_rng, ref_rng = substream(seed, "sample"), substream(seed, "sample")
    got = draw_scenarios(p, got_rng, n)
    xi, C = scalar_draws(p, ref_rng, n)
    assert got.xi.tobytes() == xi.tobytes()
    assert got.C.tobytes() == C.tobytes()
    assert got_rng.random() == ref_rng.random()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_drawn_atom_index_is_the_enumerated_row(seed):
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(int(rng.integers(0, 5))):
        k = int(rng.integers(1, 6))
        probs = rng.uniform(0.5, 1.5, k)
        probs /= probs.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        kind = "rhs" if rng.random() < 0.5 else "tech"
        entries.append(RandomEntry(kind, int(rng.integers(2)), int(rng.integers(2)),
                                   dist=Discrete(tuple(rng.normal(size=k)), tuple(probs))))
    p = simple_problem(stochastic_map=entries)
    drawn = draw_scenarios(p, substream(seed, "sample"), int(rng.integers(1, 50)))
    support = enumerate_support(p)
    assert support.atoms.tolist() == list(range(len(support)))
    assert drawn.xi.tobytes() == support.xi[drawn.atoms].tobytes()
    assert drawn.C.tobytes() == support.C[drawn.atoms].tobytes()


def random_discrete(rng):
    k = int(rng.integers(1, 6))
    probs = rng.uniform(0.5, 1.5, k)
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    return Discrete(tuple(rng.normal(size=k)), tuple(probs))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from(["discrete", "uniform", "normal"]), st.booleans())
def test_draws_match_the_reference_byte_for_byte(seed, marginals, above_limit):
    # Reading the case and the radix from the problem, and placing rows into
    # broadcast copies, leaves every byte and the stream where they were:
    # rhs and tech entries; discrete only (atom indices), with uniform ones,
    # or with a normal one (row by row); a support at or above the limit.
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(int(rng.integers(0, 5))):
        lo = float(rng.normal())
        dist = (random_discrete(rng) if marginals == "discrete" or rng.random() < 0.5
                else Uniform(lo, lo + float(rng.uniform(0.1, 3.0))))
        kind = "rhs" if rng.random() < 0.5 else "tech"
        entries.append(RandomEntry(kind, int(rng.integers(2)), int(rng.integers(2)), dist=dist))
    if marginals == "normal":
        entries.insert(int(rng.integers(len(entries) + 1)), RandomEntry("tech", 1, 0, dist=Normal(0.0, 1.0)))
    p = simple_problem(stochastic_map=entries)
    n = int(rng.integers(1, 50))
    limit = (p.support_size() or 1) - above_limit
    with mock.patch("scsopt.model._MAX_SCENARIOS", limit):
        got_rng, ref_rng = substream(seed, "batch", 3), substream(seed, "batch", 3)
        got, want = draw_scenarios(p, got_rng, n), reference.draw_scenarios(p, ref_rng, n)
    for field in ("xi", "C", "weights", "atoms"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert got_rng.random() == ref_rng.random()


def test_rows_without_an_atom_index(monkeypatch):
    discrete = RandomEntry("rhs", 0, dist=Discrete((0.0, 1.0), (0.5, 0.5)))
    for other in (Uniform(0.0, 1.0), Normal(0.0, 1.0)):
        p = simple_problem(stochastic_map=[discrete, RandomEntry("rhs", 1, dist=other)])
        assert draw_scenarios(p, substream(1, "sample"), 4).atoms is None
    p = simple_problem(stochastic_map=[discrete, RandomEntry("rhs", 1, dist=discrete.dist)])
    assert draw_scenarios(p, substream(1, "sample"), 4).atoms is not None
    monkeypatch.setattr("scsopt.model._MAX_SCENARIOS", 3)  # a support of 4 atoms
    assert draw_scenarios(p, substream(1, "sample"), 4).atoms is None
    assert ScenarioSet(np.zeros((1, 2)), np.zeros((1, 2, 2)), [1.0]).atoms is None


def random_lp(seed, case, Q=None, scale=1.0):
    """A random two-stage program on the simplex {sum x = 1} with discrete right-hand sides.

    ``case`` "bounded" has x >= 0 and complete recourse; "free" drops the
    bounds; "infeasible" makes the recourse y = xi - Cx >= 0, which one atom
    of xi_0 violates at the start point x0 = 1/n1.  The first stage is
    linear unless ``Q`` is "spd" (positive definite) or "psd" (singular,
    with a null direction u that keeps sum x = 1, so with free x the first
    master, whose cuts are linear along u, is unbounded).  ``scale``
    multiplies the costs c, d and Q; at 1e-3 most cuts are violated by less
    than 1e-3.
    """
    rng = np.random.default_rng(seed)
    n1, m2 = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    C = rng.normal(size=(m2, n1))
    if case == "infeasible":
        D, d = np.eye(m2), rng.uniform(0.5, 2.0, m2)
        xi = C @ np.full(n1, 1.0 / n1) + rng.uniform(0.5, 1.0, m2)
        shifts = (-1.0, float(rng.uniform()))
    else:
        D, d = np.hstack([np.eye(m2), -np.eye(m2)]), rng.uniform(0.5, 2.0, 2 * m2)
        xi = rng.normal(size=m2)
        shifts = tuple(rng.normal(size=2))
    entries = [RandomEntry("rhs", 0, dist=Discrete(tuple(xi[0] + np.array(shifts)), (0.5, 0.5)))]
    for row in range(1, m2):
        k = int(rng.integers(1, 4))
        entries.append(RandomEntry("rhs", row, dist=Discrete(tuple(xi[row] + rng.normal(size=k)), (1.0 / k,) * k)))
    if rng.random() < 0.5:
        entries.append(RandomEntry("tech", m2 - 1, int(rng.integers(n1)),
                                   dist=Discrete(tuple(rng.normal(size=2)), (0.5, 0.5))))
    c = rng.normal(size=n1)
    L = rng.normal(size=(n1, n1))
    if Q == "spd":
        L = L + 2.0 * np.eye(n1)
    elif Q == "psd":
        u = rng.normal(size=n1)
        u -= u.mean()
        L -= np.outer(u, u @ L) / (u @ u)
    Q = np.zeros((n1, n1)) if Q is None else L @ L.T
    return TwoStageProblem(Q=0.5 * scale * (Q + Q.T), c=scale * c, A=np.ones((1, n1)), b=[1.0],
                           D=D, d=scale * d, xi=xi, C=C, stochastic_map=entries,
                           lower_bounds=None if case == "free" else np.zeros(n1))


def test_recourse_infeasible_at_a_master_point_hands_off_to_the_dense_solve():
    # y = xi - x1 >= 0 holds at the start point x0 = (0.5, 0.5) for both atoms, but
    # the first master, min -x1 + E[y] over the cuts at x0, moves to x1 = 1, where it fails
    p = TwoStageProblem(Q=np.zeros((2, 2)), c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[1.0],
                        D=[[1.0]], d=[1.0], xi=[0.6], C=[[1.0, 0.0]], lower_bounds=np.zeros(2),
                        stochastic_map=[RandomEntry("rhs", 0, dist=Discrete((0.6, 0.9), (0.5, 0.5)))])
    prog = extensive_form(p, enumerate_support(p))
    np.testing.assert_allclose(initial_feasible_point(p), [0.5, 0.5])
    with mock.patch.object(DeterministicProgram, "_dense_solve", autospec=True,
                           side_effect=DeterministicProgram._dense_solve) as dense:
        sol = prog.solve()
    assert dense.call_count == 1
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-0.45, abs=1e-12)
    np.testing.assert_allclose(sol.x, [0.6, 0.4], atol=1e-12)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 100_000), st.sampled_from(["bounded", "free", "infeasible"]),
       st.sampled_from([None, "spd", "psd"]), st.sampled_from([1.0, 1e-3]))
def test_decomposed_solve_matches_the_dense_solve(seed, case, Q, scale):
    p = random_lp(seed, case, Q, scale)
    prog = extensive_form(p, enumerate_support(p))
    ref = prog._dense_solve()
    with mock.patch.object(DeterministicProgram, "_dense_solve", autospec=True,
                           side_effect=DeterministicProgram._dense_solve) as dense, \
            mock.patch.object(simplex, "solve_lp_bounded", wraps=simplex.solve_lp_bounded) as lp:
        sol = prog.solve()
    # the recourse is infeasible at the start point, and a free first stage
    # leaves the first master unbounded unless Q is positive definite: both
    # hand the program to the dense solve
    decomposed = case == "bounded" or (case == "free" and Q == "spd")
    assert dense.call_count == (not decomposed)
    if decomposed and Q is not None:
        # every QP master starts at a feasible point, so none runs phase 1
        assert lp.call_count == 0
    assert sol.status == ref.status
    if decomposed:
        assert sol.status == "optimal"
        assert abs(sol.value - ref.value) <= 1e-12 * max(1.0, abs(ref.value))
        assert np.abs(p.A @ sol.x - p.b).max() <= 1e-9
        if case == "bounded":
            assert sol.x.min() >= -1e-9
    elif sol.status == "optimal":
        assert sol.value == ref.value
