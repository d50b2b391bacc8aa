from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_form import closed_form_dual_value, closed_form_multiplier
from instances import make_two_stage, scenario_subgrad
from reference import RestackingTable
from scsopt import oracle
from scsopt.exceptions import DimensionMismatch, RecourseInfeasible
from scsopt.model import (
    Discrete,
    RandomEntry,
    Scenario,
    ScenarioSet,
    TwoStageProblem,
    Uniform,
    enumerate_support,
    true_objective,
)
from scsopt.oracle import SaaFunction, solve_recourse
from scsopt.rng import substream
from scsopt.model import draw_scenarios
from scsopt.scs import ScsSolver, _joined


def lp_problem(**kw):
    defaults = dict(
        Q=np.zeros((1, 1)), c=[0.0], A=[[1.0]], b=[1.0],
        D=[[1.0]], d=[1.0], xi=[2.0], C=[[1.0]],
    )
    defaults.update(kw)
    return TwoStageProblem(**defaults)


def complete_recourse_problem(rng, n1=3, m2=2, n_base=2, quadratic=False, seed_entries=True):
    D = np.hstack([rng.uniform(-1, 1, (m2, n_base)), np.eye(m2), -np.eye(m2)])
    n2 = n_base + 2 * m2
    d = np.concatenate([rng.uniform(0.3, 1.0, n_base), np.full(2 * m2, 3.0)])
    C = rng.uniform(-0.6, 0.6, (m2, n1))
    entries = []
    if seed_entries:
        entries = [RandomEntry("rhs", 0, dist=Discrete((0.1, 0.5, 0.9), (0.3, 0.4, 0.3)))]
    return TwoStageProblem(
        Q=np.eye(n1), c=np.zeros(n1), A=np.ones((1, n1)), b=[1.0],
        D=D, d=d, xi=rng.normal(scale=0.3, size=m2), C=C,
        P=np.diag(rng.uniform(0.8, 1.6, n2)) if quadratic else None,
        stochastic_map=entries,
    )


def random_problem(seed, tech, quadratic=False):
    """Complete-recourse LP (or QP with a dense SPD P) with random rhs marginals and, if
    ``tech``, random C entries."""
    rng = np.random.default_rng(seed)
    n1, m2 = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    base = complete_recourse_problem(rng, n1=n1, m2=m2, n_base=int(rng.integers(1, 4)),
                                     seed_entries=False)
    entries = [RandomEntry("rhs", row, dist=Uniform(-1.0, 1.0)) for row in range(m2)]
    if tech:
        for _ in range(int(rng.integers(1, 3))):
            r, c_ = int(rng.integers(m2)), int(rng.integers(n1))
            entries.append(RandomEntry("tech", r, c_, dist=Discrete((-0.5, 0.2, 0.7), (0.3, 0.3, 0.4))))
    P = None
    if quadratic:
        U, _ = np.linalg.qr(rng.normal(size=(base.d.size,) * 2))
        P = U @ np.diag(rng.uniform(0.5, 2.0, base.d.size)) @ U.T
    return TwoStageProblem(Q=base.Q, c=rng.normal(size=n1), A=base.A, b=base.b, D=base.D,
                           d=base.d, xi=base.xi, C=base.C, P=P, stochastic_map=entries)


def per_scenario_sum(p, scenarios, x):
    """c(x) + sum_i w_i h_i and Qx + c + sum_i w_i v_i from one solve_recourse per scenario."""
    value, g = p.first_stage_cost(x), p.Q @ x + p.c
    for s in scenarios:
        sol = solve_recourse(p, s, x)
        assert sol.status == "optimal"
        value += s.weight * sol.h
        g = g + s.weight * (-s.C.T @ sol.pi)
    return value, g


class TestLpRecourse:
    def test_scalar_analytic(self):
        p = lp_problem()
        s = Scenario(xi=np.array([2.0]), C=np.array([[1.0]]), weight=1.0)
        h, v = scenario_subgrad(p, np.array([1.0]), s)
        assert h == pytest.approx(1.0)
        np.testing.assert_allclose(v, [-1.0])

    def test_infeasible_rhs(self):
        p = lp_problem()
        s = Scenario(xi=np.array([-1.0]), C=np.array([[0.0]]), weight=1.0)
        sol = solve_recourse(p, s, np.array([1.0]))
        assert sol.status == "infeasible"
        with pytest.raises(RecourseInfeasible):
            scenario_subgrad(p, np.array([1.0]), s)

    def test_zero_technology_matrix(self):
        p = lp_problem(C=[[0.0]])
        s = Scenario(xi=np.array([2.0]), C=np.array([[0.0]]), weight=1.0)
        _, v = scenario_subgrad(p, np.array([1.0]), s)
        np.testing.assert_allclose(v, [0.0])

    def test_subgradient_inequality_random(self):
        rng = np.random.default_rng(2)
        p = complete_recourse_problem(rng)
        scen = draw_scenarios(p, substream(0, "sample"), 5)
        for s in scen:
            for _ in range(20):
                x = rng.normal(size=p.n1)
                x2 = rng.normal(size=p.n1)
                h, v = scenario_subgrad(p, x, s)
                h2, _ = scenario_subgrad(p, x2, s)
                assert h2 >= h + v @ (x2 - x) - 1e-8


class TestQpRecourse:
    def test_scalar_analytic(self):
        p = lp_problem(d=[0.0], xi=[1.0], P=[[1.0]])
        s = Scenario(xi=np.array([1.0]), C=np.array([[1.0]]), weight=1.0)
        sol = solve_recourse(p, s, np.array([0.0]))
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.y, [1.0], atol=1e-9)
        assert sol.h == pytest.approx(0.5)
        np.testing.assert_allclose(sol.pi, [1.0], atol=1e-9)
        h, g = scenario_subgrad(p, np.array([0.0]), s)
        assert h == pytest.approx(0.5)
        np.testing.assert_allclose(g, [-1.0], atol=1e-9)

    def test_subgradient_inequality_random(self):
        rng = np.random.default_rng(3)
        p = complete_recourse_problem(rng, quadratic=True)
        scen = draw_scenarios(p, substream(1, "sample"), 3)
        for s in scen:
            for _ in range(20):
                x = rng.normal(size=p.n1)
                x2 = rng.normal(size=p.n1)
                h, v = scenario_subgrad(p, x, s)
                h2, _ = scenario_subgrad(p, x2, s)
                assert h2 >= h + v @ (x2 - x) - 1e-8


class TestClosedFormDual:
    def test_value_at_primal_multipliers(self):
        rng = np.random.default_rng(5)
        checked = 0
        p = complete_recourse_problem(rng, quadratic=True)
        scen = draw_scenarios(p, substream(2, "sample"), 10)
        for s in scen:
            x = rng.normal(size=p.n1)
            sol = solve_recourse(p, s, x)
            assert sol.status == "optimal"
            dv = closed_form_dual_value(p, s, x, sol.mu)
            assert abs(dv - sol.h) <= 1e-6 * (1.0 + abs(sol.h))
            checked += 1
        assert checked == 10

    def test_projected_stationary_point_when_well_posed(self):
        # scalar case: the projected stationary point is the true maximizer
        p = lp_problem(d=[0.0], xi=[1.0], P=[[1.0]])
        s = Scenario(xi=np.array([1.0]), C=np.array([[1.0]]), weight=1.0)
        x = np.array([0.0])
        s_star, well_posed = closed_form_multiplier(p, s, x)
        assert well_posed
        sol = solve_recourse(p, s, x)
        assert closed_form_dual_value(p, s, x, s_star) == pytest.approx(sol.h, abs=1e-9)

    def test_ill_posed_cases_are_flagged_or_agree(self):
        rng = np.random.default_rng(6)
        p = complete_recourse_problem(rng, quadratic=True)
        scen = draw_scenarios(p, substream(3, "sample"), 10)
        agreements = 0
        for s in scen:
            x = rng.normal(size=p.n1)
            s_star, well_posed = closed_form_multiplier(p, s, x)
            if well_posed:
                sol = solve_recourse(p, s, x)
                assert abs(closed_form_dual_value(p, s, x, s_star) - sol.h) <= 1e-6 * (1 + abs(sol.h))
                agreements += 1
        # at minimum the check must never mislabel; agreement count is informational


class TestSaaFunction:
    def test_single_scenario_reduces(self):
        p = lp_problem()
        S = ScenarioSet([[2.0]], [[[1.0]]], [1.0])
        F, s = SaaFunction(p, S), S[0]
        x = np.array([1.0])
        h, v = scenario_subgrad(p, x, s)
        assert F.value(x) == pytest.approx(p.first_stage_cost(x) + h)
        np.testing.assert_allclose(F.subgrad(x), p.Q @ x + p.c + v)

    def test_affine_region_constant_subgradient(self):
        p = lp_problem(Q=np.zeros((1, 1)), c=[0.5])
        F = SaaFunction(p, ScenarioSet([[5.0]], [[[1.0]]], [1.0]))
        g1 = F.subgrad(np.array([0.5]))
        g2 = F.subgrad(np.array([0.8]))
        np.testing.assert_allclose(g1, g2)

    def test_full_support_matches_true_objective(self):
        rng = np.random.default_rng(7)
        p = complete_recourse_problem(rng)
        sup = enumerate_support(p)
        F = SaaFunction(p, sup)
        for _ in range(5):
            x = rng.normal(size=p.n1)
            assert abs(F.value(x) - true_objective(p, sup, x)) <= 1e-10 * (1 + abs(F.value(x)))

    def test_infeasible_scenario_reported_with_index(self):
        p = lp_problem()
        F = SaaFunction(p, ScenarioSet([[2.0], [-5.0]], [[[1.0]], [[0.0]]], [0.5, 0.5]))
        with pytest.raises(RecourseInfeasible) as err:
            F.value(np.array([1.0]))
        assert err.value.scenario_index == 1

    def test_unbounded_recourse_reported_with_index(self):
        # min -y1 s.t. y1 - y2 = rhs, y >= 0: y1 grows without bound for any rhs
        p = lp_problem(D=[[1.0, -1.0]], d=[-1.0, 0.0])
        S = ScenarioSet([[2.0], [3.0]], [[[1.0]], [[1.0]]], [0.5, 0.5])
        with pytest.raises(RecourseInfeasible, match=r"unbounded below \(scenario 0\)") as err:
            SaaFunction(p, S).value(np.array([1.0]))
        assert err.value.scenario_index == 0

    def test_infeasible_merged_draw_reported_with_its_first_position(self):
        # xi = 0 leaves Dy = -1 with y >= 0: the draws merge into rows
        # (xi = 5, xi = 0), and the second row first appears at draw 3.
        p = lp_problem(stochastic_map=[RandomEntry("rhs", 0, dist=Discrete((0.0, 5.0), (0.5, 0.5)))])
        S = draw_scenarios(p, substream(11, "sample"), 8)
        assert S.xi[:, 0].tolist() == [5.0, 5.0, 5.0, 0.0, 5.0, 0.0, 0.0, 5.0]
        F = SaaFunction(p, S)
        assert len(F.scenarios) == 2
        with pytest.raises(RecourseInfeasible) as err:
            F.value(np.array([1.0]))
        assert err.value.scenario_index == 3

    def test_monotone_concentration_median(self):
        rng = np.random.default_rng(9)
        p = complete_recourse_problem(rng)
        sup = enumerate_support(p)
        x = np.array([0.4, 0.3, 0.3])
        exact = true_objective(p, sup, x)
        sizes = (8, 16, 32)
        med = []
        for n in sizes:
            errs = []
            for seed in range(50):
                scen = draw_scenarios(p, substream(seed, "sample"), n)
                errs.append(abs(SaaFunction(p, scen).value(x) - exact))
            med.append(np.median(errs))
        assert med[0] >= med[1] >= med[2]


def assert_matches_per_scenario_solves(seed, tech, quadratic):
    p = random_problem(seed, tech, quadratic)
    rng = np.random.default_rng(seed + 1)
    n = int(rng.integers(4, 40))
    F = SaaFunction(p, draw_scenarios(p, substream(seed, "grow", 0), n))
    # A second set sharing the screen pool starts from the first one's cells.
    T = F.sibling(draw_scenarios(p, substream(seed, "test_set", 0), n))
    x0 = rng.normal(size=p.n1)
    # Nearby points reuse the cells of x0; distant ones reach new cells.
    for x in (x0, x0 + 1e-3 * rng.normal(size=p.n1), rng.normal(size=p.n1), rng.normal(size=p.n1)):
        for G in (F, T):
            want_f, want_g = per_scenario_sum(p, G.scenarios, x)
            np.testing.assert_allclose(G.value(x), want_f, rtol=1e-10)
            np.testing.assert_allclose(G.subgrad(x), want_g, rtol=1e-10, atol=1e-12)


def assert_grown_sibling_matches_fresh_set(seed, tech, quadratic):
    """A sample grown the way ``ScsSolver.fit`` grows it: a sibling over the draws
    so far and the new ones, built after the old oracle cached points."""
    p = random_problem(seed, tech, quadratic)
    rng = np.random.default_rng(seed + 2)
    first = draw_scenarios(p, substream(seed, "grow", 0), int(rng.integers(1, 20)))
    more = draw_scenarios(p, substream(seed, "grow", 1), int(rng.integers(1, 20)))
    old = SaaFunction(p, first)
    xs = [rng.normal(size=p.n1) for _ in range(3)]
    for x in xs:
        old.value_and_subgrad(x)
    F = old.sibling(_joined(first, more))
    n = len(first) + len(more)
    fresh = SaaFunction(p, ScenarioSet(
        np.concatenate([first.xi, more.xi]), np.concatenate([first.C, more.C]),
        np.full(n, 1.0 / n)))
    assert len(F) == n and np.all(F.scenarios.weights == 1.0 / n)
    for x in xs + [rng.normal(size=p.n1)]:
        f, g = F.value_and_subgrad(x)
        f_fresh, g_fresh = fresh.value_and_subgrad(x)
        np.testing.assert_allclose(f, f_fresh, rtol=1e-10)
        np.testing.assert_allclose(g, g_fresh, rtol=1e-10, atol=1e-12)


class TestSaaDifferential:
    """The batched, array-backed oracle against one scalar recourse solve per scenario."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.booleans())
    def test_matches_per_scenario_solves(self, seed, tech):
        assert_matches_per_scenario_solves(seed, tech, quadratic=False)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000), st.booleans())
    def test_grown_sibling_after_cached_evaluations_matches_fresh_set(self, seed, tech):
        assert_grown_sibling_matches_fresh_set(seed, tech, quadratic=False)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.booleans())
    def test_qp_matches_per_scenario_solves(self, seed, tech):
        assert_matches_per_scenario_solves(seed, tech, quadratic=True)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000), st.booleans())
    def test_qp_grown_sibling_after_cached_evaluations_matches_fresh_set(self, seed, tech):
        assert_grown_sibling_matches_fresh_set(seed, tech, quadratic=True)

    @pytest.mark.parametrize("quadratic", [False, True])
    def test_nearby_point_needs_no_scalar_solve(self, monkeypatch, quadratic):
        p = random_problem(21, tech=True, quadratic=quadratic)
        F = SaaFunction(p, draw_scenarios(p, substream(5, "sample"), 30))
        x = np.random.default_rng(5).normal(size=p.n1)
        calls = []
        monkeypatch.setattr("scsopt.oracle.solve_recourse",
                            lambda *a, **kw: calls.append(1) or solve_recourse(*a, **kw))
        F.value_and_subgrad(x)
        first = len(calls)
        assert 0 < first < 30  # each solve pools a cell that settles later scenarios
        F.value_and_subgrad(x + 1e-6)
        assert len(calls) == first

    def test_rank_deficient_working_set_is_not_pooled(self):
        p = random_problem(33, tech=True, quadratic=True)
        S = draw_scenarios(p, substream(6, "sample"), 12)
        # xi = 0 and C = 0 give r = 0 at every x: y = 0 with every bound
        # active, so D_F has no columns and the KKT matrix is singular.
        xi, C = S.xi.copy(), S.C.copy()
        xi[3], C[3] = 0.0, 0.0
        S = ScenarioSet(xi, C, S.weights)
        F = SaaFunction(p, S)
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=p.n1)
        for x in (x0, x0 + 1e-3, rng.normal(size=p.n1)):
            want_f, want_g = per_scenario_sum(p, S, x)
            np.testing.assert_allclose(F.value(x), want_f, rtol=1e-10)
            np.testing.assert_allclose(F.subgrad(x), want_g, rtol=1e-10, atol=1e-12)
        # The empty free set is remembered but not stacked; others are.
        assert F._cells["tried"][()] is False
        assert F._cells["n"] == sum(F._cells["tried"].values()) > 0

    @pytest.mark.parametrize("first_xi, want_v", [(1.0, -1.0), (-1.0, 1.0)])
    def test_first_cell_in_discovery_order_settles(self, monkeypatch, first_xi, want_v):
        # h(r) = |r|: basis {0} (pi = +1) solves r >= 0 and basis {1}
        # (pi = -1) solves r <= 0, so both settle r = 0 and only the order
        # in which they were pooled decides v = -C'pi.
        p = lp_problem(D=[[1.0, -1.0]], d=[1.0, 1.0], C=[[1.0]], xi=[0.0])
        x = np.zeros(1)
        F = SaaFunction(p, ScenarioSet([[first_xi], [-first_xi]], [[[1.0]], [[1.0]]], [0.5, 0.5]))
        F.value(x)
        assert F._cells["stack"][1].tolist() == [[first_xi], [-first_xi]]
        monkeypatch.setattr("scsopt.oracle.solve_recourse", None)  # the screen must settle it
        T = F.sibling(ScenarioSet([[0.0]], [[[1.0]]], [1.0]))
        assert T.value(x) == 0.0
        np.testing.assert_array_equal(T.subgrad(x), [want_v])

    # Instances whose LP has fewer than 15 dual-feasible bases (seeds 87-621)
    # or whose table needs more than 60 points (seed 522 with a random C entry).
    @example(seed=87, tech=False, quadratic=False)
    @example(seed=198, tech=False, quadratic=False)
    @example(seed=249, tech=False, quadratic=False)
    @example(seed=295, tech=False, quadratic=False)
    @example(seed=440, tech=False, quadratic=False)
    @example(seed=468, tech=False, quadratic=False)
    @example(seed=621, tech=False, quadratic=False)
    @example(seed=522, tech=True, quadratic=False)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000), tech=st.booleans(), quadratic=st.booleans())
    def test_many_cells_few_rows(self, seed, tech, quadratic):
        # The LandS regime: a table of 15 or more cells screening a few rows.
        # Distant points grow it, so cells join in the middle of fills, and
        # every evaluation is checked against one solve per scenario.  An LP
        # table holds at most the dual-feasible bases of (d, D), and some
        # instances have fewer than 15 (seed 295 has 11): once 30 points in a
        # row add no cell, the next instance from the same stream takes over.
        rng = np.random.default_rng(seed)

        def check(G, x):
            want_f, want_g = per_scenario_sum(p, G.scenarios, x)
            np.testing.assert_allclose(G.value(x), want_f, rtol=1e-10)
            np.testing.assert_allclose(G.subgrad(x), want_g, rtol=1e-10, atol=1e-12)

        for _ in range(3):
            base = complete_recourse_problem(rng, n1=3, m2=4, n_base=4, quadratic=quadratic,
                                             seed_entries=False)
            entries = [RandomEntry("rhs", row, dist=Uniform(-1.0, 1.0)) for row in range(4)]
            if tech:
                entries.append(RandomEntry("tech", int(rng.integers(4)), int(rng.integers(3)),
                                           dist=Discrete((-0.5, 0.2, 0.7), (0.3, 0.3, 0.4))))
            p = TwoStageProblem(Q=base.Q, c=base.c, A=base.A, b=base.b, D=base.D, d=base.d,
                                xi=base.xi, C=base.C, P=base.P, stochastic_map=entries)
            F = SaaFunction(p, draw_scenarios(p, substream(seed, "grow", 0), 30))
            T = F.sibling(draw_scenarios(p, substream(seed, "test_set", 0), 6))
            idle = 0
            while F._cells["n"] < 15 and idle < 30:
                cells = F._cells["n"]
                check(F, 3.0 * rng.normal(size=p.n1))
                idle = 0 if F._cells["n"] > cells else idle + 1
            if F._cells["n"] >= 15:
                break
        assert F._cells["n"] >= 15
        x0 = rng.normal(size=p.n1)
        for x in (x0, x0 + 1e-3 * rng.normal(size=p.n1), 3.0 * rng.normal(size=p.n1)):
            check(T, x)
            check(F, x)

    def test_sums_run_in_scenario_order(self):
        p = random_problem(11, tech=True)
        scen = draw_scenarios(p, substream(4, "sample"), 5000)
        F = SaaFunction(p, scen)
        x = np.random.default_rng(4).normal(size=p.n1)
        rows = F._solutions(x)
        h = np.array([rows[i][0] for i in range(len(scen))])
        g = p.Q @ x + p.c
        for i in range(len(scen)):
            g = g + scen.weights[i] * rows[i][1:]
        assert F.value(x) == p.first_stage_cost(x) + float(scen.weights @ h)
        assert F.subgrad(x).tobytes() == g.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), quadratic=st.booleans(), tech=st.booleans(),
       size=st.sampled_from([(2, 3), (3, 4), (4, 8), (16, 2)]))
def test_table_grown_in_place_screens_as_the_restacking_reference(seed, quadratic, tech, size):
    """Every screen of the table that grows in place gives the bytes (hit, h, pi) of
    the re-stacking reference over the cells pooled so far, and the table's views of
    those cells are their ``np.stack``, in a table that starts with room for one
    cell and so doubles at its second, third and fifth.
    Sizes (4, 8) and (16, 2) make products of 16 or more terms, whose rounding
    depends on the product's shape.  Rows with r = 0 or a multiple of a unit vector
    at x = 0 are solved by several LP cells: the first pooled must settle them."""
    m2, n_base = size
    p = make_two_stage(seed, n1=3, m1=1, m2=m2, n_base=n_base, quadratic=quadratic,
                       rhs_random=2, tech_random=int(tech), support_k=(3,))
    drawn = draw_scenarios(p, substream(seed, "sample"), 30)
    unit = np.eye(m2)
    xi = np.concatenate([drawn.xi, [np.zeros(m2), 0.5 * unit[0], -0.5 * unit[-1]]])
    C = np.concatenate([drawn.C, np.repeat(p.C[None], 3, axis=0)])
    S = ScenarioSet(xi, C, np.full(len(xi), 1.0 / len(xi)))
    reference, screens, shared = RestackingTable(), [0], [0]
    make_cell = "_qp_cell" if quadratic else "_lp_cell"
    real_cell, real_screen = getattr(SaaFunction, make_cell), SaaFunction._screen

    def pooled(self, free):
        cell = real_cell(self, free)
        reference.pool(cell)
        return cell

    def checked(self, R, start):
        got = real_screen(self, R, start)
        want = reference.screen(self.problem, R, start)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for view, stacked in zip(self._cells["stack"], reference.stack):
            assert view.shape == stacked.shape and view.tobytes() == stacked.tobytes()
        screens[0] += 1
        shared[0] += int((reference.ok.sum(axis=0) >= 2).sum())
        return got

    rng = np.random.default_rng(seed)
    with mock.patch.object(oracle, "_FIRST_CAPACITY", 1), \
            mock.patch.object(SaaFunction, make_cell, pooled), \
            mock.patch.object(SaaFunction, "_screen", checked):
        F = SaaFunction(p, S)
        for _ in range(20):
            F.value_and_subgrad(3.0 * rng.normal(size=p.n1))
        F.sibling(S).value_and_subgrad(np.zeros(p.n1))
    assert F._cells["n"] >= 3  # two doublings
    assert screens[0] > 0 and (quadratic or shared[0] > 0)


def discrete_problem(seed, tech, quadratic):
    """``random_problem`` with a three-atom marginal in place of each uniform one, so
    every draw carries an atom index."""
    p = random_problem(seed, tech, quadratic)
    rng = np.random.default_rng(seed + 3)
    entries = [RandomEntry(e.kind, e.row, e.col, dist=Discrete(
        tuple(rng.uniform(-1.0, 1.0, 3)), (0.25, 0.25, 0.5))) if isinstance(e.dist, Uniform)
        else e for e in p.stochastic_map]
    return TwoStageProblem(Q=p.Q, c=p.c, A=p.A, b=p.b, D=p.D, d=p.d, xi=p.xi, C=p.C, P=p.P,
                           stochastic_map=entries)


def per_draw(S):
    """The same draws without their atom index: an oracle keeps one row per draw."""
    return ScenarioSet(S.xi, S.C, S.weights)


class TestMergedAtoms:
    """An oracle with one row per distinct atom against one with a row per draw."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000), st.booleans(), st.booleans())
    def test_matches_one_row_per_draw(self, seed, tech, quadratic):
        p = discrete_problem(seed, tech, quadratic)
        rng = np.random.default_rng(seed + 4)
        drawn = [draw_scenarios(p, substream(seed, "grow", 0), int(rng.integers(4, 40)))]
        S = drawn[0]
        F, ref = SaaFunction(p, S), SaaFunction(p, per_draw(S))
        pairs = [(F, ref)]
        xs = [rng.normal(size=p.n1) for _ in range(3)]

        def compare(x):
            for G, R in pairs:
                np.testing.assert_allclose(G.value(x), R.value(x), rtol=1e-12)
                np.testing.assert_allclose(G.subgrad(x), R.subgrad(x), rtol=1e-12, atol=1e-12)

        for k in (1, 2):
            for x in xs:  # rows cached at xs before each growth
                compare(x)
            drawn.append(draw_scenarios(p, substream(seed, "grow", k), int(rng.integers(1, 40))))
            S = _joined(S, drawn[-1])
            F, ref = F.sibling(S), ref.sibling(per_draw(S))
            test = draw_scenarios(p, substream(seed, "test_set", k), len(F))
            pairs += [(F, ref), (F.sibling(test), ref.sibling(per_draw(test)))]
        atoms = np.concatenate([D.atoms for D in drawn]).tolist()
        assert len(F) == len(ref) == len(ref.scenarios) == len(atoms)
        assert F.scenarios.atoms.tolist() == list(dict.fromkeys(atoms))
        pairs.append((F, SaaFunction(p, per_draw(S))))  # the grown oracle against a fresh one
        for x in xs + [rng.normal(size=p.n1)]:
            compare(x)

    def test_len_counts_draws_and_weights_count_them(self):
        p = discrete_problem(5, tech=True, quadratic=False)
        first, more = (draw_scenarios(p, substream(5, "grow", k), n) for k, n in ((0, 40), (1, 60)))
        F = SaaFunction(p, first)
        F.value(np.zeros(p.n1))
        F = F.sibling(_joined(first, more))
        atoms = first.atoms.tolist() + more.atoms.tolist()
        distinct = list(dict.fromkeys(atoms))
        assert len(F) == 100 and len(F.scenarios) == len(distinct) < 100
        assert F.scenarios.weights.tolist() == [atoms.count(a) / 100 for a in distinct]
        fresh = SaaFunction(p, per_draw(_joined(first, more)))
        for x in (np.zeros(p.n1), np.ones(p.n1)):
            np.testing.assert_allclose(F.value(x), fresh.value(x), rtol=1e-12)
            np.testing.assert_allclose(F.subgrad(x), fresh.subgrad(x), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["enumerated", "uniform"])
    def test_sets_without_repeats_are_used_as_given(self, kind):
        # An enumerated support (distinct indices) and uniform draws (no index)
        # keep their rows, and the sums are the per-row formula bit for bit.
        if kind == "enumerated":
            p = discrete_problem(9, tech=True, quadratic=False)
            S = enumerate_support(p)
        else:
            p = random_problem(9, tech=False)
            S = draw_scenarios(p, substream(9, "grow", 0), 50)
            assert S.atoms is None
        F = SaaFunction(p, S)
        assert F.scenarios is S and len(F) == len(S)
        x = np.random.default_rng(9).normal(size=p.n1)
        rows = F._solutions(x)
        g = p.Q @ x + p.c
        for i in range(len(S)):
            g = g + S.weights[i] * rows[i][1:]
        h = np.ascontiguousarray(rows[:, 0])
        assert F.value(x) == p.first_stage_cost(x) + float(S.weights @ h)
        assert F.subgrad(x).tobytes() == g.tobytes()


@pytest.mark.parametrize("quadratic", [False, True])
@pytest.mark.parametrize("tech", [False, True])
def test_pilot_kappa_matches_per_scenario_loop(quadratic, tech):
    p = random_problem(41, tech=tech, quadratic=quadratic)
    x0 = np.random.default_rng(41).normal(size=p.n1)
    pilot = draw_scenarios(p, substream(3, "pilot"), 32)
    L_hat = max(float(np.linalg.norm(p.Q @ x0 + p.c + scenario_subgrad(p, x0, s)[1]))
                for s in pilot)
    want = 4.0 * L_hat / 0.1
    assert want > 1.0  # not clamped
    got = ScsSolver(seed=3, delta0=0.1)._pilot_kappa(p, x0)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("quadratic", [False, True])
@given(seed=st.integers(0, 2**16), n=st.sampled_from([1, 7, 27, 256]))
@settings(max_examples=15, deadline=None)
def test_shared_technology_right_hand_sides_match_the_batched_path(quadratic, seed, n):
    """With every scenario sharing C, the one 2-D product r = xi - C_0 x gives the
    screened right-hand sides, and so the values h, of the batched per-scenario
    product bit for bit.  The subgradient rows take the shared -pi C_0 product by
    design and agree to rounding."""
    p = random_problem(seed, tech=False, quadratic=quadratic)
    S = draw_scenarios(p, substream(seed, "sample"), n)
    F, F_batched = SaaFunction(p, S), SaaFunction(p, S)
    assert F._shared_C
    F_batched._shared_C = False
    screened = {F: [], F_batched: []}
    for oracle in screened:
        def spy(R, start, oracle=oracle, screen=oracle._screen):
            screened[oracle].append(R.tobytes())
            return screen(R, start)
        oracle._screen = spy
    rng = np.random.default_rng(seed)
    for x in rng.normal(size=(4, p.n1)):
        rows, rows_batched = F._solutions(x), F_batched._solutions(x)
        assert rows[:, 0].tobytes() == rows_batched[:, 0].tobytes()
        np.testing.assert_allclose(rows[:, 1:], rows_batched[:, 1:], rtol=1e-14, atol=1e-14)
    assert screened[F] == screened[F_batched]


def covered(S, keep):
    """The draws of S whose atoms are in ``keep``, each weighted 1/n."""
    at = np.flatnonzero(np.isin(S.atoms, list(keep)))
    return ScenarioSet(S.xi[at], S.C[at], np.full(at.size, 1.0 / at.size), S.atoms[at])


def spied(monkeypatch):
    """Counts of ``_screen`` and ``solve_recourse`` calls from here on."""
    calls = {"screen": 0, "solve": 0}
    screen = SaaFunction._screen

    def counted_screen(self, R, start):
        calls["screen"] += 1
        return screen(self, R, start)

    def counted_solve(*args, **kw):
        calls["solve"] += 1
        return solve_recourse(*args, **kw)

    monkeypatch.setattr(SaaFunction, "_screen", counted_screen)
    monkeypatch.setattr("scsopt.oracle.solve_recourse", counted_solve)
    return calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), tech=st.booleans(), quadratic=st.booleans())
@example(seed=0, tech=True, quadratic=False)  # F_S's C varies; 7 of its 18 atoms share C_0
def test_siblings_gather_the_rows_the_family_settled_at_a_point(seed, tech, quadratic):
    """After F_S evaluates x, a sibling whose every atom has a row there reads
    F_S's rows: no screen and no scalar solve, whatever its number of rows and
    whether or not its draws share C.  An atom F_S lacks makes the sibling fill."""
    p = discrete_problem(seed, tech, quadratic)
    rng = np.random.default_rng(seed + 5)
    drawn = draw_scenarios(p, substream(seed, "grow", 0), int(rng.integers(20, 60)))
    lacking = int(drawn.atoms[0])  # an atom F_S never draws
    F = SaaFunction(p, covered(drawn, set(drawn.atoms.tolist()) - {lacking}))
    x = rng.normal(size=p.n1)
    F.value_and_subgrad(x)
    S, atoms = F.scenarios, F.scenarios.atoms.tolist()
    same_C = {a for a, C in zip(atoms, S.C) if (C == S.C[0]).all()}  # all atoms if F_S's C is shared
    test = draw_scenarios(p, substream(seed, "test_set", 0), 40)
    siblings = [covered(drawn, {atoms[-1]}), covered(drawn, same_C)]  # one row; C shared
    if set(test.atoms.tolist()) & set(atoms):
        siblings.append(covered(test, set(atoms)))  # a replication set's draws that F_S has
    with pytest.MonkeyPatch.context() as mp:
        calls = spied(mp)
        for sample in siblings:
            T = F.sibling(sample)
            f, g = T.value_and_subgrad(x)
            assert calls == {"screen": 0, "solve": 0}
            want = F._solutions(x)[[atoms.index(a) for a in T.scenarios.atoms.tolist()]]
            assert T._solutions(x).tobytes() == want.tobytes()
            want_f, want_g = per_scenario_sum(p, T.scenarios, x)
            np.testing.assert_allclose(f, want_f, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g, want_g, rtol=1e-12, atol=1e-12)
        F.sibling(covered(enumerate_support(p), set(atoms) | {lacking})).value(x)
        assert calls["screen"] + calls["solve"] > 0


@pytest.mark.parametrize("quadratic", [False, True])
def test_memoized_results_are_returned_as_copies_and_need_no_fill(quadratic, monkeypatch):
    p = discrete_problem(17, tech=True, quadratic=quadratic)
    F = SaaFunction(p, draw_scenarios(p, substream(17, "grow", 0), 30))
    x = np.random.default_rng(17).normal(size=p.n1)
    f, g = F.value_and_subgrad(x)
    want = g.copy()
    g[:] = np.nan
    F.subgrad(x)[:] = np.nan
    fills = []
    fill = SaaFunction._fill
    monkeypatch.setattr(SaaFunction, "_fill", lambda self, *a: fills.append(1) or fill(self, *a))
    assert F.value(x) == f
    assert F.subgrad(x).tobytes() == want.tobytes()
    assert F.value_and_subgrad(list(x))[1].tobytes() == want.tobytes()
    assert fills == []
    rows = F._solutions(x)
    assert rows.shape == (len(F.scenarios), 1 + p.n1)
    assert np.dot(F.scenarios.weights, rows[:, 0]) + p.first_stage_cost(x) == pytest.approx(f, rel=1e-14)


@pytest.mark.parametrize("m2, n1", [(2, 1), (1, 2), (2, 2)])
def test_scenario_shapes_are_checked_against_the_problem(m2, n1):
    # The problem has m2 = n1 = 1: a set with m2 columns of xi and m2 x n1 C
    # matrices is refused when the oracle is built, not in its first solve.
    S = ScenarioSet(np.ones((2, m2)), np.ones((2, m2, n1)), [0.5, 0.5])
    with pytest.raises(DimensionMismatch, match="not N x 1 x 1"):
        SaaFunction(lp_problem(), S)


def test_points_are_checked_for_length_and_finiteness():
    p = random_problem(3, tech=False)
    F = SaaFunction(p, draw_scenarios(p, substream(3, "grow", 0), 5))
    x = np.zeros(p.n1)
    with pytest.raises(DimensionMismatch):
        F.value(np.zeros(p.n1 + 1))
    for bad in (np.nan, np.inf, -np.inf):
        x[-1] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            F.subgrad(x)
    x[-1] = 0.5
    f, g = F.value_and_subgrad(x)
    assert F.value(list(x)) == f and F.subgrad(x[:, None]).tobytes() == g.tobytes()
