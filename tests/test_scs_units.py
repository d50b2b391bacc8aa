import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from scsopt.exceptions import NonPositiveDelta
from scsopt.linalg import null_space_basis
from scsopt.scs import (
    acceptance_test,
    bundle_norm,
    conjugate_direction,
    hoeffding_bound,
    lambda_star,
    line_search,
    sample_size,
    step_cap,
)


class TestSampleSize:
    def test_paper_rule_value(self):
        assert sample_size(0.05, 1.0, 1.0, 0.5) == 473

    def test_quartic_scaling_exact(self):
        base = hoeffding_bound(0.05, 1.0, 1.0, 0.5)
        half = hoeffding_bound(0.05, 1.0, 1.0, 0.25)
        assert half == pytest.approx(16.0 * base, rel=1e-14)

    def test_clamps_to_at_least_one(self):
        assert sample_size(0.999, 1e-6, 10.0, 5.0) == 1

    def test_max_sample_clamp(self):
        assert sample_size(0.05, 1.0, 1.0, 0.5, max_sample=100) == 100

    def test_nonpositive_delta(self):
        with pytest.raises(NonPositiveDelta):
            sample_size(0.05, 1.0, 1.0, 0.0)

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            sample_size(1.5, 1.0, 1.0, 0.5)


class TestLambdaStar:
    def test_symmetric_pair(self):
        assert lambda_star([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)

    def test_zero_previous_direction(self):
        assert lambda_star([3.0, 0.0], [0.0, 0.0]) == 0.0

    def test_degenerate_constant_objective(self):
        g = np.array([2.0, -1.0])
        assert lambda_star(g, -g) == 0.0

    def test_grid_search_agreement(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, 1.0, 10_001)
        for _ in range(100):
            g = rng.normal(size=3)
            d = rng.normal(size=3)
            lam = lambda_star(g, d)
            vals = 0.5 * np.linalg.norm(
                np.outer(grid, -d) + np.outer(1.0 - grid, g), axis=1) ** 2
            best = grid[np.argmin(vals)]
            f_lam = 0.5 * np.linalg.norm(lam * (-d) + (1 - lam) * g) ** 2
            assert f_lam <= vals.min() + 1e-6
            assert abs(lam - best) <= 2e-4


class TestConjugateDirection:
    def test_first_iteration_is_projected_subgradient(self):
        g = np.array([2.0, -1.0])
        d, lam = conjugate_direction(g, np.zeros(2))
        np.testing.assert_allclose(d, -g)
        assert lam == 0.0

    def test_hand_case(self):
        d, lam = conjugate_direction(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(d, [-0.5, 0.5])
        assert lam == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_norm_and_inner_product_properties(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=4)
        d_prev = rng.normal(size=4)
        d, _ = conjugate_direction(g, d_prev)
        assert np.linalg.norm(d) <= np.linalg.norm(g) + 1e-12
        assert float(d @ g) <= -float(d @ d) + 1e-10


def _slsqp_bundle_norm(Z, G, active, rng):
    """Reference min ||Z'(G'lam - E_W mu)|| by SLSQP, best of three starts."""
    idx = sorted(active)
    M = np.hstack([Z.T @ G.T, -Z[idx].T])
    a = np.concatenate([np.ones(len(G)), np.zeros(len(idx))])
    best = np.inf
    for _ in range(3):
        v0 = np.concatenate([rng.dirichlet(np.ones(len(G))), rng.uniform(0.0, 1.0, len(idx))])
        res = minimize(lambda v: 0.5 * np.sum((M @ v) ** 2), v0, jac=lambda v: M.T @ (M @ v),
                       method="SLSQP", bounds=[(0.0, None)] * M.shape[1],
                       constraints=[{"type": "eq", "fun": lambda v: a @ v - 1.0,
                                     "jac": lambda v: a}],
                       options=dict(ftol=1e-14, maxiter=500))
        best = min(best, float(np.linalg.norm(M @ res.x)))
    return best


class TestBundleNorm:
    @staticmethod
    def free(n):
        return null_space_basis(np.zeros((1, n)))  # no equality rows: Z = I

    def test_zero_in_hull(self):
        assert bundle_norm(self.free(2), np.array([[1.0, 0.0], [-1.0, 0.0]]), frozenset()) == 0.0

    def test_single_row_is_its_projected_norm(self):
        Z = null_space_basis(np.array([[1.0, 1.0, 0.0]]))
        g = np.array([[2.0, 0.0, 1.0]])
        assert bundle_norm(Z, g, frozenset()) == pytest.approx(np.sqrt(3.0), rel=1e-14)

    def test_equality_normal_is_projected_away(self):
        Z = null_space_basis(np.array([[1.0, 1.0, 1.0]]))
        assert bundle_norm(Z, np.array([[1.0, 1.0, 1.0]]), frozenset()) <= 1e-14

    def test_zero_reached_only_through_nonnegative_bound_multipliers(self):
        # g = (1, 1) on the corner x >= 0: g - mu_0 e_0 - mu_1 e_1 = 0 at mu = (1, 1).
        G = np.array([[1.0, 1.0]])
        assert bundle_norm(self.free(2), G, frozenset({0, 1})) <= 1e-14
        assert bundle_norm(self.free(2), G, frozenset()) == pytest.approx(np.sqrt(2.0))
        assert bundle_norm(self.free(2), G, frozenset({0})) == pytest.approx(1.0)

    def test_negative_multiplier_needed_does_not_certify(self):
        # g = (-1, 0) points into the bound x_0 >= 0 from the wrong side: only
        # mu_0 = -1 would cancel it, so the distance stays 1.
        G = np.array([[-1.0, 0.0]])
        assert bundle_norm(self.free(2), G, frozenset({0})) == pytest.approx(1.0, rel=1e-14)
        G = np.array([[-1.0, 0.5], [-1.0, -0.5]])
        assert bundle_norm(self.free(2), G, frozenset({0})) == pytest.approx(1.0, rel=1e-14)

    def test_repeated_rows_change_nothing(self):
        G = np.array([[1.0, 2.0, -1.0], [-2.0, 0.5, 0.3]])
        Z = self.free(3)
        assert bundle_norm(Z, np.vstack([G, G, G[:1]]), frozenset({2})) == pytest.approx(
            bundle_norm(Z, G, frozenset({2})), abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), rows=st.integers(1, 7),
           with_bounds=st.booleans())
    def test_matches_slsqp(self, seed, n, rows, with_bounds):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, n))
        Z = null_space_basis(rng.normal(size=(m, n)) if m else np.zeros((1, n)))
        # a common shift puts the origin inside, near or far from the hull
        G = rng.normal(size=(rows, n)) + rng.uniform(0.0, 2.0) * rng.normal(size=n)
        if rows > 2 and rng.random() < 0.3:
            G[-1] = G[0]
        active = frozenset()
        if with_bounds:
            active = frozenset(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        got = bundle_norm(Z, G, active)
        ref = _slsqp_bundle_norm(Z, G, active, rng)
        assert got <= ref + 1e-8 * (1.0 + np.abs(G).max())
        assert got >= ref - 1e-6 * (1.0 + np.abs(G).max())


class TestStepCap:
    def test_no_bounds(self):
        d = np.array([3.0, 4.0])
        t = step_cap(np.zeros(2), d, 10.0, np.full(2, -np.inf), frozenset())
        assert t == pytest.approx(2.0)

    def test_ratio_test(self):
        t = step_cap(np.array([1.0, 1.0]), np.array([-1.0, 0.0]), 10.0, np.zeros(2), frozenset())
        assert t == pytest.approx(1.0)

    def test_zero_cap_on_bound(self):
        t = step_cap(np.array([0.0, 1.0]), np.array([-1.0, 0.0]), 10.0, np.zeros(2), frozenset())
        assert t == 0.0

    def test_active_bound_is_skipped(self):
        # x sits on bound 0 and d points out of it: with the bound active the
        # ratio test ignores it, and bound 1 sets the cap.
        x, d, lb = np.array([0.0, 2.0]), np.array([-1.0, -1.0]), np.zeros(2)
        t = step_cap(x, d, 10.0, lb, frozenset({0}))
        assert t == pytest.approx(2.0)

    @pytest.mark.parametrize("gap, blocked", [(0.5, True), (2.0, True), (3.0, False)])
    def test_bound_blocked_iff_bound_within_ball(self, gap, blocked):
        # ||d|| = 1 and delta = 2: the ball allows t = 2, bound 0 allows t = gap.
        x, d = np.array([gap, 0.0]), np.array([-1.0, 0.0])
        t = step_cap(x, d, 2.0, np.array([0.0, -np.inf]), frozenset())
        assert t == min(gap, 2.0)
        assert (t == gap) == blocked


class _Quadratic:
    """1-D analytic test function f(x) = 0.5 x'x."""

    def value(self, x):
        return 0.5 * float(x @ x)

    def value_and_subgrad(self, x):
        return self.value(x), np.asarray(x, dtype=float)


class _PiecewiseLinear:
    def __init__(self, planes, offsets):
        self.planes = planes
        self.offsets = offsets

    def value(self, x):
        return float(np.max(self.planes @ x + self.offsets))

    def value_and_subgrad(self, x):
        vals = self.planes @ x + self.offsets
        k = int(np.argmax(vals))
        return float(vals[k]), self.planes[k].copy()


class TestLineSearch:
    def test_analytic_interval(self):
        # f = x^2/2 from x=1 along d=-1: L = (0, 1.4], R = [0.6, 1)
        F = _Quadratic()
        res = line_search(F, np.eye(1), np.array([1.0]), np.array([-1.0]), 0.4, 0.3, 2.0)
        assert res.success
        assert 0.6 <= res.t < 1.0

    def test_cap_below_window_fails(self):
        F = _Quadratic()
        res = line_search(F, np.eye(1), np.array([1.0]), np.array([-1.0]), 0.4, 0.3, 0.5)
        assert not res.success
        assert res.reason == "max_bisections"

    def test_ascent_direction_no_descent(self):
        F = _Quadratic()
        res = line_search(F, np.eye(1), np.array([1.0]), np.array([1.0]), 0.4, 0.3, 2.0)
        assert not res.success
        assert res.reason == "no_descent"

    def test_boundary_acceptance_flag(self):
        F = _Quadratic()
        res = line_search(F, np.eye(1), np.array([1.0]), np.array([-1.0]), 0.4, 0.3, 0.5,
                          accept_boundary=True)
        assert res.success and res.boundary
        assert res.t == pytest.approx(0.5)

    def test_success_satisfies_both_conditions_on_random_pwl(self):
        rng = np.random.default_rng(12)
        successes = 0
        failures = 0
        for _ in range(100):
            k, n = 6, 3
            planes = rng.normal(size=(k, n))
            offsets = rng.normal(size=k)
            F = _PiecewiseLinear(planes, offsets)
            x = rng.normal(size=n)
            _, g = F.value_and_subgrad(x)
            d = -g
            dsq = float(d @ d)
            if dsq < 1e-12:
                continue
            res = line_search(F, np.eye(n), x, d, 0.4, 0.3, float(rng.uniform(0.5, 4.0)))
            if res.success:
                successes += 1
                f0 = F.value(x)
                ft, gt = F.value_and_subgrad(res.x_new)
                assert ft - f0 <= -0.3 * res.t * dsq + 1e-12
                gd = float(gt @ d)
                assert 0.0 > gd >= -0.4 * dsq - 1e-12
            else:
                failures += 1
        assert successes >= 15
        assert failures >= 1  # the fail route exists and is exercised


class _Fixed:
    def __init__(self, mapping):
        self.mapping = mapping

    def value(self, x):
        return self.mapping[float(np.asarray(x).ravel()[0])]


class TestAcceptanceTest:
    def test_candidate_equals_incumbent(self):
        F = _Fixed({0.0: 1.0})
        x = np.zeros(1)
        assert acceptance_test(F, F, x, x, eta1=2.0)

    def test_decrease_on_s_but_contradicted_on_t(self):
        F_S = _Fixed({0.0: 1.0, 1.0: 0.5})   # candidate looks better in-sample
        F_T = _Fixed({0.0: 1.0, 1.0: 1.4})   # held-out says worse, beyond the slack
        x_hat = np.zeros(1)
        x_cand = np.ones(1)
        assert not acceptance_test(F_S, F_T, x_cand, x_hat, 2.0)

    def test_full_support_reduces_to_monotone_decrease(self):
        F = _Fixed({0.0: 1.0, 1.0: 0.9})
        x_hat, x_cand = np.zeros(1), np.ones(1)
        assert acceptance_test(F, F, x_cand, x_hat, 2.0)
        F_up = _Fixed({0.0: 1.0, 1.0: 1.1})
        assert not acceptance_test(F_up, F_up, x_cand, x_hat, 2.0)
