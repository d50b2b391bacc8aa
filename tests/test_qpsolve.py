import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from scsopt import simplex
from scsopt.qpsolve import kkt_holds, solve_qp
from scsopt.simplex import solve_lp_bounded


def brute_force_qp(H, g, A, b, lb):
    """Reference optimum by enumerating active sets of the lower bounds."""
    n = g.size
    m = A.shape[0]
    best, best_x = np.inf, None
    for mask in itertools.product([False, True], repeat=n):
        act = np.array(mask)
        idx_f = np.flatnonzero(~act)
        nf = idx_f.size
        K = np.zeros((nf + m, nf + m))
        K[:nf, :nf] = H[np.ix_(idx_f, idx_f)]
        if m:
            K[:nf, nf:] = -A[:, idx_f].T
            K[nf:, :nf] = A[:, idx_f]
        x = np.where(act, lb, 0.0)
        rhs = np.concatenate([
            -(g[idx_f] + H[np.ix_(idx_f, np.flatnonzero(act))] @ lb[act]),
            b - A[:, act] @ lb[act] if m else np.zeros(0),
        ])
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        x[idx_f] = sol[:nf]
        if m and np.abs(A @ x - b).max() > 1e-8:
            continue
        if np.any(x < lb - 1e-9):
            continue
        val = 0.5 * x @ H @ x + g @ x
        if val < best - 1e-12:
            best, best_x = val, x
    return best, best_x


def test_symmetric_kkt_hand_case():
    r = solve_qp(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), [2.0], lb=np.zeros(2))
    assert r.status == "optimal"
    np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-9)
    assert r.obj == pytest.approx(1.0)
    np.testing.assert_allclose(r.pi, [1.0], atol=1e-9)


def test_binding_bound_case():
    r = solve_qp(np.eye(2), np.array([0.0, 10.0]), np.array([[1.0, 1.0]]), [1.0], lb=np.zeros(2))
    assert r.status == "optimal"
    np.testing.assert_allclose(r.x, [1.0, 0.0], atol=1e-9)
    assert r.mu[1] == pytest.approx(9.0, abs=1e-8)


def test_interior_case_zero_multipliers():
    r = solve_qp(np.eye(2), np.array([-3.0, -4.0]), np.array([[1.0, 1.0]]), [5.0], lb=np.zeros(2))
    assert r.status == "optimal"
    np.testing.assert_allclose(r.mu, [0.0, 0.0], atol=1e-10)


def test_infeasible_region():
    r = solve_qp(np.eye(1), np.zeros(1), np.array([[1.0]]), [-1.0], lb=np.zeros(1))
    assert r.status == "infeasible"


def test_random_pd_against_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        L = rng.normal(size=(n, n))
        H = L @ L.T + 0.3 * np.eye(n)
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.2, 1.0, n)
        g = rng.normal(size=n)
        lb = np.zeros(n)
        r = solve_qp(H, g, A, b, lb=lb)
        ref, _ = brute_force_qp(H, g, A, b, lb)
        assert r.status == "optimal"
        assert r.obj == pytest.approx(ref, abs=1e-7 * (1 + abs(ref)))
        # KKT: stationarity, bound multipliers, complementarity
        stat = H @ r.x + g - A.T @ r.pi - r.mu
        assert np.abs(stat).max() <= 1e-8 * (1 + np.abs(g).max() + np.abs(H).max())
        assert r.mu.min() >= 0.0
        assert abs(r.mu @ (r.x - lb)) <= 1e-7


def test_feasible_start_matches_the_phase1_start():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        L = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        H = L @ L.T  # rank-deficient when L has fewer than n columns
        A = rng.normal(size=(m, n))
        start = rng.uniform(0.2, 1.0, n) * (rng.random(n) < 0.7)  # some starts sit on a bound
        b = A @ start
        g = rng.normal(size=n)
        lb = np.zeros(n)
        cold = solve_qp(H, g, A, b, lb=lb)
        with mock.patch.object(simplex, "solve_lp_bounded", wraps=simplex.solve_lp_bounded) as phase1:
            warm = solve_qp(H, g, A, b, lb=lb, start=start)
        assert phase1.call_count == 0
        assert warm.status == cold.status
        if cold.status != "optimal":
            continue
        assert abs(warm.obj - cold.obj) <= 1e-12 * max(1.0, abs(cold.obj))
        grad = H @ warm.x + g
        stat = grad - A.T @ warm.pi - warm.mu
        assert kkt_holds(A, b, lb, warm.x, ~warm.working_set, grad, stat, warm.mu)
        # a start off Ax = b, or one that keeps Ax = b below a bound, runs phase 1
        z = np.linalg.svd(A)[2][-1]  # A z = 0
        z = z if z.min() < 0.0 else -z
        i = int(np.argmin(start / np.where(z < 0.0, -z, np.inf)))
        below = start + (start[i] + 1e-6) / -z[i] * z
        for bad in (start + 1e-6 * A[0], below):
            res = solve_qp(H, g, A, b, lb=lb, start=bad)
            assert res.obj == cold.obj and np.array_equal(res.x, cold.x)


def test_semidefinite_lp_block():
    # H = 0 turns the QP into an LP; ray steps must still find the vertex.
    c = np.array([1.0, 2.0, 3.0])
    r = solve_qp(np.zeros((3, 3)), c, np.array([[1.0, 1.0, 1.0]]), [1.0], lb=np.zeros(3))
    assert r.status == "optimal"
    np.testing.assert_allclose(r.x, [1.0, 0.0, 0.0], atol=1e-9)


def test_mixed_quadratic_and_linear_blocks():
    H = np.zeros((3, 3))
    H[0, 0] = 2.0
    g = np.array([-2.0, 1.0, 1.0])
    A = np.array([[1.0, 1.0, -1.0]])
    r = solve_qp(H, g, A, [0.5], lb=np.array([-np.inf, 0.0, 0.0]))
    assert r.status == "optimal"
    assert r.obj == pytest.approx(-0.75, abs=1e-8)


def test_unbounded_detection():
    # min g'x with a free descent ray inside Ax=b
    r = solve_qp(np.zeros((2, 2)), np.array([1.0, -2.0]), np.array([[1.0, -1.0]]), [0.0],
                 lb=np.full(2, -np.inf))
    assert r.status == "unbounded"


def test_feasible_point_vertex():
    A = np.array([[1.0, 1.0, 1.0]])
    res, x = solve_lp_bounded(np.zeros(3), A, np.array([2.0]), np.zeros(3))
    assert x is not None
    assert np.abs(A @ x - 2.0).max() < 1e-9
    assert x.min() >= -1e-12
    # warm restart with the returned basis
    _, x2 = solve_lp_bounded(np.zeros(3), A, np.array([3.0]), np.zeros(3), basis=res.basis)
    assert np.abs(A @ x2 - 3.0).max() < 1e-9


def test_feasible_point_empty():
    res, x = solve_lp_bounded(np.zeros(2), np.array([[1.0, 1.0]]), np.array([-2.0]), np.zeros(2))
    assert x is None and res.status == "infeasible"


def test_a_failed_polish_keeps_the_loop_iterate(monkeypatch):
    """When the KKT re-solve on the final working set misses the tolerances,
    the result is the loop's iterate with multipliers from its face: optimal,
    feasible and within the KKT tolerances."""
    rng = np.random.default_rng(11)
    lstsq, polished = np.linalg.lstsq, []

    def off(K, rhs, rcond=None):
        sol, *rest = lstsq(K, rhs, rcond=rcond)
        polished.append(sol.size)
        return (sol + 1e-3, *rest)

    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        L = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        H = L @ L.T
        A = rng.normal(size=(m, n))
        b = A @ (rng.uniform(0.2, 1.0, n) * (rng.random(n) < 0.7))
        g = rng.normal(size=n)
        lb = np.zeros(n)
        want = solve_qp(H, g, A, b, lb=lb)
        if want.status != "optimal":
            continue
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "lstsq", off)
            res = solve_qp(H, g, A, b, lb=lb)
        assert polished and res.status == "optimal"
        assert np.abs(A @ res.x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())
        assert res.x.min() >= 0.0
        grad = H @ res.x + g
        stat = grad - A.T @ res.pi - res.mu
        assert kkt_holds(A, b, lb, res.x, ~res.working_set, grad, stat, res.mu)
        assert abs(res.obj - want.obj) <= 1e-9 * (1.0 + abs(want.obj))


def _fixed_point(f, t=0.0):
    """The float t with f(t) == t, by iterating f from t (a contraction here)."""
    while f(t) != t:
        t = f(t)
    return t


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(1, 6),
       st.sampled_from(["random", "stat", "bound", "rows", "mu"]), st.integers(-1, 1))
def test_kkt_holds_matches_the_reference_byte_for_byte(seed, m, n, edge, side):
    # Dropping the float and np.all wrappers changes no answer: random data,
    # no rows, an empty free set, -inf bounds, and one value exactly at a
    # tolerance (side 0) or one ulp either side of it.
    rng = np.random.default_rng(seed)
    A, x, grad = rng.normal(size=(m, n)), rng.normal(size=n), rng.normal(size=n)
    free = rng.random(n) < rng.uniform(0.0, 1.0)  # sometimes empty, sometimes all
    lb = np.where(rng.random(n) < 0.3, -np.inf, x - rng.uniform(-1e-9, 1.0, n))
    stat = np.where(free, 1e-10 * rng.normal(size=n), 0.0)
    mu = np.where(free, 0.0, rng.uniform(-1e-8, 1.0, n))
    nudge = lambda v: v if side == 0 else np.nextafter(v, side * np.inf)  # noqa: E731
    scale = 1.0 + np.abs(grad).max(initial=0.0)
    j = int(rng.integers(n))
    if edge == "stat" and free[j]:
        stat[j] = nudge(1e-9 * scale) * (1.0 if rng.random() < 0.5 else -1.0)
    elif edge == "bound" and free[j] and n > 1:
        x[j], lb[j] = 0.0, 0.0
        x[j] = nudge(-1e-9 * (1.0 + np.abs(x).max()))  # lb_j minus the tolerance, within the max
    b = A @ x + 1e-10 * rng.normal(size=m)
    if edge == "rows" and m > 0:
        A[:] = 0.0  # residual -b: put max|b| at 1e-8 (1 + max|b|)
        b[:] = 0.0
        b[0] = nudge(_fixed_point(lambda t: 1e-8 * (1.0 + t)))
    elif edge == "mu" and not free[j]:
        mu[j] = nudge(-1e-8 * scale)
    want = reference.kkt_holds(A, b, lb, x, free, grad, stat, mu)
    assert kkt_holds(A, b, lb, x, free, grad, stat, mu) is want
    assert kkt_holds(A, b, lb, x, np.flatnonzero(free), grad, stat, mu) is want
    # the projection's form: the residual given on F only, the multipliers on W only
    assert kkt_holds(A, b, lb, x, free, grad, stat[free], mu[~free]) is want
