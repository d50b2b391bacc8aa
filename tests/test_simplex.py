import numpy as np
import pytest
from scipy.optimize import linprog

from scsopt import simplex
from scsopt.simplex import solve_lp


def test_single_variable():
    r = solve_lp([1.0], [[1.0]], [1.0])
    assert r.status == "optimal"
    np.testing.assert_allclose(r.x, [1.0])
    np.testing.assert_allclose(r.pi, [1.0])
    assert r.obj == pytest.approx(1.0)


def test_infeasible():
    assert solve_lp([1.0], [[1.0]], [-1.0]).status == "infeasible"


def test_unbounded():
    # min -y1 with y1 - y2 = 0: y1 = y2 -> -y1 unbounded below
    r = solve_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert r.status == "unbounded"


def test_redundant_rows():
    A = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    r = solve_lp([1.0, 2.0, 3.0], A, [1.0, 2.0])
    assert r.status == "optimal"
    assert r.obj == pytest.approx(1.0)
    assert np.abs(A @ r.x - [1.0, 2.0]).max() < 1e-9


def _random_lp(rng):
    m = int(rng.integers(2, 6))
    n = int(rng.integers(m + 1, 10))
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.1, 2.0, size=n)
    c = rng.normal(size=n) + 1.5
    return c, A, b


def test_against_scipy_and_duality():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(120):
        c, A, b = _random_lp(rng)
        r = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:
            assert r.status == "unbounded"
            continue
        assert ref.status == 0 and r.status == "optimal"
        assert r.obj == pytest.approx(ref.fun, abs=1e-7 * (1 + abs(ref.fun)))
        # primal/dual agreement and complementary slackness
        assert abs(r.obj - r.pi @ b) <= 1e-7 * (1 + abs(r.obj))
        red = c - A.T @ r.pi
        assert red.min() >= -1e-7
        assert np.abs(red * r.x).max() <= 1e-7 * (1 + np.abs(c).max())
        assert r.x.min() >= -1e-9
        checked += 1
    assert checked > 80


def test_warm_start_after_rhs_change():
    rng = np.random.default_rng(5)
    D = np.hstack([rng.uniform(-1, 1, (3, 4)), np.eye(3), -np.eye(3)])
    d = np.concatenate([rng.uniform(0.4, 1.2, 4), np.full(6, 4.0)])
    base = solve_lp(d, D, rng.normal(size=3))
    assert base.status == "optimal"
    basis = base.basis
    for _ in range(50):
        rhs = rng.normal(scale=0.4, size=3)
        warm = solve_lp(d, D, rhs, basis=basis)
        cold = solve_lp(d, D, rhs)
        assert warm.status == cold.status == "optimal"
        assert warm.obj == pytest.approx(cold.obj, abs=1e-8 * (1 + abs(cold.obj)))
        assert (d - D.T @ warm.pi).min() >= -1e-7
        basis = warm.basis


def test_degenerate_lp_terminates():
    # Many ties in the ratio test; Bland fallback must keep this finite.
    n = 8
    A = np.vstack([np.ones(n), np.eye(n)[:3]])
    b = np.array([1.0, 0.0, 0.0, 0.0])
    c = -np.arange(1.0, n + 1.0)
    r = solve_lp(c, A, b)
    assert r.status == "optimal"
    assert r.x.min() >= -1e-9


def test_bad_warm_basis_falls_back():
    c = np.array([1.0, 1.0, 1.0])
    A = np.array([[1.0, 1.0, 0.0]])
    b = np.array([1.0])
    r = solve_lp(c, A, b, basis=np.array([77]))
    assert r.status == "optimal"


def test_warm_basis_for_another_cost_gives_the_cold_optimum():
    # A basis optimal for c is primal feasible for b; where it is not dual
    # feasible for the new cost, the warm start is refused and the cold
    # solve decides.
    rng = np.random.default_rng(9)
    refused = 0
    for _ in range(30):
        c, A, b = _random_lp(rng)
        first = solve_lp(c, A, b)
        c2 = c[::-1].copy()
        cold = solve_lp(c2, A, b)
        if first.status != "optimal" or cold.status != "optimal":
            continue
        refused += c2 @ first.x > cold.obj + 1e-6 * (1 + abs(cold.obj))
        warm = solve_lp(c2, A, b, basis=first.basis)
        assert warm.status == "optimal"
        assert warm.obj == pytest.approx(cold.obj, abs=1e-9 * (1 + abs(cold.obj)))
        assert (c2 - A.T @ warm.pi).min() >= -1e-7
    assert refused >= 5


@pytest.mark.parametrize("basis", [[2, 2], [0, 1]], ids=["repeated-index", "singular"])
def test_unusable_warm_basis_gives_the_cold_optimum(monkeypatch, basis):
    # Columns 0 and 1 are parallel, so the basis {0, 1} is singular.
    c = np.array([1.0, 3.0, 0.5, 2.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [2.0, 2.0, 0.0, 1.0]])
    b = np.array([1.0, 3.0])
    cold = solve_lp(c, A, b)
    warm_solve, tried = simplex._warm_solve, []
    monkeypatch.setattr(simplex, "_warm_solve", lambda *args: tried.append(warm_solve(*args)))
    got = solve_lp(c, A, b, basis=np.array(basis))
    assert tried == [None]
    assert got.status == cold.status == "optimal"
    np.testing.assert_array_equal(got.x, cold.x)
    assert got.obj == cold.obj
