from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from scsopt import linalg, qpsolve
from scsopt.exceptions import DimensionMismatch, InfeasibleRegion
from scsopt.linalg import null_space_basis, project_null, project_polyhedral


def test_one_row_null_space():
    Z = null_space_basis([[1.0, 1.0]])
    assert Z.shape == (2, 1)
    v = Z[:, 0]
    np.testing.assert_allclose(abs(v), np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12)


def test_full_column_rank_gives_a_zero_column_basis():
    basis = null_space_basis(np.eye(2))
    assert basis.shape == (2, 0)
    np.testing.assert_array_equal(project_null(basis, np.array([3.0, -4.0])), [0.0, 0.0])


def test_no_rows_give_the_identity_basis():
    # A first stage with bounds only: every direction is feasible.
    np.testing.assert_array_equal(null_space_basis(np.zeros((0, 3))), np.eye(3))
    with pytest.raises(DimensionMismatch):
        null_space_basis(np.zeros((2, 0)))


def test_random_full_row_rank_identities():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 6))
    Z = null_space_basis(A)
    assert Z.shape == (6, 3)
    assert np.abs(A @ Z).max() <= 1e-10 * (1.0 + np.abs(A).max())
    np.testing.assert_allclose(Z.T @ Z, np.eye(3), atol=1e-10)


def test_project_null_fixes_range_and_kills_complement():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(2, 5))
    basis = null_space_basis(A)
    w = basis @ rng.normal(size=basis.shape[1])
    np.testing.assert_allclose(project_null(basis, w), w, atol=1e-12)
    v_perp = A.T @ rng.normal(size=2)
    np.testing.assert_allclose(project_null(basis, v_perp), 0.0, atol=1e-10)


def test_project_null_hand_case():
    basis = null_space_basis([[1.0, 1.0]])
    np.testing.assert_allclose(project_null(basis, [2.0, 0.0]), [1.0, -1.0], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_projector_idempotent(seed):
    rng = np.random.default_rng(seed)
    m, n = 2, 5
    A = rng.normal(size=(m, n))
    basis = null_space_basis(A)
    v = rng.normal(size=n)
    once = project_null(basis, v)
    twice = project_null(basis, once)
    assert np.abs(once - twice).max() <= 1e-10
    # feasible-direction identity in its literal testable form
    assert np.abs(A @ once).max() <= 1e-10 * (1.0 + np.abs(A).max())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_orthogonal_decomposition(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 7))
    basis = null_space_basis(A)
    v = rng.normal(size=7)
    tangent = project_null(basis, v)
    w, *_ = np.linalg.lstsq(A.T, v - tangent, rcond=None)
    assert np.linalg.norm(v - tangent - A.T @ w) <= 1e-8


class TestProjectAffine:
    def test_feasible_point_fixed(self):
        A = np.array([[1.0, 2.0], [0.5, -1.0]])
        x = np.linalg.solve(A, np.array([1.0, 2.0]))
        np.testing.assert_allclose(project_polyhedral(A, [1.0, 2.0], None, x), x, atol=1e-12)

    def test_symmetry_case(self):
        np.testing.assert_allclose(
            project_polyhedral([[1.0, 1.0]], [2.0], None, [0.0, 0.0]), [1.0, 1.0], atol=1e-12)

    def test_optimality_via_orthogonality(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(2, 6))
        b = rng.normal(size=2)
        x = rng.normal(size=6)
        z = project_polyhedral(A, b, None, x)
        assert np.abs(A @ z - b).max() <= 1e-10 * (1.0 + np.abs(b).max())
        # residual must be orthogonal to null(A)
        Z = null_space_basis(A)
        assert np.abs(Z.T @ (z - x)).max() <= 1e-10

    def test_singular_system(self, monkeypatch):
        # Redundant consistent rows: AA' is singular, the projection is not,
        # and the face's SVD settles it without the QP.
        monkeypatch.setattr(qpsolve, "solve_qp", no_qp)
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(
            project_polyhedral(A, [1.0, 1.0], None, [0.0, 0.0]), [0.5, 0.5], atol=1e-12)

    def test_inconsistent_rows(self):
        with pytest.raises(InfeasibleRegion):
            project_polyhedral([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], None, [0.0, 0.0])


def assert_projection_kkt(A, b, x, z, lb=0.0):
    """z is the projection of x onto {Az = b, z >= lb}: feasible, and stationary
    with z - x = A' pi + mu, mu >= 0 supported on the active bounds."""
    m, n = A.shape
    lb = np.broadcast_to(lb, n)
    assert np.abs(A @ z - b).max() <= 1e-8 * (1.0 + np.abs(b).max())
    assert np.all(z - lb >= -1e-9)
    act = z - lb <= 1e-9
    cols = [A.T]
    for i in np.flatnonzero(act):
        e = np.zeros((n, 1))
        e[i, 0] = 1.0
        cols.append(e)
    M = np.hstack(cols)
    coef, *_ = np.linalg.lstsq(M, z - x, rcond=None)
    assert np.linalg.norm(M @ coef - (z - x)) <= 1e-7
    assert coef[m:].min(initial=0.0) >= -1e-7


def no_qp(*args, **kwargs):
    raise AssertionError("the cold QP ran")


def exact_affine_projection(A, b, x):
    """x - A'(AA')^{-1}(Ax - b) in exact rational arithmetic on the given floats, rounded once."""
    A = [[Fraction(a) for a in row] for row in A.tolist()]
    x = [Fraction(v) for v in x.tolist()]
    m = len(A)
    G = [[sum(p * q for p, q in zip(A[i], A[j])) for j in range(m)] for i in range(m)]
    y = [sum(p * q for p, q in zip(A[i], x)) - Fraction(b[i]) for i in range(m)]
    for k in range(m):  # Gauss-Jordan; AA' is positive definite, so no pivot is zero
        for i in range(m):
            if i != k:
                f = G[i][k] / G[k][k]
                G[i] = [gi - f * gk for gi, gk in zip(G[i], G[k])]
                y[i] -= f * y[k]
    lam = [y[i] / G[i][i] for i in range(m)]
    return np.array([float(x[j] - sum(A[i][j] * lam[i] for i in range(m))) for j in range(len(x))])


class TestProjectPolyhedral:
    def test_interior_point_fixed(self):
        A = np.array([[1.0, 1.0, 1.0]])
        x = np.array([1.0, 1.0, 1.0])
        z = project_polyhedral(A, [3.0], np.zeros(3), x)
        np.testing.assert_allclose(z, x, atol=1e-9)

    def test_two_variable_kkt_case(self):
        z = project_polyhedral([[1.0, 1.0]], [1.0], [0.0, 0.0], [2.0, -2.0])
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-8)

    def test_reduces_to_affine_without_bounds(self, monkeypatch):
        # No bound, so nothing is pinned: the first try is the affine projection
        # x - A'(AA')^{-1}(Ax - b), within 1e-14 cond(A) of its exact value
        # relative to 1 + |z|, for near-parallel rows with cond(A) in 1e2-1e6.
        monkeypatch.setattr(qpsolve, "solve_qp", no_qp)
        rng = np.random.default_rng(3)
        cases = 0
        while cases < 200:
            m = int(rng.integers(2, 4))
            A = rng.normal(size=(m, 6))
            A[1] = A[0] + 10.0 ** -rng.uniform(1.0, 6.5) * rng.normal(size=6)
            cond = np.linalg.cond(A)
            if not 1e2 <= cond <= 1e6:
                continue
            cases += 1
            b, x = rng.normal(size=m), rng.normal(size=6)
            z = project_polyhedral(A, b, None, x)
            np.testing.assert_array_equal(project_polyhedral(A, b, np.full(6, -np.inf), x), z)
            err = np.abs(z - exact_affine_projection(A, b, x)).max()
            assert err <= 1e-14 * cond * (1.0 + np.abs(z).max())

    def test_kkt_residual_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 5
            A = rng.normal(size=(2, n))
            interior = rng.uniform(0.2, 1.0, n)
            b = A @ interior
            x = rng.normal(size=n)
            z = project_polyhedral(A, b, np.zeros(n), x)
            assert_projection_kkt(A, b, x, z)

    def test_infeasible_region(self):
        with pytest.raises(InfeasibleRegion):
            project_polyhedral([[1.0, 1.0]], [-1.0], [0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_inf_and_nan_lower_bounds(self, bad):
        with pytest.raises(ValueError, match="finite or -inf"):
            project_polyhedral([[1.0, 1.0]], [1.0], [0.0, bad], [2.0, -2.0])

    @pytest.mark.parametrize("where", ["A", "b", "x"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, where, bad):
        data = {"A": np.array([[1.0, 1.0]]), "b": np.array([1.0]), "x": np.array([2.0, -2.0])}
        data[where].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{where} contains NaN or Inf"):
            project_polyhedral(data["A"], data["b"], [0.0, 0.0], data["x"])

    @pytest.mark.parametrize("where", ["b", "x", "lower_bounds"])
    def test_rejects_a_vector_of_the_wrong_length(self, where):
        data = {"b": [1.0], "x": [2.0, -2.0], "lower_bounds": [0.0, 0.0]}
        data[where] = data[where] + [0.0]
        with pytest.raises(DimensionMismatch, match=where):
            project_polyhedral([[1.0, 1.0]], data["b"], data["lower_bounds"], data["x"])

    def test_a_wrong_pin_is_released(self, monkeypatch):
        # The affine projection puts z_2 lowest, so it is pinned first; once
        # z_0 and z_1 are pinned too, its multiplier is negative: the pin goes.
        monkeypatch.setattr(qpsolve, "solve_qp", no_qp)
        z = project_polyhedral([[2.0, 2.0, -2.0, 1.0]], [1.0], np.zeros(4), [0.0, 0.0, -1.0, 2.0])
        np.testing.assert_allclose(z, [0.0, 0.0, 0.2, 1.4], atol=1e-12)

    def test_right_face_settles_without_the_qp(self, monkeypatch):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(2, 6))
        b = A @ rng.uniform(0.2, 1.0, 6)
        x = 2.0 * rng.normal(size=6)
        cold = qpsolve.solve_qp(np.eye(6), -x, A, b, lb=np.zeros(6)).x
        face = cold == 0.0
        assert face.any() and not face.all()
        monkeypatch.setattr(qpsolve, "solve_qp", no_qp)
        z = project_polyhedral(A, b, np.zeros(6), x)
        np.testing.assert_allclose(z, cold, rtol=0.0, atol=1e-12 * (1.0 + np.abs(cold).max()))


def projection_case(seed, case):
    """(A, b, lb, x) of one random projection of kind ``case``."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1 if case == "random" else 2, 4))
    n = m + int(rng.integers(1, 6))
    A = rng.normal(size=(m, n))
    x = rng.uniform(0.5, 3.0) * rng.normal(size=n)
    if case == "redundant":
        # A repeated row: every face has a redundant row, which the face's
        # SVD drops by its rank instead of handing the face to the QP.
        A[m - 1] = A[0]
    elif case == "ill_face":
        # Two rows that differ only in columns p and q, with opposite signs:
        # A has full row rank, but pinning both p and q, as their negative
        # x invites, leaves a singular face.  Two rows keep every other
        # face well conditioned, so both paths stay within rounding.
        A = A[:2]
        p, q = rng.choice(n, 2, replace=False)
        A[1] = A[0]
        A[1, [p, q]] += rng.uniform(1.0, 2.0, 2) * [1.0, -1.0]
        x[[p, q]] = -np.abs(x[[p, q]])
    b = A @ rng.uniform(0.2, 1.0, n)
    lb = np.full(n, -np.inf) if case == "no_bounds" else np.zeros(n)
    return A, b, lb, x


PROJECTION_CASES = ["random", "redundant", "ill_face", "no_bounds"]
# Cases whose face loop releases a pin after the first try fails.
RELEASING = [(1000115, "random"), (43, "random"), (5, "redundant"), (28, "ill_face")]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PROJECTION_CASES))
@example(*RELEASING[0])  # four pins, then one must be released
def test_warm_projection_matches_cold(seed, case):
    # The face loop changes how the projection is found, never what it is.
    A, b, lb, x = projection_case(seed, case)
    cold = qpsolve.solve_qp(np.eye(x.size), -x, A, b, lb=lb).x
    z = project_polyhedral(A, b, lb, x)
    assert np.abs(z - cold).max() <= 1e-12 * (1.0 + np.abs(cold).max())
    assert_projection_kkt(A, b, x, z, lb)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PROJECTION_CASES))
@example(*RELEASING[0])
@example(*RELEASING[1])
@example(*RELEASING[2])
@example(*RELEASING[3])
def test_projection_matches_the_reference_loop_byte_for_byte(seed, case):
    # The lean loop (first try on A and b, z - x once, multipliers split by
    # F and W) computes what the loop that rebuilt every try computed.
    A, b, lb, x = projection_case(seed, case)
    want = reference.project_polyhedral(A, b, lb, x)
    got = project_polyhedral(A, b, None if case == "no_bounds" else lb, x)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, case", RELEASING)
def test_the_releasing_cases_release_a_pin(seed, case):
    released = []
    reference.project_polyhedral(*projection_case(seed, case), released=released)
    assert released


# -- the face memo --------------------------------------------------------------

def _memo_cases():
    rng = np.random.default_rng(23)
    deficient = rng.normal(size=(3, 2)) @ rng.normal(size=(2, 6))  # rank 2
    return {"random": rng.normal(size=(3, 5)), "rank_deficient": deficient,
            "wide": rng.normal(size=(2, 7)), "tall": rng.normal(size=(6, 3)),
            "no_rows": np.zeros((0, 4))}


@pytest.mark.parametrize("case", ["random", "rank_deficient", "wide", "tall", "no_rows"])
def test_a_memoized_face_is_a_fresh_svd(case):
    M = _memo_cases()[case]
    linalg._faces.clear()
    first = linalg._face(M)
    again = linalg._face(M.copy())
    fresh = linalg._factor(M.copy())
    assert again is first and len(linalg._faces) == 1
    assert again.Z.tobytes() == fresh.Z.tobytes() and again.Z.shape == fresh.Z.shape
    assert again.pinv.tobytes() == fresh.pinv.tobytes() and again.pinv.shape == fresh.pinv.shape
    assert again.cond == fresh.cond


def test_the_memo_is_read_only_and_bases_are_copies():
    A = _memo_cases()["random"]
    linalg._faces.clear()
    face = linalg._face(A)
    for arr in (face.Z, face.pinv):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    Z = null_space_basis(A)
    assert Z.flags.writeable and not np.shares_memory(Z, face.Z)
    Z[:] = 0.0
    assert np.abs(linalg._face(A).Z).max() > 0.0


def test_the_memo_keeps_its_limit_and_drops_the_least_recent():
    rng = np.random.default_rng(29)
    linalg._faces.clear()
    faces = [rng.normal(size=(2, 4)) for _ in range(linalg._FACE_LIMIT + 5)]
    for i, M in enumerate(faces):
        linalg._face(M)
        linalg._face(faces[0])  # the first face stays recent
        assert len(linalg._faces) == min(i + 1, linalg._FACE_LIMIT)
    keys = {(M.shape, M.tobytes()) for M in faces}
    assert set(linalg._faces) <= keys and (faces[0].shape, faces[0].tobytes()) in linalg._faces
    assert (faces[1].shape, faces[1].tobytes()) not in linalg._faces


def test_qp_and_extensive_form_solves_add_no_face():
    # Recourse QPs and extensive-form masters factor their faces afresh:
    # only the first-stage start-point projection may enter the memo.
    from instances import make_two_stage
    from scsopt.model import enumerate_support, extensive_form, initial_feasible_point

    rng = np.random.default_rng(31)
    A = rng.normal(size=(2, 6))
    linalg._faces.clear()
    qpsolve.solve_qp(np.eye(6), rng.normal(size=6), A, A @ np.ones(6), lb=np.zeros(6))
    assert not linalg._faces
    for quadratic in (False, True):
        p = make_two_stage(seed=12, quadratic=quadratic)
        initial_feasible_point(p)
        held = set(linalg._faces)
        assert extensive_form(p, enumerate_support(p)).solve().status == "optimal"
        assert set(linalg._faces) == held
