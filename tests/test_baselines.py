import numpy as np
import pytest

from instances import make_two_stage, record_face_svds
from scsopt import linalg, oracle, qpsolve
from scsopt.baselines import SgdSolver, SmdSolver
from scsopt.model import TwoStageProblem, enumerate_support, initial_feasible_point
from scsopt.oracle import SaaFunction


def deterministic_qp():
    return TwoStageProblem(
        Q=np.eye(2), c=[-1.2, -1.6], A=[[1.0, 1.0]], b=[1.0],
        D=[[1.0]], d=[0.0], xi=[0.0], C=np.zeros((1, 2)),
    )


def test_fixed_point_at_optimum():
    # start the dynamics exactly at the optimum of the smooth instance:
    # the projected step returns the same point
    p = deterministic_qp()
    solver = SgdSolver(c=0.5, batch=1, iters=5, seed=0, record_wall_time=False)
    solver.fit(p)
    x_star = np.array([0.3, 0.7])
    g = p.Q @ x_star + p.c  # zero recourse contribution
    stepped = linalg.project_polyhedral(p.A, p.b, None, x_star - 0.5 * g)
    np.testing.assert_allclose(stepped, x_star, atol=1e-10)


def test_deterministic_qp_monotone_distance_decrease():
    p = deterministic_qp()
    x_star = np.array([0.3, 0.7])
    solver = SgdSolver(c=0.2, batch=1, iters=40, seed=1, record_wall_time=False)
    solver.fit(p)
    # reconstruct iterate distances from history via a fresh run (deterministic)
    dists = []
    from scsopt.model import initial_feasible_point

    x = initial_feasible_point(p)
    for k in range(1, 41):
        g = p.Q @ x + p.c
        x = linalg.project_polyhedral(p.A, p.b, None, x - 0.2 / np.sqrt(k) * g)
        dists.append(np.linalg.norm(x - x_star))
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    np.testing.assert_allclose(solver.x_, x, atol=1e-10)


def test_seed_determinism():
    p = make_two_stage(seed=42, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))
    a = SgdSolver(batch=4, iters=20, seed=9, record_wall_time=False).fit(p)
    b = SgdSolver(batch=4, iters=20, seed=9, record_wall_time=False).fit(p)
    np.testing.assert_array_equal(a.x_, b.x_)
    assert all(r1.f_S == r2.f_S for r1, r2 in zip(a.history_, b.history_))


def test_identical_batch_streams_across_solvers():
    # fairness contract: same seed and batch schedule => same scenario draws,
    # observable through the in-sample value at a frozen representative point
    p = make_two_stage(seed=43, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))
    from scsopt.model import draw_scenarios
    from scsopt.rng import substream

    for k in (1, 2, 7):
        b1 = draw_scenarios(p, substream(5, "batch", k), 6)
        b2 = draw_scenarios(p, substream(5, "batch", k), 6)
        for s, t in zip(b1, b2):
            np.testing.assert_array_equal(s.xi, t.xi)


@pytest.mark.parametrize("cls", [SgdSolver, SmdSolver])
def test_shared_screen_pool_matches_fresh_oracles(monkeypatch, cls):
    # Each step's oracle is a sibling of the last, sharing its cell pool; a
    # fresh oracle per step must give the same iterates.
    p = make_two_stage(seed=47, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, tech_random=1,
                       support_k=(3, 3))
    shared = cls(batch=6, iters=30, seed=2, record_wall_time=False).fit(p)
    monkeypatch.setattr(SaaFunction, "sibling", lambda self, batch: SaaFunction(self.problem, batch))
    fresh = cls(batch=6, iters=30, seed=2, record_wall_time=False).fit(p)
    np.testing.assert_allclose(shared.x_, fresh.x_, rtol=1e-10)
    np.testing.assert_allclose([r.f_S for r in shared.history_],
                               [r.f_S for r in fresh.history_], rtol=1e-10)
    np.testing.assert_allclose([r.d_norm for r in shared.history_],
                               [r.d_norm for r in fresh.history_], rtol=1e-10)


def bounded_fixture():
    return make_two_stage(seed=46, n1=5, m1=2, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))


def long_bounded_fit(cls):
    # c = 3 steps far enough to put 13-20 of the 100 iterates on a bound.
    return cls(c=3.0, batch=4, iters=100, seed=3, record_wall_time=False).fit(bounded_fixture())


def recording_projections(monkeypatch, project):
    """Route linalg.project_polyhedral through ``project``; the list fills with its results."""
    iterates = []

    def recorded(*args):
        iterates.append(project(*args))
        return iterates[-1]

    monkeypatch.setattr(linalg, "project_polyhedral", recorded)
    return iterates


def fit_recording_iterates(monkeypatch, cls, project):
    iterates = recording_projections(monkeypatch, project)
    solver = long_bounded_fit(cls)
    return solver, np.array(iterates[1:])  # the first is initial_feasible_point's


def cold_qp_projection(A, b, lb, x):
    return qpsolve.solve_qp(np.eye(x.size), -x, A, b, lb=lb).x


@pytest.mark.parametrize("cls", [SgdSolver, SmdSolver])
def test_warm_projection_matches_cold(monkeypatch, cls):
    # Each projection finds its face from the affine projection up; a run
    # that projects every step with the cold QP must not differ.
    warm, warm_iterates = fit_recording_iterates(monkeypatch, cls, linalg.project_polyhedral)
    cold, cold_iterates = fit_recording_iterates(monkeypatch, cls, cold_qp_projection)
    assert warm_iterates.shape == (100, 5) and np.sum(warm_iterates == 0.0) >= 10
    np.testing.assert_allclose(warm_iterates, cold_iterates, rtol=1e-10)
    np.testing.assert_allclose(warm.x_, cold.x_, rtol=1e-10)
    np.testing.assert_allclose([r.f_S for r in warm.history_],
                               [r.f_S for r in cold.history_], rtol=1e-10)
    np.testing.assert_allclose([r.d_norm for r in warm.history_],
                               [r.d_norm for r in cold.history_], rtol=1e-10)


@pytest.mark.parametrize("cls", [SgdSolver, SmdSolver])
def test_redundant_equality_rows(monkeypatch, cls):
    # A = [[1, 1], [1, 1]] has a singular AA'; the projection must still run.
    p = TwoStageProblem(
        Q=np.eye(2), c=[-1.2, -1.6], A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 1.0],
        D=[[1.0]], d=[0.0], xi=[0.0], C=np.zeros((1, 2)),
    )
    iterates = recording_projections(monkeypatch, linalg.project_polyhedral)
    cls(seed=0, iters=20, record_wall_time=False).fit(p)
    assert len(iterates) == 21
    assert np.abs(np.array(iterates) @ p.A.T - p.b).max() <= 1e-8


@pytest.mark.parametrize("cls", [SgdSolver, SmdSolver])
def test_warm_projection_rarely_needs_the_qp(monkeypatch, cls):
    calls = []
    solve_qp = qpsolve.solve_qp

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_qp(*args, **kwargs)

    monkeypatch.setattr(qpsolve, "solve_qp", counted)
    long_bounded_fit(cls)
    assert len(calls) <= 5


@pytest.mark.parametrize("cls", [SgdSolver, SmdSolver])
def test_a_warm_face_memo_leaves_the_fit_bit_identical(monkeypatch, cls):
    # A face comes from M's bytes alone: a memo cleared, warmed by another
    # problem, or bypassed for a fresh SVD every try gives the same fit.
    linalg._faces.clear()
    cold = long_bounded_fit(cls)
    cls(c=3.0, batch=4, iters=50, seed=5, record_wall_time=False).fit(make_two_stage(seed=47))
    warm = long_bounded_fit(cls)
    monkeypatch.setattr(linalg, "_face", linalg._factor)
    fresh = long_bounded_fit(cls)
    for fit in (warm, fresh):
        assert [repr(r) for r in fit.history_] == [repr(r) for r in cold.history_]
        assert fit.x_.tobytes() == cold.x_.tobytes()


def test_an_smd_fit_takes_one_svd_per_distinct_face(monkeypatch):
    asked, factored = record_face_svds(monkeypatch)
    linalg._faces.clear()
    SmdSolver(c=3.0, batch=4, iters=100, seed=0, record_wall_time=False).fit(bounded_fixture())
    assert len(factored) == len(set(factored)) == len(set(asked)) <= linalg._FACE_LIMIT
    assert len(asked) >= 100 + 3 * len(factored)


def test_only_sgd_sets_its_default_step_from_a_pilot(monkeypatch):
    # SMD's default c is 1 + ||x0||, so its fit builds no pilot oracle; SGD's
    # default step divides that by the pilot's subgradient norm, built once.
    p = make_two_stage(seed=43, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))
    pilot, built = oracle.pilot, []

    def no_pilot(problem, seed):
        raise AssertionError("SMD built a pilot oracle")

    monkeypatch.setattr(oracle, "pilot", no_pilot)
    smd = SmdSolver(c=None, iters=10, seed=1, record_wall_time=False).fit(p)
    assert np.all(np.isfinite(smd.x_)) and len(smd.history_) == 10

    def counted(problem, seed):
        built.append(seed)
        return pilot(problem, seed)

    monkeypatch.setattr(oracle, "pilot", counted)
    sgd = SgdSolver(c=None, iters=10, seed=1, record_wall_time=False).fit(p)
    assert built == [1]
    assert np.all(np.isfinite(sgd.x_)) and len(sgd.history_) == 10


def test_huge_g_bound_freezes_smd():
    p = make_two_stage(seed=44, n1=4, m1=1, m2=2, n_base=2, rhs_random=1, support_k=(3,))
    c = (1.0 + float(np.linalg.norm(initial_feasible_point(p)))) / 1e9
    solver = SmdSolver(c=c, batch=2, iters=15, seed=0, record_wall_time=False)
    solver.fit(p)
    assert np.linalg.norm(solver.x_ - initial_feasible_point(p)) <= 1e-6


def test_uniform_averaging_beats_last_often():
    # SGD with SMD's step c draws the same batches and takes the same steps,
    # so it reports the last of SMD's iterates.
    p = make_two_stage(seed=45, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))
    sup = enumerate_support(p)
    F = SaaFunction(p, sup)
    c = (1.0 + float(np.linalg.norm(initial_feasible_point(p)))) / 3.0
    better = 0
    for seed in range(10):
        avg = SmdSolver(c=c, batch=4, iters=60, seed=seed, record_wall_time=False).fit(p)
        last = SgdSolver(c=c, batch=4, iters=60, seed=seed, record_wall_time=False).fit(p)
        if F.value(avg.x_) <= F.value(last.x_):
            better += 1
    assert better >= 6


def test_iterates_stay_feasible():
    p = bounded_fixture()
    for cls in (SgdSolver, SmdSolver):
        solver = cls(batch=4, iters=25, seed=3, record_wall_time=False)
        solver.fit(p)
        x = solver.x_
        assert np.abs(p.A @ x - p.b).max() <= 1e-8 * (1 + np.abs(p.b).max())
        assert x.min() >= -1e-9


def test_functional_wrappers():
    p = deterministic_qp()
    hist = SgdSolver(batch=1, iters=10, seed=0, record_wall_time=False).fit(p).history_
    assert len(hist) == 10
    c = (1.0 + float(np.linalg.norm(initial_feasible_point(p)))) / 2.0
    hist2 = SmdSolver(batch=1, iters=10, seed=0, c=c, record_wall_time=False).fit(p).history_
    assert len(hist2) == 10


@pytest.mark.parametrize("cls", [SgdSolver, SmdSolver])
def test_a_non_finite_step_is_rejected_by_the_projection(monkeypatch, cls):
    # x - alpha g with an infinite subgradient reaches project_polyhedral,
    # whose checks refuse it rather than projecting inf.
    p = bounded_fixture()
    monkeypatch.setattr(SaaFunction, "subgrad", lambda self, x: np.full(x.size, np.inf))
    with pytest.raises(ValueError, match="x contains NaN or Inf"):
        cls(c=1.0, batch=2, iters=3, seed=0, record_wall_time=False).fit(p)


def test_param_validation():
    with pytest.raises(ValueError):
        SgdSolver(c=-1.0).fit(deterministic_qp())
    with pytest.raises(ValueError):
        SmdSolver(c=0.0).fit(deterministic_qp())
    for cls in (SgdSolver, SmdSolver):
        with pytest.raises(TypeError):
            cls(G_bound=2.0)


@pytest.mark.parametrize("cls", [SgdSolver, SmdSolver])
def test_x_path_holds_the_reported_point_of_each_record_and_ends_at_x(cls):
    p = make_two_stage(seed=45, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))
    solver = cls(batch=4, iters=12, seed=2, record_wall_time=False).fit(p)
    assert len(solver.x_path_) == len(solver.history_) == 12
    np.testing.assert_array_equal(solver.x_path_[-1], solver.x_)
    assert all(np.isnan(rec.f_eval) for rec in solver.history_)
    with pytest.raises(TypeError):
        cls(eval_every=2)
