import dataclasses

import numpy as np
import pytest

from instances import iid_params, make_two_stage, record_face_svds, sqlp_fixtures, sqqp_fixtures
from scsopt import linalg, oracle, scs
from scsopt.exceptions import InfeasibleRegion
from scsopt.linalg import project_null
from scsopt.model import (
    TwoStageProblem,
    enumerate_support,
    extensive_form,
    true_objective,
)
from scsopt.oracle import SaaFunction
from scsopt.scs import ScsSolver
from scsopt.smps import load_smps


def deterministic_qp(c=(-1.2, -1.6)):
    """Smooth strongly convex QP on x1 + x2 = 1 with a vanishing second stage."""
    return TwoStageProblem(
        Q=np.eye(2), c=list(c), A=[[1.0, 1.0]], b=[1.0],
        D=[[1.0]], d=[0.0], xi=[0.0], C=np.zeros((1, 2)),
        recourse_lo=0.0, recourse_hi=0.0,
    )


def test_converges_to_analytic_kkt_point():
    # stationarity x + c = pi * 1 and feasibility give x* = (0.3, 0.7)
    s = ScsSolver(eps=1e-6, sampling="full", max_iter=200, seed=1, record_wall_time=False)
    s.fit(deterministic_qp())
    assert s.converged_
    assert s.n_iter_ <= 200
    np.testing.assert_allclose(s.x_, [0.3, 0.7], atol=1e-5)


def test_large_eps_terminates_immediately():
    s = ScsSolver(eps=1e3, sampling="full", max_iter=50, seed=0, record_wall_time=False)
    s.fit(deterministic_qp())
    assert s.converged_ and s.n_iter_ == 1
    assert s.history_[0].step_t == 0.0


def test_twenty_scenario_sqlp_reaches_extensive_optimum():
    fx = sqlp_fixtures()[1]
    sup = fx.support
    f_star = extensive_form(fx.problem, sup).solve().value
    s = ScsSolver(sampling="full", seed=3, record_wall_time=False, **fx.scs)
    s.fit(fx.problem)
    f_val = true_objective(fx.problem, sup, s.x_)
    assert abs(f_val - f_star) <= 1e-3 * (1.0 + abs(f_star))


def test_incumbent_and_trials_stay_feasible():
    fx = sqlp_fixtures()[0]
    p = fx.problem
    s = ScsSolver(sampling="full", seed=5, record_wall_time=False, track_trials=True, **fx.scs)
    s.fit(p)
    pts = list(s.trial_points_) + [s.x_]
    assert len(pts) > 10
    for x in pts:
        assert np.abs(p.A @ x - p.b).max() <= 1e-8 * (1.0 + np.abs(p.b).max())
        assert x.min() >= -1e-9


def test_direction_inequality_every_iteration():
    fx = sqlp_fixtures()[0]
    s = ScsSolver(sampling="full", seed=5, record_wall_time=False, **fx.scs)
    s.fit(fx.problem)
    for dg in s.diagnostics_:
        assert dg.dot_dg <= -dg.d_norm ** 2 + 1e-10


def test_accepted_steps_log_sufficient_decrease():
    fx = sqlp_fixtures()[0]
    s = ScsSolver(sampling="full", seed=5, record_wall_time=False, **fx.scs)
    s.fit(fx.problem)
    m2 = scs._M2
    seen = 0
    for rec, dg in zip(s.history_, s.diagnostics_):
        if rec.accepted:
            seen += 1
            assert dg.f_after - dg.f_before <= -m2 * rec.step_t * dg.d_norm ** 2 + 1e-12
    assert seen >= 3


def test_delta_update_rule():
    fx = sqlp_fixtures()[0]
    params = dict(fx.scs)
    s = ScsSolver(sampling="full", seed=5, record_wall_time=False, **params)
    s.fit(fx.problem)
    delta = params["delta0"]
    gamma = scs._GAMMA
    floor = min(params["delta0"] * 1e-3, 0.1 * s.eps / s.eta2)
    for rec in s.history_:
        if rec.step_t == 0.0 and rec.d_norm <= s.eps:
            break  # terminal row keeps the previous delta
        if rec.accepted:
            expected = min(gamma * delta, params["delta_max"])
        else:
            expected = max(delta / gamma, floor)
        assert rec.delta == pytest.approx(expected, rel=1e-12)
        delta = rec.delta


def test_sample_growth_is_monotone():
    p = make_two_stage(seed=77, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))
    s = ScsSolver(sampling="iid", seed=2, eps=0.05, max_iter=30, max_sample=120,
                  delta0=2.0, record_wall_time=False)
    s.fit(p)
    sizes = [rec.sample_size for rec in s.history_]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert max(sizes) <= 120


def test_failed_search_exercises_radius_shrink():
    # recourse with a slope jump along the only feasible direction: the first
    # line search cannot satisfy the flattening condition and must fail,
    # shrinking the radius
    p = TwoStageProblem(
        Q=np.zeros((2, 2)), c=[0.0, 0.0], A=[[1.0, 1.0]], b=[0.0],
        D=[[1.0, -1.0]], d=[1.0, 0.5], xi=[1.0], C=[[1.0, -1.0]],
        recourse_lo=0.0, recourse_hi=10.0,
    )
    s = ScsSolver(eps=1e-4, sampling="full", max_iter=12, delta0=0.25,
                  delta_min=1e-9, seed=0, record_wall_time=False)
    s.fit(p)
    hist = s.history_
    failed = [rec for rec in hist if not rec.accepted and rec.step_t == 0.0 and rec.d_norm > s.eps]
    assert failed, "expected at least one failed search routed to the shrink branch"
    deltas = [0.25] + [rec.delta for rec in hist]
    shrank = any(not rec.accepted and deltas[i + 1] < deltas[i]
                 for i, rec in enumerate(hist))
    assert shrank


def single_point(b, lower_bounds=None):
    """A feasible set {x : I x = b}, optionally with bounds x >= lower_bounds."""
    return TwoStageProblem(
        Q=np.eye(2), c=[1.0, 1.0], A=np.eye(2), b=b,
        D=[[1.0]], d=[0.0], xi=[0.0], C=np.zeros((1, 2)), lower_bounds=lower_bounds,
    )


@pytest.mark.parametrize("sampling", ["full", "iid"])
@pytest.mark.parametrize("b, lower_bounds", [
    pytest.param([0.4, 0.6], None, id="free"),
    pytest.param([0.4, 0.6], [0.0, 0.0], id="inside-bounds"),
    # x_0 sits on its bound: the release probe sees a zero ray
    pytest.param([0.0, 1.0], [0.0, 0.0], id="on-a-bound"),
])
def test_single_point_stops_by_the_norm_rule(sampling, b, lower_bounds):
    s = ScsSolver(sampling=sampling, seed=0, record_wall_time=False)
    s.fit(single_point(b, lower_bounds))
    assert s.status_ == "converged" and s.converged_
    assert s.n_iter_ == 1 and len(s.history_) == 1
    assert s.diagnostics_[-1].ls_reason == "terminated"
    assert s.null_space_.shape == (2, 0)
    assert s.d_norm_ == 0.0
    np.testing.assert_array_equal(s.x_, b)


@pytest.mark.parametrize("sampling", ["full", "iid"])
def test_single_point_below_a_bound_is_infeasible(sampling):
    with pytest.raises(InfeasibleRegion):
        ScsSolver(sampling=sampling, seed=0).fit(single_point([-0.4, 0.6], [0.0, 0.0]))


def bounds_only():
    """A first stage with no equality rows (A is 0 x 3); x* = (0, 1.548, 0.876) pins x1."""
    p = make_two_stage(seed=1, n1=3, m1=0)
    return TwoStageProblem(Q=p.Q, c=p.c + [3.0, 0.0, 0.0], A=p.A, b=p.b, D=p.D, d=p.d,
                           xi=p.xi, C=p.C, lower_bounds=p.lower_bounds,
                           stochastic_map=p.stochastic_map, recourse_lo=p.recourse_lo,
                           recourse_hi=p.recourse_hi)


@pytest.mark.parametrize("sampling", ["full", "iid"])
def test_a_first_stage_without_equality_rows_reaches_the_optimum(sampling):
    p = bounds_only()
    assert p.A.shape == (0, 3)
    support = enumerate_support(p)
    ext = extensive_form(p, support).solve()
    s = ScsSolver(sampling=sampling, seed=0, record_wall_time=False).fit(p)
    assert s.status_ == "converged"
    np.testing.assert_array_equal(s.null_space_, np.eye(3))
    assert s.x_[0] == 0.0 and s.x_.min() >= 0.0
    np.testing.assert_allclose(s.x_, ext.x, atol=1e-3)
    assert true_objective(p, support, s.x_) - ext.value <= 1e-6 * (1.0 + abs(ext.value))


def _memo_cases():
    fixtures = {fx.name: fx.problem for fx in sqlp_fixtures()}
    # sqlp_c with seed 0 pins bounds and releases three of them (see _release_cases)
    return fixtures["sqlp_c"], fixtures["sqlp_e"], dict(iid_params(), sampling="iid", seed=0)


def test_a_warm_face_memo_leaves_the_fit_bit_identical(monkeypatch):
    problem, other, params = _memo_cases()
    linalg._faces.clear()
    cold = _fit(problem, params)
    _fit(other, params)
    warm = _fit(problem, params)
    with monkeypatch.context() as m:
        m.setattr(linalg, "_face", linalg._factor)  # every face by a fresh SVD
        fresh = _fit(problem, params)
    for fit in (warm, fresh):
        assert _records(fit) == _records(cold)
        assert fit.x_.tobytes() == cold.x_.tobytes()
    assert cold.null_space_.flags.writeable
    assert not any(np.shares_memory(cold.null_space_, f.Z) for f in linalg._faces.values())


def test_a_pin_and_its_face_basis_share_one_svd(monkeypatch):
    problem, _, params = _memo_cases()
    asked, factored = record_face_svds(monkeypatch)
    linalg._faces.clear()
    _fit(problem, params)
    assert len(factored) == len(set(factored)) == len(set(asked)) < len(asked)


def test_only_iid_sampling_builds_the_pilot(monkeypatch):
    # The pilot sets kappa_ for the i.i.d. schedule; a full-support fit reads no kappa_.
    pilot, built = oracle.pilot, []

    def no_pilot(problem, seed):
        raise AssertionError("a full-support fit built a pilot oracle")

    monkeypatch.setattr(oracle, "pilot", no_pilot)
    full = ScsSolver(eps=1e-4, sampling="full", max_iter=50, seed=0,
                     record_wall_time=False).fit(deterministic_qp())
    assert full.converged_ and full.kappa_ is None

    def counted(problem, seed):
        built.append(seed)
        return pilot(problem, seed)

    monkeypatch.setattr(oracle, "pilot", counted)
    iid = ScsSolver(eps=1e-4, sampling="iid", max_iter=50, seed=3,
                    record_wall_time=False).fit(deterministic_qp())
    assert built == [3]
    assert iid.kappa_ >= 1.0


def test_terminal_projected_gradient_small_on_smooth_instance():
    p = make_two_stage(seed=711, n1=4, m1=1, m2=2, n_base=3, rhs_random=2,
                       support_k=(3, 3), quadratic=True)
    eps = 1e-4
    s = ScsSolver(eps=eps, sampling="full", max_iter=400, delta0=4.0, delta_max=64.0,
                  eta2=0.05, seed=2, record_wall_time=False)
    s.fit(p)
    assert s.converged_
    sup = enumerate_support(p)
    F = SaaFunction(p, sup)
    g = F.subgrad(s.x_)
    # project onto the active face at the terminal incumbent
    act = np.isfinite(p.lower_bounds) & (s.x_ - p.lower_bounds <= 1e-5)
    rows = [p.A] + [np.eye(p.n1)[i].reshape(1, -1) for i in np.flatnonzero(act)]
    from scsopt.linalg import null_space_basis, project_null

    Z = null_space_basis(np.vstack(rows))
    assert np.linalg.norm(project_null(Z, g)) <= 5 * eps


def test_stopping_sanity_over_seeds():
    fx = sqlp_fixtures()[0]
    for seed in range(10):
        s = ScsSolver(sampling="full", seed=seed, record_wall_time=False, **fx.scs)
        s.fit(fx.problem)
        assert s.n_iter_ < fx.scs["max_iter"]


def test_get_set_params_roundtrip():
    s = ScsSolver(eps=0.5, eta2=0.45)
    params = s.get_params()
    assert params["eps"] == 0.5 and params["eta2"] == 0.45
    s.set_params(eps=0.25)
    assert s.eps == 0.25
    with pytest.raises(ValueError):
        s.set_params(not_a_param=1)


def test_parameter_validation():
    with pytest.raises(ValueError, match="delta0"):
        ScsSolver(delta0=200.0, delta_max=100.0).fit(deterministic_qp())
    with pytest.raises(ValueError, match="sampling"):
        ScsSolver(sampling="bogus").fit(deterministic_qp())
    with pytest.raises(ValueError, match="delta_min"):
        ScsSolver(delta0=1.0, delta_min=5.0).fit(deterministic_qp())
    with pytest.raises(ValueError, match="delta_min"):
        ScsSolver(delta0=1.0, delta_min=5.0).fit(single_point([0.4, 0.6]))


def test_x_path_holds_the_incumbent_of_each_record_and_ends_at_x():
    fx = sqlp_fixtures()[0]
    s = ScsSolver(seed=5, record_wall_time=False, **iid_params()).fit(fx.problem)
    assert len(s.x_path_) == len(s.history_) and s.x_path_[-1] is s.x_
    assert all(np.isnan(rec.f_eval) for rec in s.history_)
    with pytest.raises(TypeError):
        ScsSolver(eval_every=2)


def test_wall_time_suppression():
    s = ScsSolver(eps=1e-4, sampling="full", max_iter=50, seed=0, record_wall_time=False)
    s.fit(deterministic_qp())
    assert all(rec.wall_ms == 0.0 for rec in s.history_)
    s2 = ScsSolver(eps=1e-4, sampling="full", max_iter=50, seed=0, record_wall_time=True)
    s2.fit(deterministic_qp())
    assert any(rec.wall_ms > 0.0 for rec in s2.history_)


# Criterion-10 settings on the LandS toy.
LANDS = dict(eps=1e-3, eta2=0.1, sampling="full", max_iter=300, delta0=20.0, delta_max=400.0,
             bound_lo=0.0, bound_hi=840.0, seed=3)


def _bundle_cases():
    fx = sqlp_fixtures()[1]
    lands, _ = load_smps("instances/lands_toy.cor", seed=0)
    return {
        "sqlp_b_full": (fx.problem, dict(fx.scs, sampling="full", seed=3)),
        "sqlp_b_iid": (fx.problem, dict(iid_params(), sampling="iid", seed=3)),
        "lands": (lands, LANDS),
    }


def _fit(problem, params):
    return ScsSolver(record_wall_time=False, track_trials=False, **params).fit(problem)


def _records(solver):
    return [repr(dataclasses.astuple(r)) for r in solver.history_], \
        [repr(dataclasses.astuple(r)) for r in solver.diagnostics_]


@pytest.mark.parametrize("case, reason", [
    ("sqlp_b_full", "terminated"),  # over the full support the direction rule stops first
    ("sqlp_b_iid", "certified"),
    ("lands", "certified"),
])
def test_bundle_stop_leaves_the_path_before_it_bit_identical(case, reason, monkeypatch):
    problem, params = _bundle_cases()[case]
    fast = _fit(problem, params)
    monkeypatch.setattr(scs, "bundle_norm", lambda Z, G, active: np.inf)
    slow = _fit(problem, params)
    k, last = fast.n_iter_, fast.diagnostics_[-1]
    assert fast.status_ == "converged" and last.ls_reason == reason
    (history, diagnostics), (slow_history, slow_diagnostics) = _records(fast), _records(slow)
    if reason == "terminated":
        assert (history, diagnostics) == (slow_history, slow_diagnostics)
        return
    assert history[:k - 1] == slow_history[:k - 1]
    assert diagnostics[:k - 1] == slow_diagnostics[:k - 1]
    # the norm rule, fed the trials: ||p|| <= eps in the terminal record
    assert k < slow.n_iter_
    assert fast.d_norm_ == fast.history_[-1].d_norm == last.d_norm <= fast.eps
    assert last.ls_evals == slow.diagnostics_[k - 1].ls_evals
    assert fast.history_[-1].f_S == slow.diagnostics_[k - 1].f_before
    if case == "lands":
        assert slow.status_ == "max_iter" and slow.n_iter_ == 300
        assert k < 150
        assert fast.x_.tobytes() == slow.x_.tobytes()


@pytest.mark.parametrize("alpha, fires", [(10.0, False), (0.0, True)])
def test_trials_with_a_large_linearization_error_are_dropped(alpha, fires, monkeypatch):
    """A zero subgradient put into the first failed search's bundle closes the hull at
    once; with a cut alpha below F(x_hat) at the far trial it is dropped and nothing
    changes, with alpha = 0 the fit stops there."""
    problem, params = _bundle_cases()["lands"]
    plain = _fit(problem, params)
    search = scs.line_search

    def with_far_cut(F, Z, x, d, *args, **kwargs):
        ls = search(F, Z, x, d, *args, **kwargs)
        if not ls.success:
            ls.trials.append((ls.trials[0][0], ls.f_before - alpha, np.zeros_like(x)))
        return ls

    monkeypatch.setattr(scs, "line_search", with_far_cut)
    patched = _fit(problem, params)
    if fires:
        first_failure = next(d.k for d in plain.diagnostics_ if d.ls_reason in
                             ("no_descent", "max_bisections"))
        assert patched.n_iter_ == first_failure < plain.n_iter_
        assert patched.diagnostics_[-1].ls_reason == "certified"
        assert patched.d_norm_ == 0.0
    else:
        assert _records(patched) == _records(plain)
        assert patched.x_.tobytes() == plain.x_.tobytes()


def test_replication_sample_is_drawn_only_past_the_radius_test(monkeypatch):
    """The i.i.d. replication oracle (one ``sibling`` call) is built exactly at the
    iterations whose search succeeded and whose direction norm clears eta2 times the
    radius in force there: the delta of the previous record, delta0 at k = 1.  A
    replication sample has as many draws as F_S; a grown F_S, also a sibling, has
    more than the oracle it replaces."""
    problem, params = _bundle_cases()["sqlp_b_iid"]
    sibling, built = SaaFunction.sibling, []

    def counted(self, scenarios):
        if len(scenarios) == len(self):
            built.append(len(scenarios))
        return sibling(self, scenarios)

    monkeypatch.setattr(SaaFunction, "sibling", counted)
    solver = _fit(problem, params)
    radius = [solver.delta0] + [r.delta for r in solver.history_]
    found = [(r.d_norm, radius[r.k - 1]) for r, d in zip(solver.history_, solver.diagnostics_)
             if d.ls_reason in ("ok", "boundary")]
    passed = sum(d_norm > solver.eta2 * delta for d_norm, delta in found)
    assert passed < len(found)  # some successful search fails the radius test
    assert len(built) == passed


@pytest.mark.parametrize("fixtures", [sqlp_fixtures, sqqp_fixtures])
def test_back_to_back_iid_fits_on_one_problem_are_byte_equal(fixtures):
    """No oracle state outlives a fit: the cell table and the rows its oracles
    share live in the fit's own oracle family, so refitting the same problem
    object with the same seed repeats every record and the point bit for bit.
    On sqlp_c the fit's siblings gather rows; on sqqp_c, a cell table kept per
    problem would screen rows the first fit solved, to other last bits."""
    fx = fixtures()[2]
    params = dict(iid_params(), sampling="iid", seed=5)
    first, second = _fit(fx.problem, params), _fit(fx.problem, params)
    assert first.n_iter_ > 1 and any(r.accepted for r in first.history_)
    assert _records(first) == _records(second)
    assert first.x_.tobytes() == second.x_.tobytes()


def test_zero_cap_rejects_the_iteration_and_the_fit_still_stops_by_a_norm_rule(monkeypatch):
    """When ``step_cap`` finds no positive step, the iteration records a zero cap,
    runs no line search, is rejected with the radius shrunk, and the fit goes on."""
    problem, params = _bundle_cases()["sqlp_b_iid"]
    step_cap, calls = scs.step_cap, []

    def third_call_zero(*args):
        calls.append(1)
        return 0.0 if len(calls) == 3 else step_cap(*args)

    monkeypatch.setattr(scs, "step_cap", third_call_zero)
    solver = _fit(problem, params)
    k = next(d.k for d in solver.diagnostics_ if d.ls_reason == "zero_cap")
    prev, rec, dg = solver.history_[k - 2], solver.history_[k - 1], solver.diagnostics_[k - 1]
    assert len(calls) > 3 and dg.t_max == 0.0 and dg.ls_evals == 0
    assert not rec.accepted and rec.delta == prev.delta / scs._GAMMA
    assert [d.k for d in solver.diagnostics_ if d.ls_reason == "zero_cap"] == [k]
    assert solver.status_ == "converged"
    assert solver.diagnostics_[-1].ls_reason in ("terminated", "certified")


def test_sample_size_counts_draws_and_atoms_count_distinct_ones(monkeypatch):
    """An i.i.d. fit's ``sample_size`` is the number of scenarios drawn into F_S,
    repeats included, and ``atoms`` in its diagnostics the number of distinct ones."""
    problem, params = _bundle_cases()["sqlp_b_iid"]
    substream, draw = scs.substream, scs.model.draw_scenarios
    keys, grown = {}, []

    def keyed(seed, *key):
        rng = substream(seed, *key)
        keys[id(rng)] = key, rng
        return rng

    def logged(problem, rng, n):
        S = draw(problem, rng, n)
        key, _ = keys.get(id(rng), ((None,), None))
        if key[0] == "grow":
            grown.append((key[1], S.atoms.tolist()))
        return S

    monkeypatch.setattr(scs, "substream", keyed)
    monkeypatch.setattr(scs.model, "draw_scenarios", logged)
    solver = _fit(problem, params)
    for rec, dg in zip(solver.history_, solver.diagnostics_):
        atoms = [a for k, drawn in grown if k <= rec.k for a in drawn]
        assert rec.sample_size == len(atoms)
        assert dg.atoms == len(set(atoms))
    assert solver.diagnostics_[-1].atoms < solver.history_[-1].sample_size


@pytest.mark.parametrize("case", ["lands", "sqqp_a"])
def test_full_support_accepts_on_the_radius_test_alone(case, monkeypatch):
    """Over the full support the replication sample would be the support itself, on
    which a found step already decreased, so no replication test runs and every
    found step that clears the radius test is accepted."""
    if case == "lands":
        problem, params = _bundle_cases()["lands"]
    else:
        fx = sqqp_fixtures()[0]
        problem, params = fx.problem, dict(fx.scs, sampling="full", seed=7)
    plain = _fit(problem, params)

    def no_replication(*args):
        raise AssertionError("replication test run over the full support")

    monkeypatch.setattr(scs, "acceptance_test", no_replication)
    patched = _fit(problem, params)
    assert _records(patched) == _records(plain)
    assert patched.x_.tobytes() == plain.x_.tobytes()
    radius = [patched.delta0] + [r.delta for r in patched.history_]
    for r, d in zip(patched.history_, patched.diagnostics_):
        passed = d.ls_reason in ("ok", "boundary") and r.d_norm > patched.eta2 * radius[r.k - 1]
        assert r.accepted == passed
    assert sum(r.accepted for r in patched.history_) >= 10


# -- bound release ------------------------------------------------------------

def _three_scale_release(solver, problem, F_S, x_hat, active, delta):
    """(best, best_rate) of the release probe that one probe per bound replaced.

    Per active bound: the enlarged-face steepest ray if it leaves the bound, else
    the projected coordinate ray; each probed at min(tau0, t_cap), t_cap / 10 and
    t_cap, the best average slope winning whether or not it is below -eps.
    """
    f0, g_inc, lb = F_S.value(x_hat), F_S.subgrad(x_hat), problem.lower_bounds
    tau0 = 1e-6 * (1.0 + float(np.linalg.norm(x_hat)))
    reach = max(delta, solver.delta0)
    best, best_rate = None, np.inf
    for i in sorted(active):
        Zr = solver._face_basis(problem, active - {i})
        if Zr is None:
            continue
        rays = []
        steepest = -project_null(Zr, g_inc)
        nd = float(np.linalg.norm(steepest))
        if nd > 1e-12 and steepest[i] > 1e-9 * nd:
            rays.append(steepest / nd)
        if not rays:
            coord = project_null(Zr, np.eye(problem.n1)[i])
            ncd = float(np.linalg.norm(coord))
            if ncd > 1e-12 and coord[i] > 1e-9 * ncd:
                rays.append(coord / ncd)
        for direction in rays:
            t_cap = reach
            for j in np.flatnonzero(np.isfinite(lb) & (direction < -1e-12)):
                t_cap = min(t_cap, 0.5 * (x_hat[j] - lb[j]) / (-direction[j]))
            for t in (min(tau0, t_cap), 0.1 * t_cap, t_cap):
                rate = (F_S.value(x_hat + t * direction) - f0) / t
                if rate < best_rate:
                    best, best_rate = (i, direction), rate
    return best, best_rate


def _vertex():
    """min x1 + x2 on {x3 = 1, x >= 0} with a zero recourse: the start (0, 0, 1) is optimal."""
    return TwoStageProblem(
        Q=np.zeros((3, 3)), c=[1.0, 1.0, 0.0], A=[[0.0, 0.0, 1.0]], b=[1.0],
        D=[[1.0]], d=[0.0], xi=[0.0], C=np.zeros((1, 3)), lower_bounds=np.zeros(3),
        recourse_lo=0.0, recourse_hi=0.0), np.array([0.0, 0.0, 1.0])


def _kink():
    """F = 0.25 - (x1 + x2) / 4 + |x1 - x2| on x3 = 1 + x1 + x2, x4 = 1 - x1 - x2, x >= 0.

    At the start (0, 0, 1, 1) no single bound release descends, only x1 = x2 jointly:
    the face-local stop the README documents.
    """
    return TwoStageProblem(
        Q=np.zeros((4, 4)), c=[-0.5, -0.5, 0.25, 0.0],
        A=[[-1.0, -1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]], b=[1.0, 1.0],
        D=[[1.0, -1.0]], d=[1.0, 1.0], xi=[0.0], C=[[-1.0, 1.0, 0.0, 0.0]],
        lower_bounds=np.zeros(4), recourse_lo=0.0, recourse_hi=1.0), np.array([0.0, 0.0, 1.0, 1.0])


def _release_cases():
    fixtures = {fx.name: fx.problem for fx in sqlp_fixtures()}
    crit9 = dict(iid_params(), sampling="iid")
    full = dict(sampling="full", seed=0)
    return {
        "lands": (_bundle_cases()["lands"], [True, True]),
        "sqlp_b_iid": (_bundle_cases()["sqlp_b_iid"], [True]),
        "sqlp_a_seed_9": ((fixtures["sqlp_a"], dict(crit9, seed=9)), [True]),
        "sqlp_c_seed_0": ((fixtures["sqlp_c"], dict(crit9, seed=0)), [True, True, True]),
        "sqlp_e_seed_10": ((fixtures["sqlp_e"], dict(crit9, seed=10)), [True, True]),
        "vertex": ((_vertex()[0], dict(full, eps=1e-6, max_iter=200)), [False]),
        "kink": ((_kink()[0], dict(full, eps=1e-3, max_iter=300)), [False]),
    }


@pytest.mark.parametrize("case", ["lands", "sqlp_b_iid", "sqlp_a_seed_9", "sqlp_c_seed_0",
                                  "sqlp_e_seed_10", "vertex", "kink"])
def test_one_probe_release_matches_the_three_scale_probe(case, monkeypatch):
    """At every release test of a fit: the same bound and a bit-equal direction when the
    three-scale probe's best slope is below -eps, and None exactly when it is not."""
    (problem, params), expected = _release_cases()[case]
    single = ScsSolver._release_candidate
    released = []

    def checked(self, problem, F_S, x_hat, active, delta):
        got = single(self, problem, F_S, x_hat, active, delta)
        ref, rate = _three_scale_release(self, problem, F_S, x_hat, active, delta)
        if rate < -self.eps:
            assert got is not None and got[0] == ref[0]
            assert got[1].tobytes() == ref[1].tobytes()
        else:
            assert got is None
        released.append(got is not None)
        return got

    monkeypatch.setattr(ScsSolver, "_release_candidate", checked)
    _fit(problem, params)
    assert released == expected


@pytest.mark.parametrize("make, eps, max_iter", [
    (_vertex, 1e-6, 200), (_kink, 1e-3, 300), (_kink, 1e-6, 300)])
def test_an_uncertified_release_stops_at_the_start_vertex(make, eps, max_iter):
    """No bound release certifies descent, so the first iteration stops the fit where
    it started; optimistic releases used to spend 9 (vertex) or 14 (kink) iterations
    to come back to the same point."""
    problem, start = make()
    s = ScsSolver(sampling="full", eps=eps, max_iter=max_iter, seed=0,
                  record_wall_time=False).fit(problem)
    assert s.status_ == "converged" and s.n_iter_ == 1
    assert s.diagnostics_[-1].ls_reason == "terminated"
    np.testing.assert_allclose(s.x_, start, rtol=0.0, atol=1e-12)
