"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The directional
benchmark (criterion 9) runs 20 seeds x 5 fixtures x 3 solvers and
dominates the runtime (several minutes).
"""

import os
import time

import numpy as np
import pytest

from closed_form import closed_form_dual_value, closed_form_multiplier
from instances import iid_params, make_two_stage, scenario_subgrad, sqlp_fixtures, sqqp_fixtures
from scsopt.baselines import SgdSolver, SmdSolver
from scsopt.cli import RunConfig, run_experiment
from scsopt.model import (
    TwoStageProblem,
    draw_scenarios,
    enumerate_support,
    extensive_form,
    true_objective,
)
from scsopt.oracle import SaaFunction, solve_recourse
from scsopt.rng import substream
from scsopt.scs import ScsSolver, hoeffding_bound, lambda_star, line_search, sample_size
from scsopt.smps import load_smps

RELTOL = 1e-3


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_full_support(fixture, seed=7, track_trials=False):
    solver = ScsSolver(sampling="full", seed=seed, record_wall_time=False,
                       track_trials=track_trials, **fixture.scs)
    t0 = time.perf_counter()
    solver.fit(fixture.problem)
    elapsed = time.perf_counter() - t0
    f_val = true_objective(fixture.problem, fixture.support, solver.x_)
    return solver, f_val, elapsed


def test_criterion_1_ground_truth_convergence():
    fixtures = sqlp_fixtures()
    assert len(fixtures) >= 5
    worst = 0.0
    slowest = 0.0
    for fx in fixtures:
        assert fx.problem.n1 <= 10 and fx.problem.n2 <= 10
        assert len(fx.support) <= 50
        f_star = fx.f_star()
        _solver, f_val, elapsed = run_full_support(fx)
        gap = abs(f_val - f_star) / (1.0 + abs(f_star))
        worst = max(worst, gap)
        slowest = max(slowest, elapsed)
        assert elapsed < 10.0, f"{fx.name} took {elapsed:.1f}s"
        assert gap <= RELTOL, f"{fx.name} gap {gap:.2e}"
    report(1, True, f"{len(fixtures)} SQLP fixtures, worst rel gap {worst:.2e}, "
                    f"slowest run {slowest:.1f}s")


def test_criterion_2_sqqp_parity_and_closed_form():
    fixtures = sqqp_fixtures()
    assert len(fixtures) >= 3
    worst = 0.0
    for fx in fixtures:
        f_star = fx.f_star()
        _solver, f_val, elapsed = run_full_support(fx)
        gap = abs(f_val - f_star) / (1.0 + abs(f_star))
        worst = max(worst, gap)
        assert elapsed < 10.0
        assert gap <= RELTOL, f"{fx.name} gap {gap:.2e}"
    # closed-form dual cross-checks
    rng = np.random.default_rng(0)
    agree_mu = 0
    agree_recipe = 0
    for fx in fixtures:
        p = fx.problem
        for s in list(fx.support)[:6]:
            x = np.abs(rng.normal(size=p.n1)) + 0.2
            sol = solve_recourse(p, s, x)
            assert sol.status == "optimal"
            dv = closed_form_dual_value(p, s, x, sol.mu)
            assert abs(dv - sol.h) <= 1e-6 * (1.0 + abs(sol.h))
            agree_mu += 1
            s_star, well_posed = closed_form_multiplier(p, s, x)
            if well_posed:
                dv2 = closed_form_dual_value(p, s, x, s_star)
                assert abs(dv2 - sol.h) <= 1e-6 * (1.0 + abs(sol.h))
                agree_recipe += 1
    # the scalar construction is always well-posed; make sure the recipe path ran
    p = TwoStageProblem(Q=np.zeros((1, 1)), c=[0.0], A=[[1.0]], b=[0.0],
                        D=[[1.0]], d=[0.0], xi=[1.0], C=[[1.0]], P=[[1.0]])
    from scsopt.model import Scenario

    s = Scenario(xi=np.array([1.0]), C=np.array([[1.0]]), weight=1.0)
    s_star, well_posed = closed_form_multiplier(p, s, np.array([0.0]))
    assert well_posed
    sol = solve_recourse(p, s, np.array([0.0]))
    assert abs(closed_form_dual_value(p, s, np.array([0.0]), s_star) - sol.h) <= 1e-9
    report(2, True, f"3 SQQP fixtures (worst rel gap {worst:.2e}); dual value at "
                    f"primal multipliers agreed {agree_mu}x, projected-stationary "
                    f"recipe certified {agree_recipe + 1}x")


def test_criterion_3_feasibility_invariant():
    checked_points = 0
    for fx in (sqlp_fixtures() + sqqp_fixtures())[:6]:
        p = fx.problem
        for seed in (1, 11):
            solver, _f, _t = run_full_support(fx, seed=seed, track_trials=True)
            pts = list(solver.trial_points_) + [solver.x_]
            b_scale = 1.0 + np.abs(p.b).max()
            for x in pts:
                assert np.abs(p.A @ x - p.b).max() <= 1e-8 * b_scale
                assert x.min() >= -1e-9
            checked_points += len(pts)
    report(3, True, f"{checked_points} logged trial/incumbent points satisfied "
                    "the equality and bound tolerances")


def test_criterion_4_direction_finding():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(100):
        g = rng.normal(size=4)
        d = rng.normal(size=4)
        lam = lambda_star(g, d)
        vals = 0.5 * np.linalg.norm(np.outer(grid, -d) + np.outer(1 - grid, g), axis=1) ** 2
        f_lam = 0.5 * np.linalg.norm(lam * (-d) + (1 - lam) * g) ** 2
        assert f_lam <= vals.min() + 1e-6
    fx = sqlp_fixtures()[0]
    solver, _f, _t = run_full_support(fx)
    for dg in solver.diagnostics_:
        assert dg.dot_dg <= -dg.d_norm ** 2 + 1e-10
    report(4, True, "grid agreement on 100 random pairs; direction inequality "
                    f"held at all {len(solver.diagnostics_)} iterations")


class _Quad:
    def value(self, x):
        return 0.5 * float(x @ x)

    def value_and_subgrad(self, x):
        return self.value(x), np.asarray(x, dtype=float)


class _PWL:
    def __init__(self, planes, offsets):
        self.planes, self.offsets = planes, offsets

    def value(self, x):
        return float(np.max(self.planes @ x + self.offsets))

    def value_and_subgrad(self, x):
        vals = self.planes @ x + self.offsets
        k = int(np.argmax(vals))
        return float(vals[k]), self.planes[k].copy()


def test_criterion_5_line_search():
    res = line_search(_Quad(), np.eye(1), np.array([1.0]), np.array([-1.0]), 0.4, 0.3, 2.0)
    assert res.success and 0.6 <= res.t < 1.0
    rng = np.random.default_rng(4)
    successes = 0
    for _ in range(100):
        planes = rng.normal(size=(6, 3))
        offsets = rng.normal(size=6)
        F = _PWL(planes, offsets)
        x = rng.normal(size=3)
        _, g = F.value_and_subgrad(x)
        d = -g
        dsq = float(d @ d)
        if dsq < 1e-12:
            continue
        out = line_search(F, np.eye(3), x, d, 0.4, 0.3, float(rng.uniform(0.5, 4.0)))
        if out.success:
            successes += 1
            f0 = F.value(x)
            ft, gt = F.value_and_subgrad(out.x_new)
            assert ft - f0 <= -0.3 * out.t * dsq + 1e-12
            gd = float(gt @ d)
            assert 0.0 > gd >= -0.4 * dsq - 1e-12
    # a failing search must route to the radius-shrink branch of the solver
    p = TwoStageProblem(
        Q=np.zeros((2, 2)), c=[0.0, 0.0], A=[[1.0, 1.0]], b=[0.0],
        D=[[1.0, -1.0]], d=[1.0, 0.5], xi=[1.0], C=[[1.0, -1.0]],
        recourse_lo=0.0, recourse_hi=10.0)
    s = ScsSolver(eps=1e-4, sampling="full", max_iter=12, delta0=0.25,
                  delta_min=1e-9, seed=0, record_wall_time=False)
    s.fit(p)
    deltas = [0.25] + [rec.delta for rec in s.history_]
    shrank = any(not rec.accepted and deltas[i + 1] < deltas[i]
                 for i, rec in enumerate(s.history_))
    assert shrank
    report(5, True, f"analytic step in [0.6, 1); {successes} piecewise-linear "
                    "successes all satisfied both conditions; failures shrank the radius")


def test_criterion_6_sample_size_rule():
    assert sample_size(0.05, 1.0, 1.0, 0.5) == 473
    for delta in (2.0, 1.0, 0.37, 0.11):
        ratio = hoeffding_bound(0.05, 1.0, 1.0, delta / 2) / hoeffding_bound(0.05, 1.0, 1.0, delta)
        assert ratio == pytest.approx(16.0, rel=1e-12)
    report(6, True, "sample_size(.05, 1, 1, .5) = 473 and halving delta "
                    "multiplies the requirement by exactly 16")


def test_criterion_7_hoeffding_coverage():
    p = make_two_stage(seed=55, n1=4, m1=1, m2=2, n_base=2, rhs_random=1, support_k=(5,))
    sup = enumerate_support(p)
    x_hat = np.full(p.n1, 0.5)
    h_atoms = []
    for s in sup:
        sol = solve_recourse(p, s, x_hat)
        assert sol.status == "optimal"
        h_atoms.append(sol.h)
    h_atoms = np.array(h_atoms)
    weights = np.array([s.weight for s in sup])
    exact = float(weights @ h_atoms)
    spread = float(h_atoms.max() - h_atoms.min())
    kappa, delta, eps_h = 1.0, 1.0, 0.1
    n = sample_size(eps_h, spread, kappa, delta)
    half_width = 0.5 * kappa * delta ** 2
    atom_lookup = {atom.xi.tobytes(): h_atoms[k] for k, atom in enumerate(sup)}
    hits = 0
    for seed in range(100):
        rng = substream(seed, "sample")
        draws = draw_scenarios(p, rng, n)
        est = sum(atom_lookup[sc.xi.tobytes()] for sc in draws) / n
        if abs(est - exact) <= half_width:
            hits += 1
    report(7, hits >= 85, f"|f_S - f| <= kappa*delta^2/2 in {hits}/100 seeded trials "
                          f"(|S| = {n}, range {spread:.2f})")


def test_criterion_8_oracle_soundness():
    rng = np.random.default_rng(8)
    checks = 0
    lp_checked = 0
    qp_checked = 0
    while checks < 1000:
        quadratic = checks % 3 == 2
        p = make_two_stage(seed=int(rng.integers(1, 10_000)), n1=4, m1=1, m2=2,
                           n_base=2, rhs_random=1, support_k=(3,), quadratic=quadratic)
        scen = draw_scenarios(p, substream(int(rng.integers(1e6)), "sample"), 5)
        for s in scen:
            x = rng.normal(size=p.n1)
            x2 = rng.normal(size=p.n1)
            h, v = scenario_subgrad(p, x, s)
            h2, _ = scenario_subgrad(p, x2, s)
            assert h2 >= h + v @ (x2 - x) - 1e-8
            sol = solve_recourse(p, s, x)
            rhs = s.xi - s.C @ x
            if quadratic:
                stat = p.P @ sol.y + p.d - p.D.T @ sol.pi - sol.mu
                assert np.abs(stat).max() <= 1e-8 * (1 + np.abs(p.d).max() + np.abs(sol.pi).max())
                assert sol.mu.min() >= -1e-12
                assert abs(sol.mu @ sol.y) <= 1e-8 * (1 + abs(sol.h))
                qp_checked += 1
            else:
                gap = abs(sol.h - sol.pi @ rhs)
                assert gap <= 1e-7 * (1 + abs(sol.h))
                red = p.d - p.D.T @ sol.pi
                assert red.min() >= -1e-7
                assert np.abs(red * sol.y).max() <= 1e-7 * (1 + np.abs(p.d).max())
                lp_checked += 1
            assert sol.y.min() >= -1e-9
            checks += 1
    report(8, True, f"{checks} subgradient-inequality checks passed at 1e-8 "
                    f"({lp_checked} LP duality gaps <= 1e-7, {qp_checked} QP KKT residuals <= 1e-8)")


def test_criterion_9_directional_comparison():
    fixtures = sqlp_fixtures()
    wins = 0
    total = 0
    norm_exits = 0
    bundle_exits = 0
    params = iid_params()
    for fx in fixtures:
        F = SaaFunction(fx.problem, fx.support)
        for seed in range(20):
            scs = ScsSolver(sampling="iid", seed=seed, record_wall_time=False,
                            track_trials=False, **params)
            scs.fit(fx.problem)
            norm_exits += scs.status_ == "converged"
            bundle_exits += scs.diagnostics_[-1].ls_reason == "certified"
            f_scs = F.value(scs.x_)
            sgd = SgdSolver(seed=seed, record_wall_time=False, **fx.baseline).fit(fx.problem)
            smd = SmdSolver(seed=seed, record_wall_time=False, **fx.baseline).fit(fx.problem)
            if f_scs <= F.value(sgd.x_) and f_scs <= F.value(smd.x_):
                wins += 1
            total += 1
    # the stopping rule is the norm criterion, with no externally supplied
    # subgradient-norm bound anywhere in the SCS configuration
    ok = wins >= 0.8 * total and norm_exits >= 0.95 * total
    report(9, ok, f"SCS final value <= both baselines in {wins}/{total} pairs; "
                  f"{norm_exits}/{total} runs stopped via the direction-norm rule "
                  f"({bundle_exits} of them by the bundle norm test)")


def test_criterion_10_smps_end_to_end():
    problem, sampler = load_smps("instances/lands_toy.cor", seed=0)
    assert problem.support_size() == 27
    support = sampler.support()
    f_star = extensive_form(problem, support).solve().value
    t0 = time.perf_counter()
    solver = ScsSolver(eps=1e-3, eta2=0.1, sampling="full", max_iter=300, delta0=20.0,
                       delta_max=400.0, bound_lo=0.0, bound_hi=840.0, seed=3,
                       record_wall_time=False, track_trials=False)
    solver.fit(problem)
    elapsed = time.perf_counter() - t0
    f_val = true_objective(problem, support, solver.x_)
    gap = abs(f_val - f_star) / (1.0 + abs(f_star))
    ok = gap <= RELTOL and elapsed < 10.0
    report(10, ok, f"LandS-style toy parsed to 27 scenarios; rel gap {gap:.2e} "
                   f"after {solver.n_iter_} iterations in {elapsed:.1f}s")


def test_criterion_11_deterministic_csvs(tmp_path):
    from scsopt.native import write_native

    p = make_two_stage(seed=99, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))
    inst = tmp_path / "inst.prob"
    write_native(p, inst)
    outs = []
    for tag in ("one", "two"):
        cfg = RunConfig(instance=str(inst), solver="scs",
                        params=dict(eps=0.05, max_iter=20, max_sample=64, delta0=2.0,
                                    delta_min=0.05),
                        eval_sample_size=64, replications=2,
                        out_dir=str(tmp_path / tag), seed=11)
        run_experiment(cfg, log=lambda m: None)
        outs.append(tmp_path / tag)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(11, True, f"two consecutive runs produced byte-identical artifacts: {names}")
