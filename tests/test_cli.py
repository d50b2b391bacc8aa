import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from instances import make_two_stage
from scsopt import cli, simplex
from scsopt.cli import RunConfig, compare, load_instance, main, parse_config_file, run_experiment
from scsopt.exceptions import MismatchedInstances, UnsupportedSolverForInstance
from scsopt.model import (DeterministicProgram, Discrete, RandomEntry, TwoStageProblem, Uniform,
                          enumerate_support, extensive_form, initial_feasible_point)
from scsopt.native import write_native
from scsopt.oracle import solve_recourse
from scsopt.records import read_history_csv, write_history_csv


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "fix.prob"
    p = make_two_stage(seed=77, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))
    write_native(p, path)
    return str(path)


def same_records(a, b):
    """Field-for-field equality by repr, so NaN equals NaN and floats compare bit for bit."""
    return repr([dataclasses.astuple(r) for r in a]) == repr([dataclasses.astuple(r) for r in b])


SCS_FAST = dict(eps=0.05, max_iter=25, max_sample=64, delta0=2.0, delta_min=0.05)


def test_csv_round_trip_exact(tmp_path, instance_path):
    cfg = RunConfig(instance=instance_path, solver="scs", params=dict(SCS_FAST),
                    eval_sample_size=64, out_dir=str(tmp_path), seed=1)
    summary = run_experiment(cfg, log=lambda m: None)
    hist = summary.histories[0]
    parsed = read_history_csv(summary.csv_paths[0])
    assert same_records(hist, parsed)
    ks = [r.k for r in parsed]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)


def test_byte_identical_reruns(tmp_path, instance_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = RunConfig(instance=instance_path, solver="scs", params=dict(SCS_FAST),
                        eval_sample_size=64, replications=2, out_dir=str(out), seed=5)
        run_experiment(cfg, log=lambda m: None)
    for name in sorted(os.listdir(out1)):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"


def test_extensive_solver_single_row_summary(tmp_path, instance_path):
    cfg = RunConfig(instance=instance_path, solver="extensive", out_dir=str(tmp_path), seed=0)
    summary = run_experiment(cfg, log=lambda m: None)
    assert summary.f_star is not None
    hist = summary.histories[0]
    assert len(hist) == 1
    assert hist[0].f_S == pytest.approx(summary.f_star)
    first = Path(summary.summary_path).read_text().splitlines()[0]
    assert first.startswith("# f_star=")


def test_lands_extensive_optimum_by_cuts_equals_the_dense_one(tmp_path, monkeypatch):
    problem, _ = load_instance("instances/lands_toy.cor")
    prog = extensive_form(problem, enumerate_support(problem))
    rows, lp = [], simplex.solve_lp_bounded
    monkeypatch.setattr(simplex, "solve_lp_bounded", lambda c, A, *a, **k: rows.append(len(A)) or lp(c, A, *a, **k))
    sol = prog.solve()
    assert rows and max(rows) < len(prog.scenarios) * problem.m2  # no dense extensive form
    assert sol.value == prog._dense_solve().value

    def summary(tag):
        cfg = RunConfig(instance="instances/lands_toy.cor", solver="extensive", out_dir=str(tmp_path / tag))
        return Path(run_experiment(cfg, log=lambda m: None).summary_path).read_bytes()

    by_cuts = summary("cuts")
    monkeypatch.setattr(DeterministicProgram, "solve", DeterministicProgram._dense_solve)
    assert summary("dense") == by_cuts
    assert by_cuts.startswith(b"# f_star=202.85399999999998\n")


def test_evaluation_oracle_starts_from_the_f_star_solves_cells(monkeypatch):
    # The f* decomposition filled its oracle at the start point, so a sibling
    # over the same support settles every row there from the shared cells.
    problem, _ = load_instance("instances/lands_toy.cor")
    f_star, parent = cli._extensive_optimum(problem)
    x0 = initial_feasible_point(problem)
    fresh = cli._evaluation_function(problem, 0, 10_000, None)(x0)
    calls = []
    monkeypatch.setattr("scsopt.oracle.solve_recourse",
                        lambda *a, **kw: calls.append(1) or solve_recourse(*a, **kw))
    shared = cli._evaluation_function(problem, 0, 10_000, parent)(x0)
    assert calls == [] and shared == pytest.approx(fresh, rel=1e-12) and shared > f_star


def test_extensive_rejects_infinite_support(tmp_path):
    p = make_two_stage(seed=78, n1=3, m1=1, m2=2, n_base=2, rhs_random=1, support_k=(2,))
    from scsopt.model import Normal

    cont = TwoStageProblem(Q=p.Q, c=p.c, A=p.A, b=p.b, D=p.D, d=p.d, xi=p.xi, C=p.C,
                           lower_bounds=p.lower_bounds,
                           stochastic_map=[RandomEntry("rhs", 0, dist=Normal(0.0, 1.0))])
    path = tmp_path / "cont.prob"
    write_native(cont, path)
    cfg = RunConfig(instance=str(path), solver="extensive", out_dir=str(tmp_path), seed=0)
    with pytest.raises(UnsupportedSolverForInstance):
        run_experiment(cfg, log=lambda m: None)


def test_extensive_rejects_support_above_limit(tmp_path, instance_path, monkeypatch):
    problem, _ = load_instance(instance_path)
    entries = cli._extensive_entries(problem, problem.support_size())
    # 9 scenarios of n2 = 6, m2 = 2 around n1 = 4, m1 = 1; Q > 0 adds the Hessian
    assert entries == 19 * 58 + 58 * 58
    monkeypatch.setattr("scsopt.cli._EXTENSIVE_ENTRIES", entries)
    assert cli._extensive_optimum(problem) is not None
    monkeypatch.setattr("scsopt.cli._EXTENSIVE_ENTRIES", entries - 1)
    cfg = RunConfig(instance=instance_path, solver="extensive", out_dir=str(tmp_path), seed=0)
    with pytest.raises(UnsupportedSolverForInstance, match=f"at most {entries - 1} dense entries"):
        run_experiment(cfg, log=lambda m: None)


def test_large_support_is_bounded_before_the_extensive_form_is_built(tmp_path, monkeypatch):
    """4,096 scenarios (far below any scenario-count limit) would need a dense A_eq of
    8,193 x 24,580 and a Hessian of 24,580^2 entries, about 6 GB; the harness must
    skip f* from the shapes alone."""
    p = make_two_stage(seed=77, n1=4, m1=1, m2=2, n_base=2, rhs_random=2, support_k=(3, 3))
    atoms = Discrete(tuple(np.linspace(-1.0, 1.0, 64)), (1.0 / 64,) * 64)
    big = TwoStageProblem(Q=p.Q, c=p.c, A=p.A, b=p.b, D=p.D, d=p.d, xi=p.xi, C=p.C,
                          lower_bounds=p.lower_bounds,
                          stochastic_map=[RandomEntry("rhs", 0, dist=atoms),
                                          RandomEntry("rhs", 1, dist=atoms)])
    assert big.support_size() == 4096
    path = tmp_path / "big.prob"
    write_native(big, path)

    def never(*args, **kwargs):
        raise AssertionError("the extensive form was built")

    monkeypatch.setattr("scsopt.model.extensive_form", never)
    assert cli._extensive_optimum(big) is None
    cfg = RunConfig(instance=str(path), solver="extensive", out_dir=str(tmp_path), seed=0)
    with pytest.raises(UnsupportedSolverForInstance, match="dense entries"):
        run_experiment(cfg, log=lambda m: None)
    cfg = RunConfig(instance=str(path), solver="sgd", params=dict(batch=2, iters=3),
                    eval_sample_size=8, out_dir=str(tmp_path), seed=0)
    assert run_experiment(cfg, log=lambda m: None).f_star is None


def test_eval_series_padding(tmp_path, instance_path):
    cfg = RunConfig(instance=instance_path, solver="sgd",
                    params=dict(batch=2, iters=8), eval_sample_size=32,
                    replications=2, out_dir=str(tmp_path), seed=2)
    s = run_experiment(cfg, log=lambda m: None)
    lines = Path(s.summary_path).read_text().strip().splitlines()
    header = [ln for ln in lines if ln.startswith("k,")][0]
    assert header == "k,f_eval_mean,f_eval_lo,f_eval_hi,n_reps"
    rows = [ln for ln in lines if not ln.startswith(("#", "k,"))]
    assert len(rows) == 8
    for row in rows:
        parts = row.split(",")
        assert int(parts[4]) == 2
        lo, mean, hi = float(parts[2]), float(parts[1]), float(parts[3])
        assert lo <= mean <= hi


def test_compare_alignment_and_fairness(tmp_path, instance_path):
    shared = dict(instance=instance_path, seed=7, eval_sample_size=32)
    cfgs = [
        RunConfig(solver="scs", params=dict(SCS_FAST), out_dir=str(tmp_path / "scs"), **shared),
        RunConfig(solver="sgd", params=dict(batch=2, iters=10), out_dir=str(tmp_path / "sgd"), **shared),
    ]
    table, ranking, out_path = compare(cfgs, out_path=str(tmp_path / "cmp.csv"), log=lambda m: None)
    assert set(table) == {"k", "f_eval_scs", "f_eval_sgd"}
    assert len(ranking) == 2
    assert os.path.exists(out_path)
    lengths = {len(v) for v in table.values()}
    assert len(lengths) == 1

    bad = [cfgs[0], RunConfig(solver="sgd", instance=instance_path, seed=8,
                              out_dir=str(tmp_path / "x"))]
    with pytest.raises(MismatchedInstances):
        compare(bad, log=lambda m: None)


def test_compare_single_solver_is_its_history(tmp_path, instance_path):
    cfg = RunConfig(instance=instance_path, solver="sgd", params=dict(batch=2, iters=6),
                    eval_sample_size=32, out_dir=str(tmp_path), seed=3)
    table, ranking, _ = compare([cfg], out_path=str(tmp_path / "c.csv"), log=lambda m: None)
    series = table["f_eval_sgd"]
    hist = read_history_csv(os.path.join(str(tmp_path), "sgd_rep000.csv"))
    assert series == pytest.approx([r.f_eval for r in hist])


def test_a_capped_scs_fit_scores_its_last_record(tmp_path):
    # Ten SCS iterations on LandS end at the cap, off the every-4th schedule.
    cfg = RunConfig(instance="instances/lands_toy.cor", solver="scs", params=dict(max_iter=10),
                    eval_every=4, out_dir=str(tmp_path))
    summary = run_experiment(cfg, log=lambda m: None)
    rows = read_history_csv(summary.csv_paths[0])
    assert len(rows) == 10
    assert [r.k for r in rows if not math.isnan(r.f_eval)] == [4, 8, 10]
    assert rows[-1].f_eval == summary.final_values[0]


@pytest.mark.parametrize("solver, params", [
    ("scs", SCS_FAST), ("sgd", dict(batch=2, iters=10)), ("smd", dict(batch=2, iters=10))])
def test_a_due_record_carries_eval_fn_at_its_point_and_others_nan(
        tmp_path, instance_path, monkeypatch, solver, params):
    built, calls = [], []
    build, evaluation = cli._build_solver, cli._evaluation_function

    def recording(*args):
        eval_fn = evaluation(*args)
        return lambda x: calls.append((x, eval_fn(x))) or calls[-1][1]

    monkeypatch.setattr(cli, "_build_solver", lambda *a: built.append(build(*a)) or built[-1])
    monkeypatch.setattr(cli, "_evaluation_function", recording)
    cfg = RunConfig(instance=instance_path, solver=solver, params=dict(params), eval_sample_size=32,
                    eval_every=3, out_dir=str(tmp_path), seed=4)
    history = run_experiment(cfg, log=lambda m: None).histories[0]
    (fitted,) = built
    n = len(history)
    due = [k for k in range(1, n + 1) if k % 3 == 0 or k == n]
    assert n > 3 and len(calls) == len(due)
    assert all(x is fitted.x_path_[k - 1] for (x, _), k in zip(calls, due))
    assert [history[k - 1].f_eval for k in due] == [v for _, v in calls]
    assert all(math.isnan(rec.f_eval) for rec in history if rec.k not in due)


def test_a_solver_section_sets_its_own_eval_every(tmp_path, instance_path):
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text(
        "eval_sample_size = 32\neval_every = 2\n"
        "[scs]\neval_every = 3\neps = 0.05\nmax_iter = 10\nmax_sample = 48\ndelta0 = 2.0\n"
        "[sgd]\nbatch = 2\niters = 9\n")
    code = main(["compare", "--instance", instance_path, "--solvers", "scs,sgd",
                 "--config", str(cfg_path), "--out", str(tmp_path / "cmp"), "--seed", "1"])
    assert code == 0
    for name, every in (("scs", 3), ("sgd", 2)):
        rows = read_history_csv(tmp_path / "cmp" / name / f"{name}_rep000.csv")
        scored = [r.k for r in rows if not math.isnan(r.f_eval)]
        assert len(rows) > every
        assert scored == [k for k in range(1, len(rows) + 1) if k % every == 0 or k == len(rows)]


def test_eval_every_below_one_is_refused():
    with pytest.raises(ValueError, match="eval_every"):
        RunConfig(instance="x", solver="scs", eval_every=0)
    with pytest.raises(ValueError, match="eval_every"):
        RunConfig(instance="x", solver="sgd", params=dict(eval_every=0))


def test_config_file_sections(tmp_path):
    cfg_path = tmp_path / "params.cfg"
    cfg_path.write_text(
        "eval_sample_size = 128\n"
        "replications = 2\n"
        "[scs]\n"
        "eps = 0.01\n"
        "max_iter = 40\n"
        "[sgd]\n"
        "batch = 4\n")
    sections = parse_config_file(str(cfg_path))
    assert sections[""] == {"eval_sample_size": 128, "replications": 2}
    assert sections["scs"] == {"eps": 0.01, "max_iter": 40}
    assert sections["sgd"] == {"batch": 4}


def test_main_solve_and_exit_codes(tmp_path, instance_path, capsys):
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text("[scs]\neps = 0.05\nmax_iter = 15\nmax_sample = 48\ndelta0 = 2.0\n")
    code = main(["solve", "--instance", instance_path, "--solver", "scs",
                 "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "f_star=" in out and "final f_eval" in out

    code = main(["solve", "--instance", str(tmp_path / "missing.cor"),
                 "--solver", "scs", "--out", str(tmp_path / "out2")])
    assert code == 2

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[scs]\nnot_a_param = 1\n")
    code = main(["solve", "--instance", instance_path, "--solver", "scs",
                 "--config", str(bad_cfg), "--out", str(tmp_path / "out3")])
    assert code == 2

    # only SCS reads max_sample
    bad_cfg.write_text("[sgd]\nmax_sample = 2\n")
    code = main(["solve", "--instance", instance_path, "--solver", "sgd",
                 "--config", str(bad_cfg), "--out", str(tmp_path / "out4")])
    assert code == 2


@pytest.mark.parametrize("solver, dist", [
    pytest.param("scs", Uniform(-2.0, -1.0), id="scs-continuous-marginal"),
    pytest.param("extensive", Discrete((-2.0, -1.0), (0.5, 0.5)), id="extensive-finite-support"),
])
def test_main_solve_exits_3_when_the_second_stage_is_infeasible(tmp_path, capsys, solver, dist):
    # y = xi - 0 x with y >= 0 has no solution at any x once xi < 0
    p = TwoStageProblem(Q=[[0.0]], c=[0.0], A=[[1.0]], b=[1.0], D=[[1.0]], d=[1.0], xi=[-1.0],
                        C=[[0.0]], stochastic_map=[RandomEntry("rhs", 0, dist=dist)])
    path = tmp_path / "infeasible.prob"
    write_native(p, path)
    code = main(["solve", "--instance", str(path), "--solver", solver, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


def test_main_exits_2_on_a_config_file_it_cannot_read(tmp_path, instance_path, capsys):
    code = main(["solve", "--instance", instance_path, "--solver", "scs",
                 "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_config_words_parse_to_bools_and_none(tmp_path, instance_path):
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text("[scs]\ndelta_min = none\ntrack_trials = false\nmax_iter = 5\n"
                        "[smd]\nflag = TRUE\n")
    sections = parse_config_file(str(cfg_path))
    assert sections["scs"] == {"delta_min": None, "track_trials": False, "max_iter": 5}
    assert sections["smd"] == {"flag": True}  # the words are read in any case
    code = main(["solve", "--instance", instance_path, "--solver", "scs",
                 "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0


def test_harness_defaults_come_from_run_config_alone(tmp_path, instance_path):
    args = cli._make_parser().parse_args(["solve", "--instance", instance_path, "--solver", "scs"])
    got = cli._run_config(args, {"": {"eval_every": 3}}, "scs", str(tmp_path))
    want = RunConfig(instance=instance_path, solver="scs", out_dir=str(tmp_path), eval_every=3)
    assert got == want
    assert got.eval_sample_size == RunConfig.eval_sample_size


def test_module_entry_point_runs_main_without_a_warning(tmp_path, instance_path):
    """``python -m scsopt`` is the command line for users without the console script."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "scsopt", "solve", "--instance",
         instance_path, "--solver", "extensive", "--out", str(tmp_path / "m")],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0 and "Warning" not in run.stderr
    assert "f_star=" in run.stdout and (tmp_path / "m" / "extensive_rep000.csv").is_file()


def test_main_compare(tmp_path, instance_path, capsys):
    cfg_path = tmp_path / "p.cfg"
    cfg_path.write_text(
        "eval_sample_size = 32\n[scs]\neps = 0.05\nmax_iter = 15\nmax_sample = 48\ndelta0 = 2.0\n"
        "[sgd]\nbatch = 2\niters = 10\n")
    code = main(["compare", "--instance", instance_path, "--solvers", "scs,sgd",
                 "--config", str(cfg_path), "--out", str(tmp_path / "cmp"), "--seed", "1"])
    assert code == 0
    assert "ranking:" in capsys.readouterr().out


def test_load_instance_format_detection(instance_path):
    p, sampler = load_instance(instance_path)
    assert p.n1 == 4
    p2, _ = load_instance("instances/lands_toy.cor")
    assert p2.support_size() == 27


def test_history_csv_with_a_wrong_header_is_refused(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("k,f\n1,2.0\n")
    with pytest.raises(ValueError, match="header"):
        read_history_csv(path)


def test_history_csv_handles_nan(tmp_path):
    from scsopt.records import IterateRecord

    rec = IterateRecord(k=1, f_S=1.5, f_eval=float("nan"), d_norm=0.1, delta=1.0,
                        sample_size=3, step_t=0.0, accepted=False, wall_ms=0.0)
    path = tmp_path / "h.csv"
    write_history_csv(path, [rec])
    back = read_history_csv(path)
    assert math.isnan(back[0].f_eval)
    assert same_records([rec], back)
