"""Experiment harness: load instances, run solvers, write per-iteration CSVs.

Every artifact written by the harness (per-replication CSVs, summary,
comparison tables) is byte-deterministic for a given RunConfig: solver
randomness is derived from the config seed, evaluation samples are fixed
per run, floats are printed with 17 significant digits, and per-iteration
wall-time measurement is disabled inside the harness (the wall_ms column
is kept in the schema but carries 0.0; measured run times go to the log
stream instead, which is not part of the reproducibility contract).
"""

import argparse
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass, field

from . import baselines, model, native, oracle, scs, smps
from .exceptions import (
    MismatchedInstances,
    ParseError,
    ScsoptError,
    UnsupportedSolverForInstance,
)
from .records import IterateRecord, _fmt, write_history_csv
from .rng import derive_seed, substream

_SOLVERS = ("scs", "sgd", "smd", "extensive")
_HARNESS_KEYS = ("eval_sample_size", "eval_every", "replications")
_EXTENSIVE_ENTRIES = 4_000_000  # dense matrix entries (8 bytes each) the extensive form may take


@dataclass
class RunConfig:
    instance: str
    solver: str
    fmt: str = "auto"
    params: dict = field(default_factory=dict)
    eval_sample_size: int = 10_000
    eval_every: int = 1
    replications: int = 1
    out_dir: str = "runs"
    seed: int = 0

    def __post_init__(self):
        if self.solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, got {self.solver!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.eval_sample_size < 1:
            raise ValueError("eval_sample_size must be >= 1")
        # A solver section's eval_every sets the harness's schedule for that solver.
        self.params = dict(self.params)
        self.eval_every = self.params.pop("eval_every", self.eval_every)
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass
class ExperimentSummary:
    config: RunConfig
    f_star: float | None
    csv_paths: list
    summary_path: str
    histories: list
    final_values: list


def load_instance(path, fmt="auto", seed=0):
    """(TwoStageProblem, ScenarioSampler) from a native or SMPS instance path."""
    if fmt == "auto":
        smps_exts = smps._CORE_EXTS + smps._TIME_EXTS + smps._STOCH_EXTS
        fmt = "smps" if path.lower().endswith(smps_exts) else "native"
    if fmt == "smps":
        return smps.load_smps(path, seed=seed)
    if fmt == "native":
        return native.load_native(path, seed=seed)
    raise ValueError(f"unknown instance format {fmt!r}")


def _evaluation_function(problem, seed, eval_sample_size, parent):
    """Held-out objective estimate on a fixed evaluation sample.

    Uses the exact finite support when it is no larger than the requested
    sample size, otherwise a fresh fixed i.i.d. sample from the 'eval'
    substream.  Its oracle is a sibling of ``parent``, the f* solve's, if any.
    """
    size = problem.support_size()
    if size is not None and size <= eval_sample_size:
        scenarios = model.enumerate_support(problem)
    else:
        scenarios = model.draw_scenarios(problem, substream(seed, "eval"), eval_sample_size)
    F = oracle.SaaFunction(problem, scenarios) if parent is None else parent.sibling(scenarios)
    return F.value


def _extensive_entries(problem, size):
    """Dense entries of the extensive form over ``size`` scenarios: A_eq, plus H if quadratic."""
    rows, cols = problem.m1 + size * problem.m2, problem.n1 + size * problem.n2
    quadratic = problem.quadratic_recourse or problem.Q.any()
    return rows * cols + (cols * cols if quadratic else 0)


def _extensive_optimum(problem):
    """(f*, its solve's oracle or None) over the support; None without one or past _EXTENSIVE_ENTRIES."""
    size = problem.support_size()
    if size is None or _extensive_entries(problem, size) > _EXTENSIVE_ENTRIES:
        return None
    program = model.extensive_form(problem, model.enumerate_support(problem))
    sol = program.solve()
    if sol.status != "optimal":
        raise UnsupportedSolverForInstance(
            f"extensive form ended with status {sol.status!r}")
    return float(sol.value), program.oracle


def _build_solver(config, rep_seed):
    cls = {"scs": scs.ScsSolver, "sgd": baselines.SgdSolver, "smd": baselines.SmdSolver}[config.solver]
    return cls(**config.params, seed=rep_seed, record_wall_time=False)


def _scored(history, x_path, eval_fn, eval_every):
    """``history`` with f_eval = eval_fn(x_path[k-1]) at every ``eval_every``-th record k and the last."""
    n = len(history)
    return [dataclasses.replace(rec, f_eval=float(eval_fn(x))) if k % eval_every == 0 or k == n else rec
            for k, (rec, x) in enumerate(zip(history, x_path), start=1)]


def run_experiment(config, log=None):
    """Run one solver on one instance over n replications; write CSVs + summary.

    After each fit, the held-out estimate f_eval of every ``eval_every``-th
    record and of the last is scored at the point the record describes
    (``solver.x_path_``).
    """
    log = log or (lambda msg: print(msg, file=sys.stderr))
    problem, _sampler = load_instance(config.instance, config.fmt, seed=config.seed)
    os.makedirs(config.out_dir, exist_ok=True)

    optimum = _extensive_optimum(problem)
    if optimum is None and config.solver == "extensive":
        raise UnsupportedSolverForInstance(
            f"extensive form needs a finite support of at most {_EXTENSIVE_ENTRIES} dense entries")
    f_star, f_star_oracle = optimum or (None, None)

    eval_fn = _evaluation_function(problem, config.seed, config.eval_sample_size, f_star_oracle)

    csv_paths = []
    histories = []
    final_values = []
    for r in range(config.replications):
        rep_seed = derive_seed(config.seed, "replication", r)
        tic = time.perf_counter()
        if config.solver == "extensive":
            history = [IterateRecord(
                k=1, f_S=f_star, f_eval=f_star, d_norm=0.0, delta=0.0,
                sample_size=problem.support_size(), step_t=0.0, accepted=True,
                wall_ms=0.0)]
            final = f_star
        else:
            solver = _build_solver(config, rep_seed).fit(problem)
            history = _scored(solver.history_, solver.x_path_, eval_fn, config.eval_every)
            final = history[-1].f_eval
        elapsed = time.perf_counter() - tic
        path = os.path.join(config.out_dir, f"{config.solver}_rep{r:03d}.csv")
        write_history_csv(path, history)
        log(f"{config.solver} replication {r}: {len(history)} iterations, "
            f"final f_eval {final:.6g}, {elapsed:.2f}s -> {path}")
        csv_paths.append(path)
        histories.append(history)
        final_values.append(final)

    summary_path = os.path.join(config.out_dir, f"{config.solver}_summary.csv")
    _write_summary(summary_path, histories, f_star)
    return ExperimentSummary(config, f_star, csv_paths, summary_path, histories, final_values)


def _eval_series(history, length):
    """Per-k f_eval with NaN gaps carried forward and the final value padded out."""
    series = []
    last = float("nan")
    for rec in history:
        if not math.isnan(rec.f_eval):
            last = rec.f_eval
        series.append(last)
    while len(series) < length:
        series.append(last)
    return series


def _write_summary(path, histories, f_star):
    n_reps = len(histories)
    length = max(len(h) for h in histories)
    series = [_eval_series(h, length) for h in histories]
    lines = []
    if f_star is not None:
        lines.append(f"# f_star={_fmt(f_star)}")
    lines.append("k,f_eval_mean,f_eval_lo,f_eval_hi,n_reps")
    for k in range(length):
        vals = [s[k] for s in series]
        mean = sum(vals) / n_reps
        if n_reps > 1:
            var = sum((v - mean) ** 2 for v in vals) / (n_reps - 1)
            se = math.sqrt(var / n_reps)
        else:
            se = 0.0
        lines.append(",".join([
            str(k + 1), _fmt(mean), _fmt(mean - 1.96 * se), _fmt(mean + 1.96 * se),
            str(n_reps)]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def compare(configs, out_path=None, log=None):
    """Run several configs sharing instance and seed; aligned per-k table + ranking.

    Raises MismatchedInstances unless all configs have identical instance,
    format, and seed (identical scenario streams are the fairness contract).
    """
    if not configs:
        raise ValueError("need at least one config")
    head = configs[0]
    for cfg in configs[1:]:
        if (cfg.instance, cfg.fmt, cfg.seed) != (head.instance, head.fmt, head.seed):
            raise MismatchedInstances(
                "compared configs must share instance, format, and seed")
    summaries = [run_experiment(cfg, log=log) for cfg in configs]
    length = max(max(len(h) for h in s.histories) for s in summaries)
    table = {"k": list(range(1, length + 1))}
    finals = []
    for s in summaries:
        name = s.config.solver
        series = [_eval_series(h, length) for h in s.histories]
        n = len(series)
        table[f"f_eval_{name}"] = [sum(col) / n for col in zip(*series)]
        finals.append((name, table[f"f_eval_{name}"][-1]))
    ranking = sorted(finals, key=lambda t: t[1])
    if out_path is None:
        out_path = os.path.join(head.out_dir, "comparison.csv")
    cols = list(table.keys())
    lines = ["# ranking=" + "<".join(name for name, _ in ranking)]
    lines.append(",".join(cols))
    for i in range(length):
        row = [table[c][i] for c in cols]
        lines.append(",".join(str(int(v)) if c == "k" else _fmt(v)
                              for c, v in zip(cols, row)))
    with open(out_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return table, ranking, out_path


# ---------------------------------------------------------------------------
# config files and argument parsing

def _parse_value(text):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_file(path):
    """key = value lines, with optional [scs]/[sgd]/[smd] sections.

    Keys above any section header form the shared/harness section.
    """
    sections = {"": {}}
    current = ""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        sections[current][key.strip()] = _parse_value(value.strip())
    return sections


def _config_for_solver(sections, solver):
    params = dict(sections.get("", {}))
    harness = {k: params.pop(k) for k in list(params) if k in _HARNESS_KEYS}
    params.update(sections.get(solver, {}))
    return params, harness


def _run_config(args, sections, solver, out_dir):
    """RunConfig of one solver from the command line and the config file's sections."""
    params, harness = _config_for_solver(sections, solver)
    harness.setdefault("replications", args.replications)
    return RunConfig(instance=args.instance, solver=solver, fmt=args.format, params=params,
                     out_dir=out_dir, seed=args.seed, **harness)


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="scsopt",
        description="Benchmark harness for two-stage stochastic program solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver, write per-iteration CSVs")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--format", default="auto", choices=["auto", "smps", "native"])
    p_solve.add_argument("--solver", required=True, choices=list(_SOLVERS))
    p_solve.add_argument("--config", default=None, help="key = value parameter file")
    p_solve.add_argument("--out", default="runs")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--replications", type=int, default=1)

    p_cmp = sub.add_parser("compare", help="run several solvers on one instance and seed")
    p_cmp.add_argument("--instance", required=True)
    p_cmp.add_argument("--format", default="auto", choices=["auto", "smps", "native"])
    p_cmp.add_argument("--solvers", required=True,
                       help="comma-separated subset of scs,sgd,smd,extensive")
    p_cmp.add_argument("--config", default=None)
    p_cmp.add_argument("--out", default="runs")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--replications", type=int, default=1)
    return parser


def main(argv=None):
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        sections = parse_config_file(args.config) if args.config else {"": {}}
        if args.command == "solve":
            summary = run_experiment(_run_config(args, sections, args.solver, args.out))
            if summary.f_star is not None:
                print(f"f_star={summary.f_star:.10g}")
            for final in summary.final_values:
                print(f"{args.solver} final f_eval {final:.10g}")
        else:
            solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
            configs = [_run_config(args, sections, name, os.path.join(args.out, name))
                       for name in solvers]
            _table, ranking, out_path = compare(configs, out_path=os.path.join(args.out, "comparison.csv"))
            print("ranking: " + " < ".join(f"{n} ({v:.6g})" for n, v in ranking))
            print(f"table: {out_path}")
    except (ParseError, MismatchedInstances, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScsoptError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0
