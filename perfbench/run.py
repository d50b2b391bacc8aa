"""scsopt benchmark: four solver workloads, fit-level metrics and a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload lp_iid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

One run of a workload, in one process with BLAS pinned to one thread:

1. set-up, repeated at least three times (and for at least 1 s) and timed:
   generate or parse the instances, enumerate their supports and solve the
   extensive form for f*, which must equal the value recorded in
   ``fixtures.F_STAR``;
2. warm-up fits of the first entry, untimed, for at least ``WARMUP_S``;
3. the timed window: passes over the workload's fit list.  Each entry has a
   fixed number of inputs (solver seeds, see ``SPECS``); pass p runs input
   p mod that number, until every input ran once and the fits have taken
   --seconds;
4. with ``--trace 1``, the first pass again untraced and then with every
   public entry point of scsopt wrapped by ``layertrace``; both replays must
   reproduce the first pass exactly.

Around each set-up and each fit, calls of a calibration kernel worth 5% of
its time measure the host's current speed (see ``CAL_REF_S``).

Every fit is checked (criterion-3 tolerances): x finite, |Ax - b|inf <=
1e-8 (1 + |b|inf), x >= lb - 1e-9.  A fit that raises a ScsoptError or fails
these checks counts in ``failed``.  Its relative gap (f(x) - f*)/(1 + |f*|)
is taken over the full support, and must stay within 1e-3 on lands_cli
(criterion 10).  Each fit leaves a fingerprint (status, iterations,
history, x and, on lands_cli, the CSV bytes); fingerprints must repeat
wherever an input repeats: within the window, in the replays, and across
runs of the same program and seed (kept under ``.perfbench_out/state``).

End-to-end metrics (``--trace 0``):

* run_s: the wall time of one pass, as the sum over entries of the median
  over inputs of each input's median fit time, each fit rescaled to the
  reference host;
* setup_s: median set-up time, rescaled the same way;
* peak_rss_mb: the process's peak resident memory, in 10^6 bytes; each
  workload runs in its own process, so no workload's memory carries into
  the next;
* gap_mean_digits, gap_max_digits: -log10 of the median, over inputs, of
  the mean and the largest gap of the fits of that input.  Gaps span
  1e-9..1e-1 between workloads and seeds, and one fit in twenty can end far
  off; a relative bound means something on the logarithm of a median, not
  on the gaps themselves.

The human-readable lines before the final JSON also give the raw gaps, the
share of ScsSolver fits stopped by the norm rule, fail_frac with each
failure's class, the counts and, when tracing, per-layer seconds.
"""

import os

# Must precede the first numpy import anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LANDS_PATH = ROOT / "instances" / "lands_toy.cor"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("lp_iid", "qp_full", "baselines", "lands_cli")

# Criterion-9 settings, the paper's headline i.i.d. configuration, with the
# sample cap at 256 instead of 1024: a fit's time varies 2-3x with its seed,
# and only a cap this low leaves room for about 30 fits in a run.
LP_IID = dict(sampling="iid", eps=0.01, delta0=4.0, delta_max=64.0, delta_min=0.05,
              eta2=0.05, max_iter=150, max_sample=256)
# Criterion-2 settings: quadratic recourse over the full support.
QP_FULL = dict(sampling="full", eps=1e-3, delta0=4.0, delta_max=64.0, eta2=0.05,
               max_iter=300)
BASELINE = dict(batch=8, iters=100)
# Criterion-10 settings on the LandS toy, full support.
LANDS = dict(eps=1e-3, eta2=0.1, sampling="full", max_iter=300, delta0=20.0,
             delta_max=400.0, bound_lo=0.0, bound_hi=840.0)
LANDS_MAX_GAP = 1e-3  # criterion 10

WARMUP_S = 1.5
# Times are rescaled by a kernel of the benchmark's own, timed between the
# program's work, to a host on which one kernel call takes CAL_REF_S.  On a
# shared 2-core x86-64 VM the same fit's wall time moved by up to 2x within
# minutes; over windows of 4 to 8 fits the raw time spread by about 0.2
# (IQR/median) and the rescaled time by 0.06 to 0.14.
CAL_REF_S = 0.02
CAL_SHARE = 0.05  # kernel time per unit of measured work
GAP_FLOOR = 1e-10  # below the extensive-form solve's own accuracy


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


@dataclasses.dataclass
class Entry:
    """One item of a workload's fit list."""

    label: str
    key: str           # seeds are derived from this, so SGD and SMD share their streams
    problem: object
    support: object
    f_star: float
    run: object        # seed -> (fitted solver, extra fingerprint bytes)
    max_gap: float = math.inf


@dataclasses.dataclass
class FitRecord:
    label: str
    input: int
    seed: int
    seconds: float
    scaled: float = 0.0  # seconds rescaled to the reference host
    failure: str = ""
    gap: float = math.nan
    status: str = ""
    iters: int = 0
    ls_evals: int = 0
    fingerprint: str = ""


def fit_seed(seed, index, key):
    digest = hashlib.sha256(f"{seed}/{index}/{key}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def calibration_kernel(np):
    """Small dense solves and products in a Python loop, like the program's own mix."""
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6))
    M = M @ M.T + 6.0 * np.eye(6)
    v = rng.normal(size=6)
    acc, table = 0.0, {}
    for i in range(1500):
        x = np.linalg.solve(M, v)
        r = M @ x - v
        acc += float(r @ r) + float(np.abs(x).max())
        table[i % 17] = table.get(i % 17, 0) + i
        v = 0.999 * v + 0.001
    return acc


class HostSpeed:
    """Calibration-kernel timings taken right before and right after each piece of work."""

    def __init__(self):
        import numpy

        self._np = numpy
        self.calls = 0
        self.bursts = []
        self._burst(0.0)
        self.last = self._burst(0.1)

    def _burst(self, budget_s):
        """Mean time of kernel calls totalling ``budget_s``, at least one call."""
        spent, n = 0.0, 0
        while n == 0 or spent < budget_s:
            t0 = time.perf_counter()
            calibration_kernel(self._np)
            spent += time.perf_counter() - t0
            n += 1
        self.calls += n
        self.bursts.append(spent / n)
        return spent / n

    def scaled(self, work_s):
        """``work_s``, measured just now, rescaled to the reference host."""
        before = self.last
        self.last = self._burst(CAL_SHARE * work_s)
        return work_s * CAL_REF_S / (0.5 * (before + self.last))


# ---------------------------------------------------------------------------
# workloads


def scs_runner(problem, params):
    from scsopt import scs

    def run(seed):
        solver = scs.ScsSolver(seed=seed, record_wall_time=False, track_trials=False,
                               **params)
        return solver.fit(problem), b""
    return run


def baseline_runner(cls, problem):
    def run(seed):
        return cls(seed=seed, record_wall_time=False, **BASELINE).fit(problem), b""
    return run


def lands_run(seed):
    """``scsopt solve`` on the LandS toy through the harness; seed-independent."""
    from scsopt import cli, scs

    out_dir = OUT / "lands"
    shutil.rmtree(out_dir, ignore_errors=True)
    config = cli.RunConfig(instance=str(LANDS_PATH), solver="scs", params=dict(LANDS),
                           out_dir=str(out_dir), seed=0)
    fitted = []
    previous = scs.ScsSolver.fit

    def capture(self, problem):
        result = previous(self, problem)
        fitted.append(self)
        return result

    scs.ScsSolver.fit = capture
    try:
        cli.run_experiment(config, log=lambda msg: None)
    finally:
        scs.ScsSolver.fit = previous
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return fitted[0], digest.digest()


def setup_fixtures(names, kind):
    import fixtures
    from scsopt import baselines

    entries = []
    for fx in fixtures.build(names):
        if kind == "baselines":
            for tag, cls in (("sgd", baselines.SgdSolver), ("smd", baselines.SmdSolver)):
                entries.append(Entry(f"{fx.name}/{tag}", fx.name, fx.problem, fx.support,
                                     fx.f_star, baseline_runner(cls, fx.problem)))
        else:
            params = LP_IID if kind == "lp_iid" else QP_FULL
            entries.append(Entry(fx.name, fx.name, fx.problem, fx.support, fx.f_star,
                                 scs_runner(fx.problem, params)))
    return entries


def setup_lands():
    import fixtures
    from scsopt import model, smps

    problem, _sampler = smps.load_smps(str(LANDS_PATH))
    support = model.enumerate_support(problem)
    f_star = fixtures.checked_optimum("lands_toy", problem, support)
    return [Entry("lands_toy", "lands_toy", problem, support, f_star, lands_run,
                  max_gap=LANDS_MAX_GAP)]


SQLP = ("sqlp_a", "sqlp_b", "sqlp_c", "sqlp_d", "sqlp_e")
SQQP = ("sqqp_a", "sqqp_b", "sqqp_c")


def run_seeds(i, key, run_seed):
    return fit_seed(run_seed, i, key)


def fixed_seeds(i, key, run_seed):
    return fit_seed(0, i, key)


def no_seed(i, key, run_seed):
    return 0


# name -> (set-up, inputs per entry, solver seed of input i of an entry).
# lp_iid keeps the same 25 fits on every run: a fit's time varies 3x and its
# gap 100x or more with the seed, and 25 fresh fits a run left run_s spreading 0.19
# and the gap digits 0.15 (IQR/median over five --seed values).  Over the
# full support a fit does not depend on its seed at all.
SPECS = {
    "lp_iid": (lambda: setup_fixtures(SQLP, "lp_iid"), 5, fixed_seeds),
    "qp_full": (lambda: setup_fixtures(SQQP, "qp_full"), 1, no_seed),
    "baselines": (lambda: setup_fixtures(SQLP, "baselines"), 3, run_seeds),
    "lands_cli": (setup_lands, 1, no_seed),
}


# ---------------------------------------------------------------------------
# one fit


def fingerprint(solver, extra):
    h = hashlib.sha256()
    h.update(repr((solver.status_, solver.n_iter_,
                   [dataclasses.astuple(r) for r in solver.history_])).encode())
    h.update(solver.x_.tobytes())
    h.update(extra)
    return h.hexdigest()[:20]


def run_fit(entry, seed, input_no, check=True):
    """Time one fit, then (untimed) check its output."""
    import numpy as np
    from scsopt.exceptions import ScsoptError
    from scsopt.model import true_objective

    rec = FitRecord(entry.label, input_no, seed, 0.0)
    t0 = time.perf_counter()
    try:
        solver, extra = entry.run(seed)
    except ScsoptError as exc:
        rec.seconds = time.perf_counter() - t0
        rec.failure = type(exc).__name__
        return rec
    rec.seconds = time.perf_counter() - t0
    rec.status = solver.status_
    rec.iters = solver.n_iter_
    rec.ls_evals = sum(d.ls_evals for d in getattr(solver, "diagnostics_", ()))
    rec.fingerprint = fingerprint(solver, extra)
    if not check:
        return rec
    x, p = solver.x_, entry.problem
    if not np.all(np.isfinite(x)):
        rec.failure = "NonFiniteX"
    elif (np.abs(p.A @ x - p.b).max() > 1e-8 * (1.0 + np.abs(p.b).max())
          or (p.lower_bounds is not None and np.any(x < p.lower_bounds - 1e-9))):
        rec.failure = "InfeasibleX"
    else:
        try:
            f_x = true_objective(p, entry.support, x)
        except ScsoptError as exc:
            rec.failure = type(exc).__name__
        else:
            rec.gap = (f_x - entry.f_star) / (1.0 + abs(entry.f_star))
    return rec


def measure(entries, n_inputs, seed_of, run_seed, seconds, host):
    """Passes over ``entries``, cycling through their inputs, until every input
    ran once and the fits took ``seconds``."""
    fits = []
    timed = 0.0
    pass_no = 0
    while pass_no < n_inputs or timed < seconds:
        i = pass_no % n_inputs
        for entry in entries:
            if pass_no >= n_inputs and timed >= seconds:
                break
            rec = run_fit(entry, seed_of(i, entry.key, run_seed), i)
            rec.scaled = host.scaled(rec.seconds)
            timed += rec.seconds
            fits.append(rec)
        pass_no += 1
    return fits


# ---------------------------------------------------------------------------
# reporting


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def program_digest():
    h = hashlib.sha256()
    files = sorted(SRC.glob("scsopt/*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    files += sorted(LANDS_PATH.parent.glob("lands_toy.*"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(workload, seed, fits, counts):
    """Problems found against earlier runs of the same program and seed; records this one."""
    state_dir = OUT / "state" / program_digest()
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / f"{workload}-{seed}.json"
    prints = {f"{f.label}/{f.input}": f.fingerprint or f.failure for f in fits}
    earlier = json.loads(path.read_text()) if path.exists() else {"fits": {}, "counts": None}
    problems = []
    if any(earlier["fits"].get(k, v) != v for k, v in prints.items()):
        problems.append("fit fingerprints differ from an earlier run with the same seed")
    if counts is not None and earlier["counts"] is not None and counts != earlier["counts"]:
        problems.append("traced exact counts differ from an earlier run with the same seed")
    merged = {"fits": {**earlier["fits"], **prints},
              "counts": counts if counts is not None else earlier["counts"]}
    path.write_text(json.dumps(merged))
    return problems


def digits(gap):
    return -math.log10(max(gap, GAP_FLOOR))


def pass_time(fits, attr):
    """Sum over entries of the median over inputs of the median over repeats."""
    times = {}
    for f in fits:
        times.setdefault(f.label, {}).setdefault(f.input, []).append(getattr(f, attr))
    return sum(statistics.median([statistics.median(r) for r in by_input.values()])
               for by_input in times.values())


def end_to_end(fits, first_round, setup_s):
    """End-to-end metrics; gaps come from ``first_round``, one fit per (entry, input)."""
    per_input = {}
    for f in first_round:
        if not f.failure:
            per_input.setdefault(f.input, []).append(f.gap)
    quality = list(per_input.values())
    gap_mean = statistics.median([statistics.fmean(g) for g in quality]) if quality else math.inf
    gap_max = statistics.median([max(g) for g in quality]) if quality else math.inf
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "run_s": (pass_time(fits, "scaled"), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
        "gap_mean_digits": (digits(gap_mean) if quality else 0.0, "digits"),
        "gap_max_digits": (digits(gap_max) if quality else 0.0, "digits"),
    }
    return metrics, gap_mean, gap_max


def print_report(workload, args, setup_reps, fits, metrics, gap_mean, gap_max, extra_lines):
    scs_fits = [f for f in fits if f.status and not f.label.endswith(("/sgd", "/smd"))]
    failures = {}
    for f in fits:
        if f.failure:
            failures[f.failure] = failures.get(f.failure, 0) + 1
    print(f"workload {workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env {environment()}")
    print(f"setup repetitions {setup_reps}")
    print(f"fits {len(fits)} inputs per entry {len({f.input for f in fits})} "
          f"iterations {sum(f.iters for f in fits)} line-search evals {sum(f.ls_evals for f in fits)}")
    print(f"fail_frac {sum(failures.values()) / len(fits)} {failures}")
    print(f"gap_mean {gap_mean:.6e} gap_max {gap_max:.6e}")
    if scs_fits:
        conv = sum(f.status == "converged" for f in scs_fits) / len(scs_fits)
        print(f"norm_exit_frac {conv}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for line in extra_lines:
        print(line)


# ---------------------------------------------------------------------------
# main


def replay(entries, fits, host, tracer=None):
    """The first pass again, traced when ``tracer`` is given.

    Returns (wall seconds, seconds rescaled to the reference host, problems).
    """
    problems = []
    seconds = scaled = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for entry, first in zip(entries, fits):
            rec = run_fit(entry, first.seed, 0, check=False)
            seconds += rec.seconds
            scaled += host.scaled(rec.seconds)
            if (rec.fingerprint, rec.failure) != (first.fingerprint, first.failure):
                kind = "traced" if tracer is not None else "untraced"
                problems.append(f"{entry.label}: {kind} replay differs from the first pass")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, scaled, problems


def run_workload(workload, args):
    if not (SRC / "scsopt" / "__init__.py").is_file() or not LANDS_PATH.is_file():
        fail(f"no scsopt sources under {SRC} or no {LANDS_PATH.name}; "
             "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import scsopt

    if Path(scsopt.__file__).resolve().parent != (SRC / "scsopt").resolve():
        fail(f"imported scsopt from {scsopt.__file__}, not from {SRC}")

    setup, n_inputs, seed_of = SPECS[workload]
    host = HostSpeed()
    setup_wall, setup_scaled = [], []
    while len(setup_wall) < 3 or (sum(setup_wall) < 1.0 and len(setup_wall) < 30):
        t0 = time.perf_counter()
        entries = setup()
        setup_wall.append(time.perf_counter() - t0)
        setup_scaled.append(host.scaled(setup_wall[-1]))

    # Warm-up: untimed fits of the first entry, with seeds of their own.
    warm, warm_s, k = entries[0], 0.0, 0
    while warm_s < WARMUP_S:
        rec = run_fit(warm, seed_of(f"warmup{k}", warm.key, args.seed), -1, check=False)
        host.scaled(rec.seconds)
        warm_s += rec.seconds
        k += 1

    window_bursts = len(host.bursts)
    fits = measure(entries, n_inputs, seed_of, args.seed, args.seconds, host)
    first_round = fits[:len(entries) * n_inputs]
    metrics, gap_mean, gap_max = end_to_end(fits, first_round, statistics.median(setup_scaled))
    extra_lines = [f"run_wall_s {pass_time(fits, 'seconds')} s",
                   f"setup_wall_s {statistics.median(setup_wall)} s",
                   f"calibration kernel {statistics.fmean(host.bursts[window_bursts:]):.6f} s "
                   f"a call in the window, {host.calls} calls, reference {CAL_REF_S} s"]
    problems = []
    max_gap = {e.label: e.max_gap for e in entries}
    for f in fits:
        if not f.failure and f.gap > max_gap[f.label]:
            problems.append(f"{f.label} input {f.input}: gap {f.gap:.3e} above {max_gap[f.label]}")
    outcomes = {(f.label, f.input, f.fingerprint or f.failure) for f in fits}
    if len(outcomes) != len({(f.label, f.input) for f in fits}):
        problems.append("repeated fits of the same input left different fingerprints")

    counts = None
    if args.trace:
        import layertrace

        # Untraced and traced replays back to back, so the difference is the
        # tracing cost and not a drift of the machine over the run.
        _, untraced_s, replay_problems = replay(entries, first_round, host)
        tracer = layertrace.Tracer()
        traced_wall_s, traced_s, traced_problems = replay(entries, first_round, host, tracer)
        problems += replay_problems + traced_problems
        layer, times = layertrace.layer_metrics(tracer, traced_wall_s, traced_s, untraced_s)
        counts = {k: v for k, (v, unit) in layer.items() if unit == "count"}
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{workload}-{args.seed}.csv"
        tracer.write_spans(spans_path)
        extra_lines.append(f"spans {len(tracer.names)} -> {spans_path.relative_to(ROOT)}")
        extra_lines.append(f"{'layer':28s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s}")
        for name, (calls, busy_s, self_s) in sorted(times.items(), key=lambda kv: -kv[1][2]):
            extra_lines.append(f"{name:28s} {calls:8d} {busy_s:10.4f} {self_s:10.4f}")
        extra_lines += [f"{name} {value} {unit}" for name, (value, unit) in layer.items()]
        reported = layer
    else:
        reported = metrics
    problems += compare_with_earlier_runs(workload, args.seed, fits, counts)

    print_report(workload, args, len(setup_wall), fits, metrics, gap_mean, gap_max, extra_lines)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    failed = sum(1 for f in fits if f.failure)
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(fits),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args):
    """Every workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            fail(f"workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(combined), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args.workload, args)


if __name__ == "__main__":
    main()
