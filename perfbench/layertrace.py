"""Tracing from outside the program: spans and exact counts around scsopt's public entry points.

``Tracer.install`` replaces each entry point in ``ENTRY_POINTS`` with a
wrapper that records a span (name, start, end, parent) and, where the entry
point returns something countable, adds to exact counters.  Nothing under
``src/`` changes; ``uninstall`` puts the original attributes back.

Callers inside scsopt reach every wrapped name through a module or class
attribute at call time (``simplex.solve_lp``, ``ScsSolver.fit``, ...), which
is what makes wrapping from outside see every call.  ``cli`` imports
``write_history_csv`` by name, so that binding is wrapped as well.

Spans stay in memory and are written by ``write_spans`` when the run ends.
A span's self time is its duration minus the durations of its direct
children; the entry points never nest inside themselves, so a layer's busy
time is the plain sum of its span durations.
"""

import collections
import functools
import time

from scsopt import baselines, cli, linalg, model, oracle, qpsolve, records, scs, simplex, smps


def _distinct(scenarios):
    return len({(s.xi.tobytes(), s.C.tobytes()) for s in scenarios})


def _count_fit(c, args, kwargs, solver):
    c["scs.fit.iters"] += solver.n_iter_
    c["scs.fit.converged"] += solver.status_ == "converged"


def _count_line_search(c, args, kwargs, res):
    c["scs.line_search.evals"] += res.n_evals
    c["scs.line_search.failed"] += not res.success


def _count_acceptance(c, args, kwargs, accepted):
    c["scs.acceptance_test.accepted"] += bool(accepted)


def _count_saa(c, args, kwargs, _):
    c["oracle.saa.scenarios"] += len(args[0].scenarios)


def _count_lp(c, args, kwargs, res):
    c["simplex.solve_lp.pivots"] += res.iterations
    basis = kwargs.get("basis", args[3] if len(args) > 3 else None)
    c["simplex.solve_lp.warm"] += basis is not None


def _count_qp(c, args, kwargs, res):
    c["qpsolve.solve_qp.iters"] += res.iterations


def _count_scenarios(c, args, kwargs, scenarios):
    c["model.scenarios"] += len(scenarios)
    c["model.distinct"] += _distinct(scenarios)


def _count_drawn(c, args, kwargs, scenarios):
    c["model.draw_scenarios.scenarios"] += len(scenarios)
    _count_scenarios(c, args, kwargs, scenarios)


# (owner, attribute, span name, counter, counter is costly enough to get its own span)
ENTRY_POINTS = [
    (scs.ScsSolver, "fit", "scs.fit", _count_fit, False),
    (scs, "line_search", "scs.line_search", _count_line_search, False),
    (scs, "acceptance_test", "scs.acceptance_test", _count_acceptance, False),
    (baselines.SgdSolver, "fit", "baselines.fit", None, False),
    (baselines.SmdSolver, "fit", "baselines.fit", None, False),
    (oracle.SaaFunction, "value", "oracle.saa", _count_saa, False),
    (oracle.SaaFunction, "subgrad", "oracle.saa", _count_saa, False),
    (oracle.SaaFunction, "value_and_subgrad", "oracle.saa", _count_saa, False),
    (oracle, "solve_recourse", "oracle.solve_recourse", None, False),
    (simplex, "solve_lp", "simplex.solve_lp", _count_lp, False),
    (qpsolve, "solve_qp", "qpsolve.solve_qp", _count_qp, False),
    (linalg, "project_polyhedral", "linalg.project_polyhedral", None, False),
    (linalg, "null_space_basis", "linalg.null_space_basis", None, False),
    (model, "draw_scenarios", "model.draw_scenarios", _count_drawn, True),
    (model, "enumerate_support", "model.enumerate_support", _count_scenarios, True),
    (model.DeterministicProgram, "solve", "model.extensive_solve", None, False),
    (smps, "load_smps", "smps.load_smps", None, False),
    (records, "write_history_csv", "records.write_history_csv", None, False),
    (cli, "write_history_csv", "records.write_history_csv", None, False),
    (cli, "run_experiment", "cli.run_experiment", None, False),
]

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = collections.Counter()
        self._stack = [-1]
        self._patches = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name, counter, costly):
        tracer = self
        counts = self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                if costly:
                    # Keep costly bookkeeping out of the caller's self time.
                    book = tracer._open(BOOKKEEPING)
                    counter(counts, args, kwargs, result)
                    tracer._close(book)
                else:
                    counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, counter, costly in ENTRY_POINTS:
            had_own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, counter, costly))
            self._patches.append((owner, attr, had_own, original))

    def uninstall(self):
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def layer_times(self):
        """{span name: [calls, busy seconds, self seconds]}."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def children_of(self, child_name, parent_name):
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        names = self.names
        return sum(1 for i, name in enumerate(names)
                   if name == child_name and self.parents[i] >= 0
                   and names[self.parents[i]] == parent_name)

    def write_spans(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                         f"{self.parents[i]}\n")


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall_s, traced_s, untraced_s):
    """Per-layer metrics of one traced pass, keyed by their BENCHMARK.json names.

    Busy and self times are reported as shares of the traced pass's wall
    time ``traced_wall_s``, so that a layer the workload never enters reads 0
    rather than a constant time.  ``traced_s`` and ``untraced_s`` are the
    traced and untraced passes rescaled to the reference host.
    """
    times = tracer.layer_times()
    c = tracer.counts
    m = {}

    def timed(name, busy=True, own=True):
        calls, busy_s, self_s = times.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        if busy:
            m[f"{name}.busy_frac"] = (_frac(busy_s, traced_wall_s), "frac")
        if own:
            m[f"{name}.self_frac"] = (_frac(self_s, traced_wall_s), "frac")
        return calls

    fits = timed("scs.fit")
    m["scs.fit.iters"] = (c["scs.fit.iters"], "count")
    m["scs.norm_exit_frac"] = (_frac(c["scs.fit.converged"], fits), "frac")
    ls = timed("scs.line_search")
    m["scs.line_search.evals"] = (c["scs.line_search.evals"], "count")
    m["scs.line_search.fail_frac"] = (_frac(c["scs.line_search.failed"], ls), "frac")
    tests = timed("scs.acceptance_test", own=False)
    m["scs.acceptance_test.accept_frac"] = (_frac(c["scs.acceptance_test.accepted"], tests), "frac")
    timed("baselines.fit")
    timed("oracle.saa")
    m["oracle.saa.scenarios"] = (c["oracle.saa.scenarios"], "count")
    timed("oracle.solve_recourse", own=False)
    m["oracle.scalar_frac"] = (_frac(tracer.children_of("oracle.solve_recourse", "oracle.saa"),
                                     c["oracle.saa.scenarios"]), "frac")
    lps = timed("simplex.solve_lp")
    m["simplex.solve_lp.pivots"] = (c["simplex.solve_lp.pivots"], "count")
    m["simplex.solve_lp.warm_frac"] = (_frac(c["simplex.solve_lp.warm"], lps), "frac")
    timed("qpsolve.solve_qp")
    m["qpsolve.solve_qp.iters"] = (c["qpsolve.solve_qp.iters"], "count")
    timed("linalg.project_polyhedral")
    timed("linalg.null_space_basis", busy=False, own=False)
    timed("model.draw_scenarios", own=False)
    m["model.draw_scenarios.scenarios"] = (c["model.draw_scenarios.scenarios"], "count")
    timed("model.enumerate_support", busy=False, own=False)
    m["model.distinct_frac"] = (_frac(c["model.distinct"], c["model.scenarios"]), "frac")
    timed("model.extensive_solve", own=False)
    timed("smps.load_smps", own=False)
    timed("records.write_history_csv", own=False)
    timed("cli.run_experiment", own=False)
    m["trace.run_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.spans"] = (len(tracer.names), "count")
    return m, times
