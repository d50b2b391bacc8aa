"""Native text format for synthetic two-stage instances.

Layout (``#`` starts a comment, blank lines ignored)::

    NAME <identifier>              # optional
    MATRICES
    Q <n1> <n1>                    # each matrix/vector: header then entries,
    <row>                          # wrapped arbitrarily across lines
    ...
    c <n1>
    A <m1> <n1>
    b <m1>
    D <m2> <n2>
    d <n2>
    xi <m2>
    C <m2> <n1>
    P <n2> <n2>                    # optional: quadratic second stage
    BOUNDS                         # optional section
    lower <n1 values | none>       # default: none (free x); -inf frees one entry
    recourse <lo> <hi>             # optional declared bounds on h
    STOCH                          # optional section
    rhs <i> discrete <v>:<p> ...   # xi[i] random
    rhs <i> uniform <lo> <hi>
    rhs <i> normal <mu> <sigma>
    tech <i> <j> discrete ...      # C[i, j] random
    END

Deterministic base values of xi and C come from MATRICES; STOCH entries
override the listed positions with random marginals.
"""

import numpy as np

from .exceptions import MalformedSection, ParseError
from .model import Discrete, Normal, RandomEntry, ScenarioSampler, TwoStageProblem, Uniform

_MATRIX_NAMES = ("Q", "c", "A", "b", "D", "d", "xi", "C", "P")
_VECTORS = {"c", "b", "d", "xi"}


def _tokens(text):
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for tok in line.split():
            out.append((tok, line_no))
    return out


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self, what="token"):
        if self.pos >= len(self.tokens):
            raise MalformedSection(f"unexpected end of file while reading {what}")
        tok, line_no = self.tokens[self.pos]
        self.pos += 1
        self._line = line_no
        return tok

    def next_number(self, what, kind=float):
        tok = self.next(what)
        try:
            return kind(tok)
        except ValueError:
            raise MalformedSection(f"expected {what}, got {tok!r}", self._line)


def parse_native(text):
    """Parse a native-format document into a TwoStageProblem."""
    ts = _Stream(_tokens(text))
    name = ""
    if ts.peek() == "NAME":
        ts.next()
        name = ts.next("instance name")
    if ts.next("section keyword") != "MATRICES":
        raise MalformedSection("expected MATRICES section")
    blocks = {}
    while ts.peek() in _MATRIX_NAMES:
        key = ts.next()
        if key in blocks:
            raise MalformedSection(f"matrix {key} given twice")
        if key in _VECTORS:
            n = ts.next_number(f"length of {key}", int)
            blocks[key] = np.array([ts.next_number(f"{key} entry") for _ in range(n)])
        else:
            r = ts.next_number(f"row count of {key}", int)
            c = ts.next_number(f"column count of {key}", int)
            vals = [ts.next_number(f"{key} entry") for _ in range(r * c)]
            blocks[key] = np.array(vals).reshape(r, c)
    missing = [k for k in ("Q", "c", "A", "b", "D", "d", "xi", "C") if k not in blocks]
    if missing:
        raise MalformedSection(f"MATRICES section missing {', '.join(missing)}")

    lower = None
    recourse_lo = recourse_hi = None
    if ts.peek() == "BOUNDS":
        ts.next()
        n1 = blocks["c"].size
        while ts.peek() in ("lower", "recourse"):
            key = ts.next()
            if key == "lower":
                if ts.peek() == "none":
                    ts.next()
                    lower = None
                else:
                    lower = np.array([ts.next_number("lower bound") for _ in range(n1)])
            else:
                recourse_lo = ts.next_number("recourse lower bound")
                recourse_hi = ts.next_number("recourse upper bound")

    entries = []
    if ts.peek() == "STOCH":
        ts.next()
        while ts.peek() in ("rhs", "tech"):
            kind = ts.next()
            row = ts.next_number("row index", int)
            col = ts.next_number("column index", int) if kind == "tech" else -1
            dist_kind = ts.next("distribution kind")
            if dist_kind == "discrete":
                values, probs = [], []
                while ts.peek() is not None and ":" in ts.peek():
                    tok = ts.next()
                    v, p = tok.split(":", 1)
                    try:
                        values.append(float(v))
                        probs.append(float(p))
                    except ValueError:
                        raise MalformedSection(f"bad discrete atom {tok!r}", ts._line)
                try:
                    dist = Discrete(tuple(values), tuple(probs))
                except ValueError as exc:
                    raise MalformedSection(str(exc), ts._line)
            elif dist_kind == "uniform":
                dist = Uniform(ts.next_number("uniform lo"), ts.next_number("uniform hi"))
            elif dist_kind == "normal":
                dist = Normal(ts.next_number("normal mu"), ts.next_number("normal sigma"))
            else:
                raise MalformedSection(f"unknown distribution kind {dist_kind!r}", ts._line)
            entries.append(RandomEntry(kind=kind, row=row, col=col, dist=dist))

    if ts.next("END keyword") != "END":
        raise MalformedSection("expected END")

    return TwoStageProblem(
        Q=blocks["Q"], c=blocks["c"], A=blocks["A"], b=blocks["b"],
        D=blocks["D"], d=blocks["d"], xi=blocks["xi"], C=blocks["C"],
        P=blocks.get("P"), lower_bounds=lower, stochastic_map=entries,
        name=name, recourse_lo=recourse_lo, recourse_hi=recourse_hi,
    )


def load_native(path, seed=0):
    """Load a native instance file: (TwoStageProblem, ScenarioSampler)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read instance file {path}: {exc}") from exc
    problem = parse_native(text)
    return problem, ScenarioSampler(problem, seed=seed)


def _write_block(lines, key, arr):
    arr = np.asarray(arr)
    if arr.ndim == 1:
        lines.append(f"{key} {arr.size}")
        lines.append(" ".join(f"{v:.17g}" for v in arr))
    else:
        lines.append(f"{key} {arr.shape[0]} {arr.shape[1]}")
        for row in arr:
            lines.append(" ".join(f"{v:.17g}" for v in row))


def write_native(problem, path):
    lines = []
    if problem.name:
        lines.append(f"NAME {problem.name}")
    lines.append("MATRICES")
    for key, arr in (("Q", problem.Q), ("c", problem.c), ("A", problem.A),
                     ("b", problem.b), ("D", problem.D), ("d", problem.d),
                     ("xi", problem.xi), ("C", problem.C)):
        _write_block(lines, key, arr)
    if problem.P is not None:
        _write_block(lines, "P", problem.P)
    lines.append("BOUNDS")
    lines.append("lower " + " ".join(f"{v:.17g}" for v in problem.lower_bounds))  # -inf when free
    if problem.recourse_lo is not None:
        lines.append(f"recourse {problem.recourse_lo:.17g} {problem.recourse_hi:.17g}")
    if problem.stochastic_map:
        lines.append("STOCH")
        for e in problem.stochastic_map:
            head = f"rhs {e.row}" if e.kind == "rhs" else f"tech {e.row} {e.col}"
            if isinstance(e.dist, Discrete):
                atoms = " ".join(f"{v:.17g}:{p:.17g}" for v, p in zip(e.dist.values, e.dist.probs))
                lines.append(f"{head} discrete {atoms}")
            elif isinstance(e.dist, Uniform):
                lines.append(f"{head} uniform {e.dist.lo:.17g} {e.dist.hi:.17g}")
            else:
                lines.append(f"{head} normal {e.dist.mu:.17g} {e.dist.sigma:.17g}")
    lines.append("END")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
