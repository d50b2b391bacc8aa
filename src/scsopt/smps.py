"""Parser for the SMPS file triple (CORE / TIME / STOCH).

Supported subset: free-form (whitespace-tokenized) MPS cores with
ROWS/COLUMNS/RHS/BOUNDS plus an optional QUADOBJ extension for a quadratic
first-stage objective; IMPLICIT two-period TIME files; STOCH files with
INDEP DISCRETE blocks over right-hand-side and technology-matrix entries.
Fixed-field files parse through the same tokenizer as long as names carry
no embedded blanks.  Unknown sections warn and are skipped; unsupported
stochastic structures are hard errors.

``assemble`` turns the triple into a TwoStageProblem in the equality form
the solvers expect, by one rule for both stages: an L row gains a +1 and a
G row a -1 zero-cost slack column, a finite upper bound becomes an extra
row with a +1 slack (none when the column is fixed, lo = up), and lower
bounds are kept as bound vectors.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DuplicateName,
    MalformedSection,
    NotTwoPeriods,
    ParseError,
    ProbabilityNotSummingToOne,
    UnknownName,
    UnknownRow,
    UnsupportedStochType,
    UnsupportedStructure,
)
from .model import Discrete, RandomEntry, ScenarioSampler, TwoStageProblem

_SLACK_SIGN = {"E": 0.0, "L": 1.0, "G": -1.0}   # row sense -> slack coefficient (0: none)


@dataclass
class CoreModel:
    name: str = ""
    obj_row: str = ""
    row_names: list = field(default_factory=list)      # constraint rows, CORE order
    row_sense: dict = field(default_factory=dict)      # row -> 'E' | 'L' | 'G'
    col_names: list = field(default_factory=list)
    entries: dict = field(default_factory=dict)        # (row, col) -> coefficient
    rhs: dict = field(default_factory=dict)            # row -> value
    rhs_name: str = ""
    bounds: dict = field(default_factory=dict)         # col -> [lo, up]
    quad: dict = field(default_factory=dict)           # (col, col) -> value


@dataclass
class PeriodSplit:
    stage1_cols: list
    stage2_cols: list
    stage1_rows: list
    stage2_rows: list


def _data_lines(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("*"):
            continue
        line = raw.rstrip()
        if not line.strip():
            continue
        is_header = not raw[0].isspace()
        yield line_no, is_header, line.split()


def _number(token, what, line_no):
    """float(token), or MalformedSection naming ``what`` and the line."""
    try:
        return float(token)
    except ValueError:
        raise MalformedSection(f"bad {what} {token!r}", line_no)


def _record(core, section, toks, line_no):
    """The (row, value) groups of a ``name row value [row value]`` COLUMNS or RHS line."""
    if len(toks) not in (3, 5):
        raise MalformedSection(f"{section} entry needs name/row/value groups, got {toks}", line_no)
    groups = []
    for row, val in zip(toks[1::2], toks[2::2]):
        if row != core.obj_row and row not in core.row_sense:
            raise UnknownRow(f"{section} entry {toks[0]!r} references unknown row {row!r}")
        groups.append((row, _number(val, f"{section} value", line_no)))
    return groups


def parse_core(text):
    """Parse an MPS core document into a name-indexed coefficient model."""
    core = CoreModel()
    section = None
    col_set = set()
    for line_no, is_header, toks in _data_lines(text):
        if is_header:
            head = toks[0].upper()
            if head == "NAME":
                core.name = toks[1] if len(toks) > 1 else ""
            elif head == "ENDATA":
                section = None
                break
            elif head in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "QUADOBJ"):
                section = head
            elif head == "RANGES":
                warnings.warn("RANGES section is not supported and will be ignored")
                section = "SKIP"
            else:
                warnings.warn(f"unknown CORE section {head!r} ignored")
                section = "SKIP"
            continue
        if section == "SKIP" or section is None:
            continue
        if section == "ROWS":
            if len(toks) != 2:
                raise MalformedSection(f"ROWS entry needs sense and name, got {toks}", line_no)
            sense, name = toks[0].upper(), toks[1]
            if name in core.row_sense or name == core.obj_row:
                raise DuplicateName(f"row {name!r} declared twice")
            if sense == "N":
                if not core.obj_row:
                    core.obj_row = name
                else:
                    warnings.warn(f"extra free row {name!r} ignored")
                continue
            if sense not in _SLACK_SIGN:
                raise MalformedSection(f"unknown row sense {sense!r}", line_no)
            core.row_names.append(name)
            core.row_sense[name] = sense
        elif section == "COLUMNS":
            col = toks[0]
            groups = _record(core, section, toks, line_no)
            if col not in col_set:
                col_set.add(col)
                core.col_names.append(col)
            for row, val in groups:
                if (row, col) in core.entries:
                    raise DuplicateName(f"coefficient for ({row}, {col}) given twice")
                core.entries[row, col] = val
        elif section == "RHS":
            core.rhs.update(_record(core, section, toks, line_no))
            core.rhs_name = core.rhs_name or toks[0]
        elif section == "BOUNDS":
            if len(toks) < 3:
                raise MalformedSection(f"BOUNDS entry too short: {toks}", line_no)
            btype, col = toks[0].upper(), toks[2]
            if col not in col_set:
                raise UnknownName(f"BOUNDS references unknown column {col!r}")
            lo_up = core.bounds.setdefault(col, [0.0, np.inf])
            if btype in ("LO", "UP", "FX"):
                if len(toks) < 4:
                    raise MalformedSection(f"{btype} bound needs a value", line_no)
                val = _number(toks[3], "bound value", line_no)
                if btype == "LO":
                    lo_up[0] = val
                elif btype == "UP":
                    lo_up[1] = val
                else:
                    lo_up[0] = lo_up[1] = val
            elif btype == "FR":
                lo_up[0], lo_up[1] = -np.inf, np.inf
            elif btype == "MI":
                lo_up[0] = -np.inf
            elif btype == "PL":
                lo_up[1] = np.inf
            else:
                raise UnsupportedStructure(f"bound type {btype!r} is not supported")
        elif section == "QUADOBJ":
            if len(toks) != 3:
                raise MalformedSection(f"QUADOBJ entry needs col/col/value, got {toks}", line_no)
            c1, c2 = toks[0], toks[1]
            if c1 not in col_set or c2 not in col_set:
                raise UnknownName(f"QUADOBJ references unknown column in {toks}")
            core.quad[(c1, c2)] = _number(toks[2], "QUADOBJ value", line_no)
    if not core.row_names or not core.obj_row:
        raise MalformedSection("CORE file needs a ROWS section with an objective row")
    if not core.entries:
        raise MalformedSection("CORE file has an empty or missing COLUMNS section")
    # RHS may be absent entirely: all-zero right-hand side by MPS convention.
    return core


def parse_time(text, core):
    """Extract the two-period split markers and partition columns and rows."""
    markers = []
    in_periods = False
    style = ""
    for line_no, is_header, toks in _data_lines(text):
        if is_header:
            head = toks[0].upper()
            if head == "PERIODS":
                in_periods = True
                style = toks[1].upper() if len(toks) > 1 else "IMPLICIT"
            elif head in ("TIME", "ENDATA"):
                continue
            else:
                warnings.warn(f"unknown TIME section {head!r} ignored")
                in_periods = False
            continue
        if not in_periods:
            continue
        if style not in ("IMPLICIT", "LP"):
            raise UnsupportedStructure(f"TIME period style {style!r} is not supported")
        if len(toks) < 3:
            raise MalformedSection(f"PERIODS entry needs col/row/period, got {toks}", line_no)
        markers.append((toks[0], toks[1], toks[2]))
    if len(markers) != 2:
        raise NotTwoPeriods(f"expected exactly 2 period markers, found {len(markers)}")
    for col, row, _period in markers:
        if col not in core.col_names:
            raise UnknownName(f"TIME marker references unknown column {col!r}")
        if row not in core.row_names:
            raise UnknownName(f"TIME marker references unknown row {row!r}")
    col2, row2, _ = markers[1]
    ci = core.col_names.index(col2)
    ri = core.row_names.index(row2)
    split = PeriodSplit(
        stage1_cols=core.col_names[:ci],
        stage2_cols=core.col_names[ci:],
        stage1_rows=core.row_names[:ri],
        stage2_rows=core.row_names[ri:],
    )
    if not split.stage1_cols or not split.stage2_cols or not split.stage2_rows:
        raise NotTwoPeriods("period split leaves an empty stage")
    return split


def parse_stoch(text, core):
    """INDEP DISCRETE marginals as (column or "RHS", row, Discrete), in order of first entry.

    Any other stochastic structure is an error.
    """
    acc = {}
    in_indep = False
    for line_no, is_header, toks in _data_lines(text):
        if is_header:
            head = toks[0].upper()
            if head in ("STOCH", "ENDATA"):
                in_indep = False
                continue
            if head == "INDEP":
                sub = toks[1].upper() if len(toks) > 1 else "DISCRETE"
                if sub != "DISCRETE":
                    raise UnsupportedStochType(f"INDEP {sub} is not supported")
                in_indep = True
                continue
            if head in ("BLOCKS", "SCENARIOS"):
                raise UnsupportedStochType(f"{head} sections are not supported")
            warnings.warn(f"unknown STOCH section {head!r} ignored")
            in_indep = False
            continue
        if not in_indep:
            continue
        if len(toks) == 4:
            col, row, val, prob = toks
        elif len(toks) == 5:
            col, row, val, _period, prob = toks
        else:
            raise MalformedSection(f"INDEP entry needs col/row/value[/period]/prob, got {toks}", line_no)
        if row == core.obj_row:
            raise UnsupportedStructure("random objective coefficients are not supported")
        if row not in core.row_names:
            raise UnknownName(f"STOCH entry references unknown row {row!r}")
        is_rhs = col.upper() == "RHS" or (core.rhs_name and col == core.rhs_name)
        if not is_rhs and col not in core.col_names:
            raise UnknownName(f"STOCH entry references unknown column {col!r}")
        values, probs = acc.setdefault(("RHS" if is_rhs else col, row), ([], []))
        try:
            values.append(float(val))
            probs.append(float(prob))
        except ValueError:
            raise MalformedSection(f"bad numeric field in {toks}", line_no)
    marginals = []
    for key, (values, probs) in acc.items():
        total = sum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ProbabilityNotSummingToOne(
                f"marginal at {key} has probabilities summing to {total!r}")
        marginals.append((*key, Discrete(tuple(values), tuple(probs))))
    return marginals


def _coefficients(core, row, cols):
    return [core.entries.get((row, col), 0.0) for col in cols]


def _stage(core, rows, cols):
    """(matrix, right-hand side, costs, lower bounds) of one stage in equality form.

    Rows are the stage's own, then one per finite upper bound, in column
    order.  Slack columns follow the stage's own columns: first the row
    slacks, in row order, then the bound slacks.
    """
    bounds = [core.bounds.get(col, (0.0, np.inf)) for col in cols]
    capped = [(j, lo, up) for j, (lo, up) in enumerate(bounds) if np.isfinite(up)]
    signs = [_SLACK_SIGN[core.row_sense[row]] for row in rows]
    signs += [float(lo != up) for _, lo, up in capped]
    slacks = [(i, sign) for i, sign in enumerate(signs) if sign]
    n = len(cols)
    M = np.zeros((len(signs), n + len(slacks)))
    rhs = np.zeros(len(signs))
    for i, row in enumerate(rows):
        M[i, :n] = _coefficients(core, row, cols)
        rhs[i] = core.rhs.get(row, 0.0)
    for i, (j, _lo, up) in enumerate(capped, start=len(rows)):
        M[i, j] = 1.0
        rhs[i] = up
    for k, (i, sign) in enumerate(slacks, start=n):
        M[i, k] = sign
    cost = np.zeros(M.shape[1])
    cost[:n] = _coefficients(core, core.obj_row, cols)
    lower = np.zeros(M.shape[1])
    lower[:n] = [lo for lo, _up in bounds]
    return M, rhs, cost, lower


def assemble(core, split, marginals, seed=0):
    """Build (TwoStageProblem, ScenarioSampler) from a parsed triple."""
    s1_idx = {c: i for i, c in enumerate(split.stage1_cols)}
    r2_idx = {r: i for i, r in enumerate(split.stage2_rows)}
    r1_rows, s2_cols = set(split.stage1_rows), set(split.stage2_cols)
    for (row, col) in core.entries:
        if row in r1_rows and col in s2_cols:
            raise UnsupportedStructure(
                f"first-stage row {row!r} references second-stage column {col!r}")
    for col in split.stage2_cols:
        if core.bounds.get(col, (0.0, np.inf))[0] != 0.0:
            raise UnsupportedStructure(
                f"second-stage column {col!r} has a nonzero lower bound")

    A, b, c_vec, lower = _stage(core, split.stage1_rows, split.stage1_cols)
    D, xi, d_vec, _ = _stage(core, split.stage2_rows, split.stage2_cols)
    C = np.zeros((D.shape[0], A.shape[1]))
    for i, row in enumerate(split.stage2_rows):
        C[i, :len(split.stage1_cols)] = _coefficients(core, row, split.stage1_cols)
    Q = np.zeros((A.shape[1], A.shape[1]))
    for (c1, c2), val in core.quad.items():
        if c1 not in s1_idx or c2 not in s1_idx:
            raise UnsupportedStructure("QUADOBJ terms must involve first-stage columns only")
        i, j = s1_idx[c1], s1_idx[c2]
        Q[i, j] = Q[j, i] = val

    entries = []
    for col, row, dist in marginals:
        if row not in r2_idx:
            raise UnsupportedStructure(
                f"randomness on first-stage row {row!r} is not supported")
        if col == "RHS":
            entries.append(RandomEntry(kind="rhs", row=r2_idx[row], dist=dist))
        elif col in s1_idx:
            entries.append(RandomEntry(kind="tech", row=r2_idx[row], col=s1_idx[col], dist=dist))
        else:
            raise UnsupportedStructure(
                f"randomness on recourse-matrix column {col!r} is not supported")

    if core.rhs.get(core.obj_row, 0.0) != 0.0:
        warnings.warn("objective-row RHS constant ignored")

    problem = TwoStageProblem(
        Q=Q, c=c_vec, A=A, b=b, D=D, d=d_vec, xi=xi, C=C,
        lower_bounds=lower, stochastic_map=entries, name=core.name,
    )
    return problem, ScenarioSampler(problem, seed=seed)


_CORE_EXTS = (".cor", ".core", ".mps")
_TIME_EXTS = (".tim", ".time")
_STOCH_EXTS = (".sto", ".stoch")


def _resolve_triple(path):
    import os

    stem = path
    for ext in _CORE_EXTS + _TIME_EXTS + _STOCH_EXTS:
        if path.endswith(ext):
            stem = path[: -len(ext)]
            break
    found = []
    for exts, kind in ((_CORE_EXTS, "core"), (_TIME_EXTS, "time"), (_STOCH_EXTS, "stoch")):
        for ext in exts:
            cand = stem + ext
            if os.path.exists(cand):
                found.append(cand)
                break
        else:
            raise ParseError(f"missing SMPS {kind} file: tried {stem}{exts[0]} (and variants)")
    return found


def load_smps(path, seed=0):
    """Load an SMPS triple given any one of its paths (or their common stem)."""
    core_path, time_path, stoch_path = _resolve_triple(path)
    with open(core_path) as fh:
        core = parse_core(fh.read())
    with open(time_path) as fh:
        split = parse_time(fh.read(), core)
    with open(stoch_path) as fh:
        marginals = parse_stoch(fh.read(), core)
    return assemble(core, split, marginals, seed=seed)
