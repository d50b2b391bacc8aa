"""Per-iteration log records and their CSV wire format.

The columns are the fields of ``IterateRecord`` in order.  Floats are
printed with 17 significant digits so that parsing an emitted CSV
reproduces the in-memory history bit for bit; ints and bools are printed
as integers.
"""

from dataclasses import dataclass, fields


@dataclass
class IterateRecord:
    k: int
    f_S: float
    f_eval: float
    d_norm: float
    delta: float
    sample_size: int
    step_t: float
    accepted: bool
    wall_ms: float


_FIELDS = fields(IterateRecord)
CSV_HEADER = ",".join(f.name for f in _FIELDS)


def _fmt(v):
    return f"{float(v):.17g}"


def record_to_csv_row(rec):
    cells = ((f.type, getattr(rec, f.name)) for f in _FIELDS)
    return ",".join(_fmt(v) if kind is float else str(int(kind(v))) for kind, v in cells)


def write_history_csv(path, history):
    lines = [CSV_HEADER]
    lines.extend(record_to_csv_row(r) for r in history)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_history_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected CSV header")
    return [IterateRecord(*(f.type(int(t)) if f.type is bool else f.type(t)
                            for f, t in zip(_FIELDS, ln.split(","))))
            for ln in lines[1:]]
