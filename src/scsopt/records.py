"""Per-iteration log records and their CSV wire format.

Floats are printed with 17 significant digits so that parsing an emitted
CSV reproduces the in-memory history bit for bit.
"""

from dataclasses import dataclass

CSV_HEADER = "k,f_S,f_eval,d_norm,delta,sample_size,step_t,accepted,wall_ms"


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


def _fmt(v):
    return f"{float(v):.17g}"


def record_to_csv_row(rec):
    return ",".join([
        str(int(rec.k)),
        _fmt(rec.f_S),
        _fmt(rec.f_eval),
        _fmt(rec.d_norm),
        _fmt(rec.delta),
        str(int(rec.sample_size)),
        _fmt(rec.step_t),
        str(int(bool(rec.accepted))),
        _fmt(rec.wall_ms),
    ])


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
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        out.append(IterateRecord(
            k=int(parts[0]),
            f_S=float(parts[1]),
            f_eval=float(parts[2]),
            d_norm=float(parts[3]),
            delta=float(parts[4]),
            sample_size=int(parts[5]),
            step_t=float(parts[6]),
            accepted=bool(int(parts[7])),
            wall_ms=float(parts[8]),
        ))
    return out
