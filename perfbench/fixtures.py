"""Benchmark fixtures: the SQLP/SQQP generator and specs, and their recorded optima.

This is the benchmark's own copy of the generator in ``tests/instances.py``,
so that edits to the test suite cannot change the benchmark's inputs.  Every
fixture is a small finite-support two-stage program with complete recourse:
the recourse matrix carries +/- identity penalty columns, so Dy = xi - Cx is
feasible for every x, and the first-stage cost is set so the minimizer sits
inside the lower bounds (the anchor-point construction below).

``F_STAR`` holds each fixture's extensive-form optimum; ``build`` recomputes
it at set-up and refuses to run when it moved.
"""

from dataclasses import dataclass

import numpy as np

from scsopt.model import Discrete, RandomEntry, TwoStageProblem, enumerate_support, extensive_form
from scsopt.oracle import SaaFunction

F_STAR = {
    "sqlp_a": -3.4297112970061026,
    "sqlp_b": -3.2955484598143157,
    "sqlp_c": -6.749194719267443,
    "sqlp_d": -1.2833444537860674,
    "sqlp_e": -8.918379937623515,
    "sqqp_a": -1.7774130088080788,
    "sqqp_b": -0.5904490660852759,
    "sqqp_c": -4.476167159779453,
    "lands_toy": 202.85399999999998,
}
F_STAR_RTOL = 1e-9


@dataclass
class Fixture:
    name: str
    problem: TwoStageProblem
    support: object
    f_star: float


def _spd(rng, n, lo=0.6, hi=1.8):
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return U @ np.diag(rng.uniform(lo, hi, n)) @ U.T


def _discrete(rng, center, spread, k):
    values = np.sort(center + spread * rng.uniform(-1.0, 1.0, k))
    probs = rng.uniform(0.5, 1.5, k)
    probs = probs / probs.sum()
    # round-trip-stable exact sum
    probs[-1] = 1.0 - probs[:-1].sum()
    return Discrete(tuple(values), tuple(probs))


def make_two_stage(seed, n1=5, m1=2, m2=2, n_base=3, quadratic=False,
                   rhs_random=2, tech_random=0, support_k=(3, 3), penalty=4.0,
                   q_range=(0.6, 1.8), name=""):
    """Random finite-support instance with complete recourse and interior anchor."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (m1, n1))
    anchor = rng.uniform(0.8, 1.6, n1)
    b = A @ anchor
    Q = _spd(rng, n1, *q_range)
    n2 = n_base + 2 * m2
    D = np.hstack([rng.uniform(-1.0, 1.0, (m2, n_base)), np.eye(m2), -np.eye(m2)])
    d = np.concatenate([rng.uniform(0.4, 1.2, n_base),
                        np.full(m2, penalty), np.full(m2, penalty)])
    C = 0.6 * rng.uniform(-1.0, 1.0, (m2, n1))
    xi = C @ anchor + rng.uniform(-0.3, 0.3, m2)
    P = _spd(rng, n2, 0.8, 1.6) if quadratic else None

    entries = []
    ks = list(support_k)
    for j in range(rhs_random):
        pos = j % m2
        entries.append(RandomEntry("rhs", pos, dist=_discrete(rng, xi[pos], 0.8, ks[j % len(ks)])))
    for j in range(tech_random):
        r, c_ = int(rng.integers(m2)), int(rng.integers(n1))
        entries.append(RandomEntry("tech", r, c_, dist=_discrete(rng, C[r, c_], 0.4, 2)))

    prob = TwoStageProblem(Q=Q, c=np.zeros(n1), A=A, b=b, D=D, d=d, xi=xi, C=C, P=P,
                           lower_bounds=np.zeros(n1), stochastic_map=entries, name=name)
    support = enumerate_support(prob)
    F = SaaFunction(prob, support)
    # Pull the minimizer toward the interior anchor: cancel the exact
    # expected subgradient there.
    v_bar = F.subgrad(anchor) - prob.Q @ anchor  # = c(=0) + mean recourse subgradient
    c_vec = -(prob.Q @ anchor) - v_bar
    h_vals = [SaaFunction(prob, support)._solutions(anchor)[i][0] for i in range(len(support))]
    h_hi = 2.0 * max(max(h_vals), 1.0) + penalty * 10.0
    return TwoStageProblem(Q=Q, c=c_vec, A=A, b=b, D=D, d=d, xi=xi, C=C, P=P,
                           lower_bounds=np.zeros(n1), stochastic_map=entries,
                           name=name, recourse_lo=0.0, recourse_hi=h_hi)


SPECS = {
    "sqlp_a": dict(seed=101, n1=4, m1=1, m2=2, n_base=3, rhs_random=2, support_k=(3, 4)),
    "sqlp_b": dict(seed=211, n1=5, m1=2, m2=2, n_base=3, rhs_random=2, support_k=(4, 5)),
    "sqlp_c": dict(seed=317, n1=6, m1=2, m2=3, n_base=3, rhs_random=2, support_k=(5, 5),
                   q_range=(1.5, 3.5)),
    "sqlp_d": dict(seed=404, n1=5, m1=1, m2=2, n_base=4, rhs_random=1, tech_random=1,
                   support_k=(6,)),
    "sqlp_e": dict(seed=555, n1=6, m1=2, m2=2, n_base=3, rhs_random=3, support_k=(3, 3, 3),
                   q_range=(1.5, 3.5)),
    "sqqp_a": dict(seed=711, n1=4, m1=1, m2=2, n_base=3, rhs_random=2, support_k=(3, 3),
                   quadratic=True),
    "sqqp_b": dict(seed=808, n1=5, m1=2, m2=2, n_base=3, rhs_random=2, support_k=(4, 3),
                   quadratic=True),
    "sqqp_c": dict(seed=909, n1=5, m1=1, m2=2, n_base=4, rhs_random=1, tech_random=1,
                   support_k=(5,), quadratic=True),
}


def checked_optimum(name, problem, support):
    """Extensive-form optimum over ``support``, asserted against ``F_STAR[name]``."""
    sol = extensive_form(problem, support).solve()
    expected = F_STAR[name]
    if sol.status != "optimal" or abs(sol.value - expected) > F_STAR_RTOL * (1.0 + abs(expected)):
        raise RuntimeError(f"{name}: extensive form gave {sol.status} {sol.value!r}, "
                           f"recorded f* is {expected!r}")
    return float(sol.value)


def build(names):
    """Generate the named fixtures, enumerate their supports and check their f*."""
    out = []
    for name in names:
        problem = make_two_stage(name=name, **SPECS[name])
        support = enumerate_support(problem)
        out.append(Fixture(name, problem, support, checked_optimum(name, problem, support)))
    return out
