"""Fixture instances shared across the test suite.

Every fixture is a small finite-support two-stage program with complete
recourse by construction: the recourse matrix carries +/- identity penalty
columns, so Dy = xi - Cx is feasible for every x at positive penalty cost,
and recourse values stay inside declared [h_lo, h_hi] bounds.

First-stage costs are chosen so the minimizer sits strictly inside the
lower bounds (the anchor-point trick below); the seeds are fixed ones that
were screened for that property, which keeps the norm-based stopping rule
meaningful on every fixture.
"""

from dataclasses import dataclass, field

import numpy as np

from scsopt import linalg
from scsopt.model import Discrete, RandomEntry, TwoStageProblem, enumerate_support
from scsopt.oracle import SaaFunction, require_optimal, solve_recourse


def scenario_subgrad(problem, x, scenario):
    """(h, v) at one scenario by its own solve: v = -C' pi from the equality duals."""
    sol = require_optimal(solve_recourse(problem, scenario, x))
    return sol.h, -scenario.C.T @ sol.pi


@dataclass
class Fixture:
    name: str
    problem: TwoStageProblem
    scs: dict = field(default_factory=dict)        # solver params for acceptance runs
    baseline: dict = field(default_factory=dict)   # shared baseline params
    _f_star: float = None
    _support: object = None

    @property
    def support(self):
        if self._support is None:
            self._support = enumerate_support(self.problem)
        return self._support

    def f_star(self):
        if self._f_star is None:
            from scsopt.model import extensive_form

            sol = extensive_form(self.problem, self.support).solve()
            assert sol.status == "optimal", f"{self.name}: extensive form {sol.status}"
            self._f_star = sol.value
        return self._f_star


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
    h_hi = 2.0 * max(float(F._solutions(anchor)[:, 0].max()), 1.0) + penalty * 10.0
    return TwoStageProblem(Q=Q, c=c_vec, A=A, b=b, D=D, d=d, xi=xi, C=C, P=P,
                           lower_bounds=np.zeros(n1), stochastic_map=entries,
                           name=name, recourse_lo=0.0, recourse_hi=h_hi)


_SQLP_SPECS = [
    ("sqlp_a", dict(seed=101, n1=4, m1=1, m2=2, n_base=3, rhs_random=2, support_k=(3, 4))),
    ("sqlp_b", dict(seed=211, n1=5, m1=2, m2=2, n_base=3, rhs_random=2, support_k=(4, 5))),
    ("sqlp_c", dict(seed=317, n1=6, m1=2, m2=3, n_base=3, rhs_random=2, support_k=(5, 5),
                    q_range=(1.5, 3.5))),
    ("sqlp_d", dict(seed=404, n1=5, m1=1, m2=2, n_base=4, rhs_random=1, tech_random=1,
                    support_k=(6,))),
    ("sqlp_e", dict(seed=555, n1=6, m1=2, m2=2, n_base=3, rhs_random=3, support_k=(3, 3, 3),
                    q_range=(1.5, 3.5))),
]

_SQQP_SPECS = [
    ("sqqp_a", dict(seed=711, n1=4, m1=1, m2=2, n_base=3, rhs_random=2, support_k=(3, 3),
                    quadratic=True)),
    ("sqqp_b", dict(seed=808, n1=5, m1=2, m2=2, n_base=3, rhs_random=2, support_k=(4, 3),
                    quadratic=True)),
    ("sqqp_c", dict(seed=909, n1=5, m1=1, m2=2, n_base=4, rhs_random=1, tech_random=1,
                    support_k=(5,), quadratic=True)),
]

_SCS_DEFAULTS = dict(eps=1e-3, delta0=4.0, delta_max=64.0, eta2=0.05, max_iter=300)
_SCS_IID = dict(eps=0.01, delta0=4.0, delta_max=64.0, delta_min=0.05, eta2=0.05,
                max_iter=150, max_sample=1024)
_BASE_DEFAULTS = dict(batch=8, iters=100)


def sqlp_fixtures():
    return [Fixture(name, make_two_stage(name=name, **spec), scs=dict(_SCS_DEFAULTS),
                    baseline=dict(_BASE_DEFAULTS))
            for name, spec in _SQLP_SPECS]


def sqqp_fixtures():
    return [Fixture(name, make_two_stage(name=name, **spec), scs=dict(_SCS_DEFAULTS),
                    baseline=dict(_BASE_DEFAULTS))
            for name, spec in _SQQP_SPECS]


def iid_params():
    return dict(_SCS_IID)


def record_face_svds(monkeypatch):
    """(asked, factored): the faces given to linalg's memo, and those it took an SVD of.

    Each entry is a face's (shape, bytes).  A cold QP factors its own faces
    outside the memo, so its SVDs are not counted.
    """
    asked, factored, inside, face, factor = [], [], [], linalg._face, linalg._factor

    def memo(M):
        asked.append((M.shape, M.tobytes()))
        inside.append(M)
        try:
            return face(M)
        finally:
            inside.pop()

    def counted(M):
        if inside:
            factored.append((M.shape, M.tobytes()))
        return factor(M)

    monkeypatch.setattr(linalg, "_face", memo)
    monkeypatch.setattr(linalg, "_factor", counted)
    return asked, factored
