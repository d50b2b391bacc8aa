"""Stochastic conjugate subgradient solver for two-stage stochastic programs.

One iteration, starting from incumbent x with radius delta over the current
sample average F:

1. take a subgradient g of F — at the previous line search's exit point
   (which is the incumbent itself after an accepted step), so failed
   searches still feed far-side slope information back into the direction —
   and project it onto the null space of the active constraints (the
   equality rows plus any lower bounds the incumbent sits on), keeping
   search directions feasible; a single-point feasible set or face has a
   basis with no columns, so its projected subgradient is zero;
2. combine it with the previous direction: the new direction is the
   negative minimum-norm convex combination of the projected subgradient
   and the previous projected direction (a nonsmooth conjugate step; weight
   0 degenerates to the projected subgradient method);
3. if the direction norm is at or below ``eps``, probe each active bound
   once, along its enlarged-face steepest ray, for a release whose descent a
   function evaluation certifies; release and retry, or stop when none
   certifies descent.  After a failed search, also stop when the trial
   subgradients whose linearization error at x is at most eps delta have a
   minimum-norm aggregate within ``eps`` (Kiwiel);
4. line-search along the direction for a step that both decreases F enough
   (set L) and sufficiently flattens the directional derivative (set R),
   capped so trial points stay inside the radius-delta ball and above the
   variable lower bounds; when an inactive bound blocks the search before
   the derivative can flatten, the step to that boundary is taken on
   sufficient decrease alone and the bound joins the active set;
5. grow the sample so its size matches the Hoeffding schedule at the
   current radius; a found step whose direction norm clears eta2 delta (the
   radius test) then has its decrease re-tested on an independent same-size
   replication sample, drawn only for such a step (over a full support the
   radius test alone decides: the replication sample would be the support,
   on which the step already lowered F); accept (grow delta) or reject
   (shrink delta, keep the incumbent).

Sample sizes follow  ceil(-8 ln(eps_h/2) (M-m)^2 / (kappa^2 delta^4)),
which makes the sample average uniformly accurate to ~kappa delta^2 inside
the radius-delta ball with probability 1 - eps_h when h(x, omega) is
bounded in [m, M].
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg, model, oracle
from .base import ParamsMixin
from .exceptions import NonPositiveDelta
from .records import IterateRecord
from .rng import substream

# Constants the convergence theory bounds, fixed at values inside its ranges:
# the line-search pair 0.25 <= m2 < m1 < 0.5, the replication slack eta1 > 1,
# the radius factor gamma > 1, the schedule's failure probability
# 0 < kappa_eps < 1, and the activation thickness tau > 0 of the lower bounds.
_M1, _M2, _ETA1, _GAMMA, _KAPPA_EPS, _TAU = 0.4, 0.3, 2.0, 2.0, 0.05, 1e-6


# ---------------------------------------------------------------------------
# schedule / direction primitives

def hoeffding_bound(eps_h, spread, kappa, delta):
    """Real-valued sample-size requirement -8 ln(eps_h/2) spread^2 / (kappa^2 delta^4)."""
    if delta <= 0.0:
        raise NonPositiveDelta(f"delta must be positive, got {delta}")
    if not 0.0 < eps_h < 1.0:
        raise ValueError("eps_h must lie in (0, 1)")
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if spread < 0.0:
        raise ValueError("M - m must be nonnegative")
    return -8.0 * math.log(eps_h / 2.0) * spread**2 / (kappa**2 * delta**4)


def sample_size(eps_h, M_minus_m, kappa, delta, max_sample=None):
    """Integer sample size: the Hoeffding bound, ceiled and clamped to [1, max_sample]."""
    n = math.ceil(hoeffding_bound(eps_h, M_minus_m, kappa, delta))
    n = max(n, 1)
    if max_sample is not None:
        n = min(n, int(max_sample))
    return n


def lambda_star(g_tilde, d_prev_tilde):
    """Minimizer over [0,1] of ||lam (-d_prev) + (1-lam) g||^2.

    A zero previous direction (the first iteration) pins lam to 0 so the
    step degenerates to the projected subgradient; likewise when the
    objective is constant in lam.
    """
    g = np.asarray(g_tilde, dtype=float)
    d = np.asarray(d_prev_tilde, dtype=float)
    if float(np.linalg.norm(d)) <= 1e-14:
        return 0.0
    w = g + d
    if float(np.linalg.norm(w)) <= 1e-14:
        return 0.0
    lam = float(g @ w) / float(w @ w)
    return min(1.0, max(0.0, lam))


def conjugate_direction(g_tilde, d_prev_tilde):
    """(d, lam): minus the minimum-norm convex combination, and its weight."""
    g = np.asarray(g_tilde, dtype=float)
    d = np.asarray(d_prev_tilde, dtype=float)
    lam = lambda_star(g, d)
    return -(lam * (-d) + (1.0 - lam) * g), lam


def bundle_norm(Z, G, active):
    """min ||Z Z'(G'lam - sum_{i in active} mu_i e_i)|| over lam on the unit simplex, mu >= 0.

    The distance from 0 to the hull of the subgradient rows of G plus the normal
    cone of the active lower bounds, inside null(A) for its (n, k) orthonormal
    basis Z, by Wolfe's (1976) nearest-point loop.  Every iterate is feasible,
    so the norm returned bounds the minimum from above.
    """
    M = np.hstack([Z.T @ G.T, -Z[sorted(active)].T])  # ||Z Z'v|| = ||Z'v||
    hull = np.arange(M.shape[1]) < len(G)
    sq = np.einsum("ij,ij->j", M, M)
    z = (np.arange(M.shape[1]) == np.argmin(np.where(hull, sq, np.inf))).astype(float)
    for _ in range(4 * M.shape[1]):
        p = M @ z
        viol = M.T @ p - np.where(hull, p @ p, 0.0)  # < 0: column j moves p closer to 0
        j = int(np.argmin(viol))
        if viol[j] >= -1e-12 * (1.0 + sq.max()) or z[j] > 0.0:
            break
        S = np.append(np.flatnonzero(z), j)
        while True:  # the affine minimizer on S, stepping back into z >= 0 while it leaves
            K = np.block([[M[:, S].T @ M[:, S], hull[S, None]], [hull[None, S], 0.0]])
            w = np.linalg.lstsq(K, np.append(np.zeros(S.size), 1.0), rcond=None)[0][:-1]
            if w.min() >= 0.0:
                break
            zs, neg = z[S], np.flatnonzero(w < 0.0)
            ratio = zs[neg] / (zs[neg] - w[neg])
            k = int(np.argmin(ratio))
            z[S] = zs + ratio[k] * (w - zs)
            z[S[neg[k]]] = 0.0  # the blocking weight, exactly
            S = S[z[S] > 0.0]
        z[:] = 0.0
        z[S] = w
    return float(np.linalg.norm(M @ z))


def step_cap(x, d_tilde, delta, lower_bounds, active):
    """Largest step t_max keeping x + t d in the ball and above the lower bounds.

    The ratio test skips the ``active`` bounds, whose coordinates the
    direction keeps fixed.  Returns 0.0 when no strictly positive step is
    feasible.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d_tilde, dtype=float)
    dn = float(np.linalg.norm(d))
    if dn <= 0.0:
        raise ValueError("direction must be nonzero")
    t_ball = delta / dn
    t_bound = np.inf
    lb = np.asarray(lower_bounds, dtype=float)
    dec = (d < -1e-13 * (1.0 + np.abs(d).max())) & np.isfinite(lb)
    for i in np.flatnonzero(dec):
        if i not in active:
            t_bound = min(t_bound, (x[i] - lb[i]) / (-d[i]))
    t_max = min(t_ball, t_bound)
    return 0.0 if t_max <= 1e-14 * max(1.0, t_ball) else t_max


@dataclass
class LineSearchResult:
    success: bool
    t: float = 0.0
    x_new: np.ndarray | None = None
    reason: str = ""
    n_evals: int = 0
    f_before: float = np.nan
    f_after: float = np.nan
    trials: list = field(default_factory=list)  # (x_j, F(x_j), a subgradient at x_j)
    boundary: bool = False  # step taken to a blocking bound on decrease alone
    x_cut: np.ndarray | None = None  # trial with the largest directional derivative


def line_search(F, Z, x, d_tilde, m1, m2, t_max, accept_boundary=False, boundary_floor=0.0):
    """Bracketing bisection for a step in L and R along d_tilde.

    L:  F(x + t d) - F(x) <= -m2 t ||d||^2   (enough decrease)
    R:  0 > <Z Z' g(t), d> >= -m1 ||d||^2    (flattened but still descending)

    Starts at t_max and maintains [t_lo, t_hi]: a point outside L (or past
    the minimum along the ray) shrinks t_hi, a point inside L whose
    directional derivative is still too steep raises t_lo.  The bracket
    halves on every trial after the first, so it collapses below 1e-7 t_max
    by the 25th trial.  Failure reasons: ``no_descent`` when no trial
    improved on F(x) at all, ``max_bisections`` (the bracket collapsed)
    otherwise; both are routed to the caller's rejection branch.  Every
    trial is returned with its value and subgradient, for a bundle test.

    With ``accept_boundary``, a first trial that achieves sufficient
    decrease at the cap while the derivative is still steeper than R allows
    is returned as a boundary step: the flattening condition is unreachable
    inside the capped segment, and sufficient decrease is what the theory
    guarantees for steps that run into a constraint or the sampling-radius
    boundary.  The caller grows the radius after accepted steps, so a
    radius-capped boundary step self-corrects the cap.  ``boundary_floor``
    suppresses boundary steps whose move t_max ||d|| is microscopic: those
    make no real progress and would only disturb the search state.
    """
    d = np.asarray(d_tilde, dtype=float)
    dsq = float(d @ d)
    if dsq <= 0.0 or not t_max > 0.0:
        raise ValueError("line search needs a nonzero direction and positive t_max")
    f0 = F.value(x)
    t_lo, t_hi = 0.0, float(t_max)
    t = float(t_max)
    any_descent = False
    trials = []
    x_cut, gd_cut = None, -np.inf
    while True:
        xt = x + t * d
        ft, gt = F.value_and_subgrad(xt)
        trials.append((xt, ft, gt))
        if ft < f0:
            any_descent = True
        in_L = (ft - f0) <= -m2 * t * dsq
        gd = float(linalg.project_null(Z, gt) @ d)
        if gd > gd_cut:
            gd_cut, x_cut = gd, xt
        if in_L and (0.0 > gd >= -m1 * dsq):
            return LineSearchResult(True, t, xt, "ok", len(trials), f0, ft, trials)
        if (accept_boundary and len(trials) == 1 and in_L and gd < -m1 * dsq
                and t * math.sqrt(dsq) > boundary_floor):
            return LineSearchResult(True, t, xt, "boundary", 1, f0, ft, trials, boundary=True)
        if (not in_L) or gd >= 0.0:
            t_hi = t
        else:
            t_lo = t
        # A relatively collapsed bracket cannot separate L from R anymore
        # (the window is squeezed onto a kink); stop burning evaluations.
        if t_hi - t_lo <= 1e-7 * t_max:
            break
        t = 0.5 * (t_lo + t_hi)
    reason = "max_bisections" if any_descent else "no_descent"
    # On failure the most useful subgradient for the next convex combination
    # is the one that cuts the current direction hardest (largest <g(t), d>).
    return LineSearchResult(False, 0.0, None, reason, len(trials), f0, np.nan, trials,
                            x_cut=x_cut)


def acceptance_test(F_S, F_T, x_cand, x_hat_prev, eta1):
    """Replication test gating incumbent moves.

    The in-sample decrease must be matched, up to the factor eta1, by the
    decrease measured on the independent same-size sample:

        eta1 * (F_T(x_cand) - F_T(x_hat)) <= F_S(x_cand) - F_S(x_hat)

    The caller runs it only for a step whose direction norm cleared
    eta2 * delta (the radius test), so the replication sample is drawn only
    for such a step, and skips it over a full finite support: there F_T would
    be F_S, on which a found step already decreased, and eta1 > 1.
    """
    lhs = eta1 * (F_T.value(x_cand) - F_T.value(x_hat_prev))
    rhs = F_S.value(x_cand) - F_S.value(x_hat_prev)
    return bool(lhs <= rhs)


# ---------------------------------------------------------------------------
# solver

def _face_rows(problem, active):
    """(M, idx): the equality rows stacked over e_i' for the active bounds i in idx."""
    idx = sorted(active)
    return np.vstack([problem.A, np.eye(problem.n1)[idx]]), idx


def _joined(S, more):
    """The i.i.d. draws of S followed by those of ``more``, each weighted 1/n."""
    n = len(S) + len(more)
    atoms = None if S.atoms is None else np.concatenate([S.atoms, more.atoms])
    return model.ScenarioSet(np.concatenate([S.xi, more.xi]), np.concatenate([S.C, more.C]),
                             np.full(n, 1.0 / n), atoms)


@dataclass
class IterationDiagnostics:
    k: int
    lam: float
    g_norm: float
    dot_dg: float
    d_norm: float
    t_max: float
    ls_reason: str  # the search's; a stop is "terminated" (direction) or "certified" (bundle)
    ls_evals: int
    f_before: float
    f_after: float
    accepted: bool
    atoms: int  # rows of F_S after the iteration: its distinct atoms (``sample_size`` counts draws)


class ScsSolver(ParamsMixin):
    """Adaptive-sampling conjugate subgradient solver (estimator-style API).

    Parameters
    ----------
    eps : termination threshold on the direction norm and on the bundle norm.
    eta2 : radius-test constant, > 0: only a step whose direction norm
        exceeds eta2 * delta can move the incumbent.
    delta0, delta_max : initial radius and its cap.
    delta_min : radius floor applied on rejections, at most delta0 (None:
        min(delta0 / 1000, 0.1 * eps / eta2)).
        The sampling schedule's accuracy argument presupposes a positive
        smallest radius; without a floor, a run whose sample size is capped
        can shrink the radius geometrically and strangle its own steps.
    bound_lo, bound_hi : declared bounds [m, M] on the recourse value; None
        falls back to the instance's declared bounds, then to (0, 1).
    max_iter, max_sample : iteration and sample-size caps.
    sampling : "iid" grows a cumulative i.i.d. sample per the schedule;
        "full" uses the exact finite support (requires discrete marginals).
    track_trials : record every line-search trial point (feasibility audits).
    record_wall_time : measure per-iteration wall time; False writes 0.0,
        keeping emitted logs byte-reproducible.

    The theory's other constants are fixed (module constants): line-search
    constants m1 = 0.4 and m2 = 0.3, replication slack eta1 = 2, radius
    growth/shrink factor gamma = 2, the schedule's failure probability
    kappa_eps = 0.05, and the activation thickness tau = 1e-6: every finite
    bound the incumbent lies within tau * (1 + max|x0|) of is treated as
    active, whatever the direction, and the incumbent is projected onto it.
    The schedule's accuracy constant ``kappa_`` comes from a small pilot
    sample as max(4 * Lhat / delta0, 1), Lhat being the largest subgradient
    norm seen at the starting point; under "full" sampling no schedule runs,
    no pilot is drawn, and ``kappa_`` is None.

    Attributes set by fit: ``x_``, ``history_``, ``x_path_``,
    ``diagnostics_``, ``trial_points_``, ``converged_``, ``status_``,
    ``n_iter_``, ``kappa_``, ``null_space_``, ``f_in_sample_``, ``d_norm_``.
    ``status_`` is "converged" (a norm rule stopped the fit) or "max_iter".
    Each ``history_`` record carries f_eval NaN; ``x_path_`` holds the
    incumbent it describes, so a held-out estimate can be scored after the
    fit (the harness does), and ends at ``x_``.
    ``null_space_`` is the (n1, k) array ``linalg.null_space_basis(A)``,
    whose rank counts the singular values of A above 1e-10 of the largest.
    A single-point feasible set has a ``null_space_`` with no columns: its
    first direction is zero, so it stops "converged" at k = 1.
    """

    def __init__(self, eps=1e-3, eta2=0.1, delta0=1.0, delta_max=100.0, delta_min=None,
                 bound_lo=None, bound_hi=None, max_iter=500, max_sample=2000, seed=0,
                 sampling="iid", track_trials=True, record_wall_time=True):
        self.eps = eps
        self.eta2 = eta2
        self.delta0 = delta0
        self.delta_max = delta_max
        self.delta_min = delta_min
        self.bound_lo = bound_lo
        self.bound_hi = bound_hi
        self.max_iter = max_iter
        self.max_sample = max_sample
        self.seed = seed
        self.sampling = sampling
        self.track_trials = track_trials
        self.record_wall_time = record_wall_time

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if not self.eta2 > 0.0:
            raise ValueError("eta2 must be positive")
        if not 0.0 < self.delta0 <= self.delta_max:
            raise ValueError("need 0 < delta0 <= delta_max")
        if self.delta_min is not None and self.delta_min > self.delta0:
            raise ValueError("delta_min must not exceed delta0")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1 or self.max_sample < 1:
            raise ValueError("max_iter and max_sample must be >= 1")
        if self.sampling not in ("iid", "full"):
            raise ValueError("sampling must be 'iid' or 'full'")

    def _recourse_bounds(self, problem):
        lo = self.bound_lo if self.bound_lo is not None else problem.recourse_lo
        hi = self.bound_hi if self.bound_hi is not None else problem.recourse_hi
        if lo is None:
            lo = 0.0
        if hi is None:
            hi = 1.0
        if hi < lo:
            raise ValueError(f"recourse bounds out of order: [{lo}, {hi}]")
        return float(lo), float(hi)

    def _pilot_kappa(self, problem, x0):
        v = oracle.pilot(problem, self.seed)._solutions(x0)[:, 1:]
        L_hat = float(np.linalg.norm(problem.Q @ x0 + problem.c + v, axis=1).max())
        return max(4.0 * L_hat / self.delta0, 1.0)

    # -- active lower bounds --------------------------------------------------

    @staticmethod
    def _face_basis(problem, active):
        """Null-space basis of the equality rows plus the active bounds (no columns at a point)."""
        return linalg.null_space_basis(_face_rows(problem, active)[0])

    @staticmethod
    def _pin_to_face(problem, x, active):
        """Orthogonal projection onto {Ax = b, x_i = lb_i for active i}.

        Used after a bound is declared active while the incumbent sits within
        the activation thickness of it: moving the coordinate alone would
        leave {Ax = b}, so the whole point is corrected.
        """
        if not active:
            return x
        M, idx = _face_rows(problem, active)
        z = x - linalg._face(M).pinv @ (M @ x - np.concatenate([problem.b, problem.lower_bounds[idx]]))
        z[idx] = problem.lower_bounds[idx]
        return z

    def _release_candidate(self, problem, F_S, x_hat, active, delta):
        """(bound index, unit descent direction) with the steepest certified release, or None.

        The oracle hands back one element of a possibly large subdifferential,
        so multiplier estimates are unreliable at kinks.  Instead F is
        evaluated once along each enlarged-face steepest ray that leaves its
        bound.  For a convex F the average slope (F(x + t u) - F(x)) / t does
        not decrease as t grows, so the shortest step certifies the most, and
        a slope below -eps certifies descent whatever subgradient was picked.
        """
        f0 = F_S.value(x_hat)
        g_inc = F_S.subgrad(x_hat)
        lb = problem.lower_bounds
        tau0 = 1e-6 * (1.0 + float(np.linalg.norm(x_hat)))
        reach = max(delta, self.delta0)
        best, best_rate = None, -self.eps
        for i in sorted(active):
            Zr = self._face_basis(problem, active - {i})
            steepest = -linalg.project_null(Zr, g_inc)
            nd = float(np.linalg.norm(steepest))
            if nd <= 1e-12 or steepest[i] <= 1e-9 * nd:
                continue
            direction = steepest / nd
            # Half the distance to the nearest bound the ray falls towards, or the reach.
            falling = np.isfinite(lb) & (direction < -1e-12)
            t_cap = np.min(0.5 * (x_hat - lb)[falling] / -direction[falling], initial=reach)
            t = min(tau0, 0.1 * t_cap)
            rate = (F_S.value(x_hat + t * direction) - f0) / t
            if rate < best_rate:
                best, best_rate = (i, direction), rate
        return best

    def _release_step(self, x_hat, lb, thickness, i, direction):
        """Step off bound i far enough to clear the activation thickness.

        The step is shortened when another inactive bound is closer than the
        clearance would require, so it stays strictly feasible.
        """
        step = 2.0 * thickness / direction[i]
        falling = np.isfinite(lb) & (direction < -1e-12)
        for j in np.flatnonzero(falling):
            step = min(step, 0.4 * (x_hat[j] - lb[j]) / (-direction[j]))
        return x_hat + step * direction

    def fit(self, problem):
        self._validate()
        lo, hi = self._recourse_bounds(problem)
        spread = hi - lo
        x0 = model.initial_feasible_point(problem)
        lb = problem.lower_bounds

        self.history_ = []
        self.x_path_ = []
        self.diagnostics_ = []
        self.trial_points_ = []

        Z = self.null_space_ = linalg.null_space_basis(problem.A)
        if self.sampling == "full":
            self.kappa_ = None  # only the i.i.d. schedule reads it
            S = model.enumerate_support(problem)
        else:
            self.kappa_ = self._pilot_kappa(problem, x0)
            n0 = sample_size(_KAPPA_EPS, spread, self.kappa_, self.delta0, self.max_sample)
            S = model.draw_scenarios(problem, substream(self.seed, "grow", 0), n0)
        F_S = oracle.SaaFunction(problem, S)

        x_hat = x0
        scale0 = 1.0 + float(np.abs(x0).max(initial=0.0))
        thickness = _TAU * scale0
        if self.delta_min is not None:
            delta_floor = self.delta_min
        else:
            # Keep the floor low enough that the norm condition
            # ||d|| > eta2 * delta can still pass near termination.
            delta_floor = min(self.delta0 * 1e-3, 0.1 * self.eps / self.eta2)
        active = frozenset()
        Z_face = self._face_basis(problem, active)
        d_prev = np.zeros(problem.n1)
        delta = float(self.delta0)
        status = "max_iter"
        bundle, bundle_at, bundle_n = [], None, 0  # (x_j, f_j, g_j) of the trials at x_hat
        g_carry = None  # subgradient carried from the previous line search's exit point
        stale_count = 0
        k = 0
        while k < self.max_iter:
            k += 1
            tic = time.perf_counter() if self.record_wall_time else 0.0

            # Epsilon-active set: every bound the incumbent sits within the
            # activation thickness of is pinned (the incumbent is projected
            # onto that face, keeping the equality rows exact).
            close = np.isfinite(lb) & (x_hat - lb <= thickness)
            new_active = frozenset(np.flatnonzero(close).tolist())
            if new_active != active:
                active = new_active
                x_hat = self._pin_to_face(problem, x_hat, active)
                Z_face = self._face_basis(problem, active)
                d_prev = np.zeros(problem.n1)
                g_carry = None

            g = g_carry if g_carry is not None else F_S.subgrad(x_hat)

            # Direction on the current face.  When it collapses, either
            # release a bound (taking a small certified-descent step off it)
            # or stop.  Each release shrinks the active set, so the loop ends.
            ls = None  # set here when the direction norm stops the fit
            t_max = 0.0
            while True:
                g_t = linalg.project_null(Z_face, g)
                d, lam = conjugate_direction(g_t, linalg.project_null(Z_face, d_prev))
                dn = float(np.linalg.norm(d))
                if dn > self.eps:
                    break
                cand = self._release_candidate(problem, F_S, x_hat, active, delta) if active else None
                if cand is None:
                    ls = LineSearchResult(False, reason="terminated", f_before=F_S.value(x_hat))
                    break
                i_rel, rel_dir = cand
                x_hat = self._release_step(x_hat, lb, thickness, i_rel, rel_dir)
                active = active - {i_rel}
                Z_face = self._face_basis(problem, active)
                d_prev = np.zeros(problem.n1)
                g = F_S.subgrad(x_hat)
            dot_dg = float(d @ g_t)

            # Bundle: every trial at this incumbent on this sample, tested before the
            # sample grows.  alpha_j = F(x_hat) - f_j - g_j'(x_hat - x_j) makes g_j an
            # alpha_j-subgradient at x_hat; alpha_j <= eps delta bounds the aggregate's.
            if ls is None:
                t_max = step_cap(x_hat, d, delta, lb, active)
                if t_max > 0.0:
                    ls = line_search(F_S, Z_face, x_hat, d, _M1, _M2, t_max,
                                     accept_boundary=True, boundary_floor=thickness)
                else:
                    ls = LineSearchResult(False, reason="zero_cap", f_before=F_S.value(x_hat))
                if self.track_trials:
                    self.trial_points_.extend(x_j for x_j, _, _ in ls.trials)
                if bundle_at is not x_hat or bundle_n != len(F_S):
                    bundle, bundle_at, bundle_n = [], x_hat, len(F_S)
                bundle.extend(ls.trials)
                if not ls.success and bundle:
                    X, f, G = (np.array(part) for part in zip(*bundle))
                    alpha = ls.f_before - f - np.einsum("ij,ij->i", G, x_hat - X)
                    G = list({row.tobytes(): row for row in G[alpha <= self.eps * delta]}.values())
                    if G and (p_norm := bundle_norm(Z, np.array(G), active)) <= self.eps:
                        dn, ls.reason = p_norm, "certified"
            # A stop records the incumbent and leaves.  Otherwise the sample
            # grows, and a found step that clears the radius test is re-tested
            # on an independent same-size sample; over a full support that
            # sample is the support, on which the step already decreased, so
            # the radius test alone decides.
            stop = ls.reason in ("terminated", "certified")
            accepted = False
            if not stop:
                if self.sampling == "iid":
                    target = sample_size(_KAPPA_EPS, spread, self.kappa_, delta, self.max_sample)
                    if target > len(F_S):
                        S = _joined(S, model.draw_scenarios(
                            problem, substream(self.seed, "grow", k), target - len(F_S)))
                        F_S = F_S.sibling(S)
                if ls.success and dn > self.eta2 * delta:
                    accepted = self.sampling == "full" or acceptance_test(
                        F_S, F_S.sibling(model.draw_scenarios(
                            problem, substream(self.seed, "test_set", k), len(F_S))),
                        ls.x_new, x_hat, _ETA1)
                if accepted:
                    # New bounds the step landed on are picked up by the
                    # epsilon-active refresh at the top of the next iteration.
                    x_hat = ls.x_new
                    delta = min(_GAMMA * delta, self.delta_max)
                else:
                    delta = max(delta / _GAMMA, delta_floor)
                # Subgradient for the next direction, on the grown sample: the
                # (possibly new) incumbent, or after a failed search the
                # hardest-cutting trial point, so the far-side slope of a kink
                # between the brackets lets the direction shrink or turn along
                # the kink instead of stalling.
                g_carry = F_S.subgrad(ls.x_cut if ls.x_cut is not None else x_hat)
            wall = (time.perf_counter() - tic) * 1e3 if self.record_wall_time else 0.0
            self.history_.append(IterateRecord(
                k=k, f_S=F_S.value(x_hat), f_eval=float("nan"), d_norm=dn, delta=delta,
                sample_size=len(F_S), step_t=ls.t if ls.success else 0.0, accepted=accepted,
                wall_ms=wall))
            self.x_path_.append(x_hat)
            self.diagnostics_.append(IterationDiagnostics(
                k=k, lam=lam, g_norm=float(np.linalg.norm(g_t)), dot_dg=dot_dg, d_norm=dn,
                t_max=t_max, ls_reason=ls.reason, ls_evals=ls.n_evals, f_before=ls.f_before,
                f_after=ls.f_before if stop else ls.f_after, accepted=accepted,
                atoms=len(F_S.scenarios)))
            if stop:
                status = "converged"
                break
            if accepted and not ls.boundary:
                # Serious step: restart the convex combination.  Conjugacy
                # is only meaningful across null steps at one incumbent;
                # keeping a (possibly tiny) stale direction after a move
                # would dominate every later minimum-norm combination.
                # Boundary (cap-extension) steps keep the memory: they end
                # where the cap ended, not where the search was done.
                d_prev = np.zeros(problem.n1)
                stale_count = 0
            elif not accepted and float(np.linalg.norm(d - d_prev)) <= 1e-12 * (1.0 + dn):
                # The combination reproduced itself through a failed search:
                # no new slope information arrived.  Drop the memory so the
                # next direction restarts from the raw projected subgradient.
                stale_count += 1
                if stale_count >= 2:
                    d_prev = np.zeros(problem.n1)
                    g_carry = None
                    stale_count = 0
                else:
                    d_prev = d
            else:
                d_prev = d
                stale_count = 0

        self.x_ = x_hat
        self.converged_ = status == "converged"
        self.status_ = status
        self.n_iter_ = k
        self.f_in_sample_ = F_S.value(x_hat)
        self.d_norm_ = self.history_[-1].d_norm
        return self
