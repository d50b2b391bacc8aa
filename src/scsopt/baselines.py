"""Projected stochastic subgradient descent and (Euclidean) stochastic mirror descent.

Both baselines consume identical scenario streams for identical seeds and
batch schedules: batch k always comes from the ("batch", k) substream of the
master seed, independent of which solver is running.  That is the fairness
contract the comparison harness relies on.

A fit sets ``x_``, ``history_``, ``x_path_``, ``n_iter_``, ``status_`` and
``converged_``.  ``history_`` has one record per step, with f_eval NaN: the
harness scores held-out estimates after the fit, at the point each record
describes, which ``x_path_`` holds (the iterate for SGD, the running average
for SMD); its last entry is ``x_``.
"""

import time

import numpy as np

from . import linalg, model, oracle
from .base import ParamsMixin
from .records import IterateRecord
from .rng import substream


class _BaselineSolver(ParamsMixin):
    uniform_average = False  # report the uniform average of the iterates, not the last

    def __init__(self, c=None, batch=8, iters=200, seed=0, record_wall_time=True):
        self.c = c
        self.batch = batch
        self.iters = iters
        self.seed = seed
        self.record_wall_time = record_wall_time

    def _validate(self):
        if self.c is not None and not self.c > 0.0:
            raise ValueError("c must be positive")
        if self.batch < 1 or self.iters < 1:
            raise ValueError("batch and iters must be >= 1")

    def fit(self, problem):
        self._validate()
        x = model.initial_feasible_point(problem)
        lb = problem.lower_bounds
        base = self._base_step(problem, x)
        x_sum = x.copy()
        self.history_, self.x_path_ = [], []
        for k in range(1, self.iters + 1):
            tic = time.perf_counter() if self.record_wall_time else 0.0
            batch = model.draw_scenarios(problem, substream(self.seed, "batch", k), self.batch)
            F = oracle.SaaFunction(problem, batch) if k == 1 else F.sibling(batch)
            g = F.subgrad(x)
            alpha = base / np.sqrt(k)
            x = linalg.project_polyhedral(problem.A, problem.b, lb, x - alpha * g)
            x_sum += x
            rep = x_sum / (k + 1) if self.uniform_average else x
            f_S = F.value(rep)
            wall = (time.perf_counter() - tic) * 1e3 if self.record_wall_time else 0.0
            self.history_.append(IterateRecord(
                k=k, f_S=f_S, f_eval=float("nan"), d_norm=float(np.linalg.norm(g)),
                delta=0.0, sample_size=self.batch, step_t=alpha, accepted=True,
                wall_ms=wall))
            self.x_path_.append(rep)
        self.x_ = rep
        self.n_iter_ = self.iters
        self.status_ = "max_iter"
        self.converged_ = False
        return self


class SgdSolver(_BaselineSolver):
    """Projected stochastic subgradient descent: x <- proj(x - alpha_k g_k).

    alpha_k is ``c / sqrt(k)``; when c is None, c is set from a pilot
    estimate of domain radius over subgradient norm.  g_k is a batch
    sample-average subgradient; proj is the Euclidean projection onto
    {Ax = b} intersected with the lower bounds when present.  The fit
    reports the last iterate.
    """

    def _base_step(self, problem, x0):
        """c, or a pilot estimate of domain radius over subgradient norm at x0."""
        if self.c is not None:
            return float(self.c)
        g_hat = float(np.linalg.norm(oracle.pilot(problem, self.seed).subgrad(x0)))
        return (1.0 + float(np.linalg.norm(x0))) / max(g_hat, 1e-8)


class SmdSolver(_BaselineSolver):
    """Stochastic mirror descent with the Euclidean distance-generating function.

    The prox step then coincides with a projected subgradient step of size
    c / sqrt(k), where c stands for the method's domain-diameter constant
    over the bound on the subgradient norm it requires up front (None takes
    1 + ||x0||, x0 the starting point, for a subgradient-norm bound of 1).
    The fit reports the uniform average of the iterates.
    """

    uniform_average = True

    def _base_step(self, problem, x0):
        return float(self.c) if self.c is not None else 1.0 + float(np.linalg.norm(x0))
