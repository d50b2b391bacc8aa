"""Estimator plumbing and input validation helpers."""

import inspect

import numpy as np

from .exceptions import DimensionMismatch


class ParamsMixin:
    """get_params/set_params support following scikit-learn conventions.

    Parameters are exactly the keyword arguments of ``__init__``, stored
    under attributes of the same name and never mutated by ``fit``; fitted
    state goes into trailing-underscore attributes.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"unknown parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({args})"


def check_finite(arr, name):
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def as_matrix(value, name="matrix", shape=None):
    arr = np.array(value, dtype=float, copy=True)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    check_finite(arr, name)
    if shape is not None and arr.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def as_vector(value, n=None, name="vector"):
    arr = np.array(value, dtype=float, copy=True).reshape(-1)
    check_finite(arr, name)
    if n is not None and arr.size != n:
        raise DimensionMismatch(f"{name} must have length {n}, got {arr.size}")
    return arr


def as_lower_bounds(value, n):
    """A length-n vector of bounds that are finite or -inf; None gives n entries of -inf."""
    if value is None:
        return np.full(n, -np.inf)
    lb = np.asarray(value, dtype=float).reshape(-1)
    if lb.size != n:
        raise DimensionMismatch(f"lower_bounds has length {lb.size}, expected {n}")
    if not (lb < np.inf).all():  # False at NaN and +inf alike
        raise ValueError("lower_bounds entries must be finite or -inf")
    return lb
