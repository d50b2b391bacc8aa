"""Dense null-space bases and the Euclidean projection onto a polyhedral set.

Feasible directions for an equality-constrained problem {x : Ax = b} live in
null(A).  An orthonormal basis Z of that null space turns Z Z' into an exact
orthogonal projector, so projected vectors satisfy A (Z Z' v) = 0 to machine
precision and projection is idempotent; everything downstream leans on those
two identities.
"""

from dataclasses import dataclass

import numpy as np

from . import qpsolve
from .base import as_lower_bounds, as_matrix, as_vector
from .exceptions import DimensionMismatch, InfeasibleRegion


@dataclass(frozen=True)
class NullSpaceBasis:
    """Orthonormal columns Z spanning null(A), so that Z Z' is the orthogonal projector."""

    Z: np.ndarray


def null_space_basis(A):
    """Orthonormal basis of {d : A d = 0} via a rank-revealing SVD.

    The rank counts the singular values above 1e-10 times the largest.
    When A has full column rank the basis has zero columns: {Ax = b} is a
    single point, and every projection onto it is the zero direction.
    """
    A = as_matrix(A, "A")
    m, n = A.shape
    if m < 1 or n < 1:
        raise DimensionMismatch("A must have at least one row and one column")
    _, sig, Vt = np.linalg.svd(A)
    smax = float(sig[0]) if sig.size else 0.0
    if smax == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sig > 1e-10 * smax))
    return NullSpaceBasis(Vt[rank:].T.copy())


def project_null(Z, v):
    """Z Z' v for a float vector v with one entry per row of Z: its component in span(Z)."""
    return Z.Z @ (Z.Z.T @ v)


def project_polyhedral(A, b, lower_bounds, x):
    """Euclidean projection of x onto {Az = b, z >= lower_bounds}; None bounds mean -inf.

    A try pins z_W = lb_W and projects x_F onto the rest of {Az = b}; the
    first pins nothing, so it is the affine projection.  A try is returned
    once it passes ``qpsolve.kkt_holds``.  Else W takes a primal-dual
    active-set step (Hintermueller, Ito and Kunisch, 2002): keep the pins
    with mu >= 0 and pin the free entry furthest below its bound.  A
    singular face, pins that stop moving or 1 + n failed tries hand the QP
    min ||z - x||^2 to the active-set engine, which also copes with
    redundant rows.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, A.shape[0], "b")
    x = as_vector(x, A.shape[1], "x")
    lb = as_lower_bounds(lower_bounds, x.size)
    if lb is None:
        lb = np.full(x.size, -np.inf)
    W = np.zeros(x.size, dtype=bool)
    for _ in range(x.size + 1):
        F = ~W
        AF = A.compress(F, axis=1)  # C order like A: W empty gives the affine formula bit for bit
        G = AF @ AF.T
        cond = np.linalg.cond(G)
        if not np.isfinite(cond) or cond > 1e14:
            break  # a singular face
        lam = np.linalg.solve(G, AF @ x[F] - (b - A[:, W] @ lb[W]))
        z = np.where(W, lb, x)
        z[F] = x[F] - AF.T @ lam
        mu = z - x + A.T @ lam  # the bound multipliers; zero on F up to rounding
        if qpsolve.kkt_holds(A, b, lb, z, F, z - x, np.where(F, mu, 0.0), np.where(W, mu, 0.0)):
            return z
        moved = W & (mu >= 0.0)
        gap = np.where(F, z - lb, np.inf)
        worst = int(np.argmin(gap))
        if gap[worst] < 0.0:
            moved[worst] = True
        if np.array_equal(moved, W):
            break
        W = moved
    res = qpsolve.solve_qp(np.eye(x.size), -x, A, b, lb=lb)
    if res.status != qpsolve.OPTIMAL:
        raise InfeasibleRegion("projection target region {Az=b, z>=lb} is empty")
    return res.x
