"""Dense null-space bases and Euclidean projections onto affine and polyhedral sets.

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
from .exceptions import DimensionMismatch, EmptyNullSpace, InfeasibleRegion, SingularSystem


@dataclass(frozen=True)
class NullSpaceBasis:
    """Orthonormal columns of Z span null(A); rank_A counts singular values above tol."""

    Z: np.ndarray
    rank_A: int

    @property
    def dim(self):
        return self.Z.shape[1]


def null_space_basis(A, tol_rank=1e-10):
    """Orthonormal basis of {d : A d = 0} via a rank-revealing SVD.

    Raises EmptyNullSpace when A has full column rank, in which case the
    feasible set {Ax = b} is a single point and the only feasible
    direction is zero.
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
        rank = int(np.sum(sig > tol_rank * smax))
    if rank == n:
        raise EmptyNullSpace(f"A has full column rank {n}; null space is trivial")
    Z = Vt[rank:].T.copy()
    return NullSpaceBasis(Z=Z, rank_A=rank)


def project_null(Z, v):
    """Z Z' v for a NullSpaceBasis Z: the component of v in the feasible directions."""
    Zm = Z.Z
    v = as_vector(v, name="v")
    if v.size != Zm.shape[0]:
        raise DimensionMismatch(f"v has length {v.size}, expected {Zm.shape[0]}")
    return Zm @ (Zm.T @ v)


def _normal_project(A, b, x):
    """(z, lam): z = x - A'lam, (AA') lam = Ax - b; SingularSystem when AA' is singular."""
    G = A @ A.T
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularSystem(f"AA' condition number {cond:.3e}")
    try:
        lam = np.linalg.solve(G, A @ x - b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return x - A.T @ lam, lam


def project_affine(A, b, x):
    """argmin_z ||z - x||  s.t.  Az = b, computed as x - A'(AA')^{-1}(Ax - b).

    A must have full row rank; a numerically singular AA' raises
    SingularSystem.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, A.shape[0], "b")
    x = as_vector(x, A.shape[1], "x")
    return _normal_project(A, b, x)[0]


def _project_on_faces(A, b, lb, x, W):
    """The projection of x onto {Az = b, z >= lb} found from a guessed active set W, or None.

    A try pins z_W = lb_W, projects x_F onto the rest of {Az = b} and is
    returned once it passes ``qpsolve.kkt_holds``.  Else W takes a primal-
    dual active-set step (Hintermueller, Ito and Kunisch, 2002): keep the
    pins with mu >= 0, pin the free entries below lb.  None when a face is
    singular, W stops moving, or 1 + n tries fail.
    """
    for _ in range(x.size + 1):
        F = ~W
        z = np.where(W, lb, x)
        try:
            z[F], lam = _normal_project(A[:, F], b - A[:, W] @ lb[W], x[F])
        except SingularSystem:
            return None
        mu = z - x + A.T @ lam  # the bound multipliers; zero on F up to rounding
        if qpsolve.kkt_holds(A, b, lb, z, F, z - x, np.where(F, mu, 0.0), np.where(W, mu, 0.0)):
            return z
        moved = (W & (mu >= 0.0)) | (F & (z < lb))
        if np.array_equal(moved, W):
            return None
        W = moved
    return None


def project_polyhedral(A, b, lower_bounds, x, active=None):
    """Euclidean projection of x onto {Az = b, z >= lower_bounds}.

    Reduces to project_affine when every bound is -inf.  ``active`` guesses
    the bounds the projection holds (e.g. a nearby point's ``z == lb``) for
    ``_project_on_faces``; without a guess, or when that finds nothing, the
    QP min ||z - x||^2 goes to the active-set engine.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, A.shape[0], "b")
    x = as_vector(x, A.shape[1], "x")
    lb = as_lower_bounds(lower_bounds, x.size)
    if lb is None or not np.any(np.isfinite(lb)):
        return project_affine(A, b, x)
    if active is not None:
        W = (as_vector(active, x.size, "active") != 0.0) & np.isfinite(lb)
        z = _project_on_faces(A, b, lb, x, W)
        if z is not None:
            return z
    res = qpsolve.solve_qp(np.eye(x.size), -x, A, b, lb=lb)
    if res.status != qpsolve.OPTIMAL:
        raise InfeasibleRegion("projection target region {Az=b, z>=lb} is empty")
    return res.x
