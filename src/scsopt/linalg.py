"""One SVD per face {Mz = r}, and the Euclidean projection onto a polyhedral set.

Feasible directions for an equality-constrained problem {x : Ax = b} live in
null(A).  An orthonormal basis Z of that null space turns Z Z' into an exact
orthogonal projector, so projected vectors satisfy A (Z Z' v) = 0 to machine
precision and projection is idempotent; everything downstream leans on those
two identities.
"""

from typing import NamedTuple

import numpy as np

from . import qpsolve
from .base import as_lower_bounds, as_matrix, as_vector
from .exceptions import DimensionMismatch, InfeasibleRegion


class _Face(NamedTuple):
    """A factored face {M z = r}: Z spans null(M), pinv is M^+, cond is M's on its rank."""

    Z: np.ndarray  # orthonormal columns
    pinv: np.ndarray  # pinv @ r is the least-change p with M p = r (least squares off the range)
    cond: float  # the largest singular value over the smallest kept; 1.0 at rank 0


_FACE_LIMIT = 32  # first-stage faces; a benchmark SGD/SMD fit visits at most 13
_faces = {}  # (shape, bytes of M) -> read-only _Face, least recently used first


def _factor(M):
    """The face of M by one SVD, with the package's one rank rule: sig > 1e-10 max(sig)."""
    U, sig, Vt = np.linalg.svd(M)
    k = int(np.sum(sig > 1e-10 * sig.max(initial=0.0)))
    pinv = Vt[:k].T @ (U[:, :k].T / sig[:k, None])
    return _Face(Vt[k:].T.copy(), pinv, sig[0] / sig[k - 1] if k else 1.0)


def _face(M):
    """``_factor(M)``, memoized process-wide by M's bytes: read-only, bit-equal to a fresh SVD."""
    key = (M.shape, M.tobytes())
    face = _faces.pop(key, None)
    if face is None:
        face = _factor(M)
        face.Z.flags.writeable = face.pinv.flags.writeable = False
        if len(_faces) >= _FACE_LIMIT:
            del _faces[next(iter(_faces))]
    _faces[key] = face
    return face


def null_space_basis(A):
    """(n, k) orthonormal columns spanning {d : A d = 0}, a writable copy of ``_face``'s Z.

    The rank counts the singular values above 1e-10 times the largest; no
    rows give Z = I.  When A has full column rank the basis has zero
    columns: {Ax = b} is a single point, and every projection onto it is
    the zero direction.
    """
    A = as_matrix(A, "A")
    if A.shape[1] < 1:
        raise DimensionMismatch("A must have at least one column")
    return _face(A).Z.copy()


def project_null(Z, v):
    """Z Z' v for the (n, k) basis Z and a vector v of n floats: its component in span(Z)."""
    return Z @ (Z.T @ v)


def project_polyhedral(A, b, lower_bounds, x):
    """Euclidean projection of x onto {Az = b, z >= lower_bounds}; None bounds mean -inf.

    Every call checks its inputs: A, b and x finite (else ValueError),
    lower_bounds finite or -inf (else ValueError), and b, x and the bounds
    of A's sizes (else DimensionMismatch).

    A try pins z_W = lb_W and projects x_F onto the rest of {Az = b} by the
    SVD of A_F, taken once per face (``_face``): the step is the least-change
    solution of A_F p = A_F x_F - (b - A_W lb_W), so the point is good to
    about eps cond(A_F); redundant rows and no rows need nothing special.
    The first try pins nothing, so it is the affine projection, on A and b
    as given; F, A_F and b - A_W lb_W are rebuilt only when W moves.  A try
    is returned once it passes ``qpsolve.kkt_holds``, given the bound
    multipliers on F as the residual and those on W for their sign.  Else W
    takes a primal-dual active-set step (Hintermueller, Ito and Kunisch,
    2002): keep the pins with mu >= 0 and pin the free entry furthest below
    its bound.  A face with cond(A_F) above 1e7, pins that stop moving or
    1 + n failed tries hand the QP min ||z - x||^2 to the active-set engine.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, A.shape[0], "b")
    x = as_vector(x, A.shape[1], "x")
    lb = as_lower_bounds(lower_bounds, x.size)
    W = np.zeros(x.size, dtype=bool)
    # No pins yet: A_F is A in the column-major layout A[:, F] has (its products
    # round by layout), and A_W lb_W is +0.0, so r = b bit for bit.
    F, AF, xF, r = ~W, np.asfortranarray(A), x, b
    for _ in range(x.size + 1):
        face = _face(AF)
        if face.cond > 1e7:
            break
        step = face.pinv @ (AF @ xF - r)
        lam = face.pinv.T @ step  # the least-norm lam with A_F' lam = step: the row multipliers
        z = np.where(W, lb, x)
        z[F] = xF - step
        dz = z - x
        mu = dz + A.T @ lam  # the bound multipliers; zero on F up to rounding
        if qpsolve.kkt_holds(A, b, lb, z, F, dz, mu[F], mu[W]):
            return z
        moved = W & (mu >= 0.0)
        gap = np.where(F, z - lb, np.inf)
        worst = gap.argmin()
        if gap[worst] < 0.0:
            moved[worst] = True
        if np.array_equal(moved, W):
            break
        W, F = moved, ~moved
        AF, xF, r = A[:, F], x[F], b - A[:, W] @ lb[W]
    res = qpsolve.solve_qp(np.eye(x.size), -x, A, b, lb=lb)
    if res.status != qpsolve.OPTIMAL:
        raise InfeasibleRegion("projection target region {Az=b, z>=lb} is empty")
    return res.x
