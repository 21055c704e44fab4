"""Spatial correlation of systematic within-die variation.

The VARIUS model [26] correlates the systematic component of ``Vt`` (and
``Leff``) between two points using an isotropic, position-independent
function of distance only, which decays to zero at a distance ``phi``
(the *range*).  We use the spherical correlogram — the standard choice in
VARIUS — which has exactly that property::

    rho(r) = 1 - 1.5*(r/phi) + 0.5*(r/phi)^3     for r <= phi
    rho(r) = 0                                    for r >  phi

Distances are expressed as fractions of the die width, matching the
paper's ``phi = 0.5``.
"""

from __future__ import annotations

import numpy as np


def _correlogram_inplace(r: np.ndarray, phi: float, scratch: np.ndarray):
    """Overwrite the distances ``r`` with ``rho(r)``; ``scratch`` is spare.

    The operations and their order are those of the formula written
    out, ``1 - 1.5*s + 0.5*s**3`` with ``s = min(r/phi, 1)``, so the
    result is bitwise the same; only the two buffers are reused.
    """
    np.divide(r, phi, out=r)
    np.minimum(r, 1.0, out=r)
    np.power(r, 3, out=scratch)
    scratch *= 0.5
    r *= 1.5
    np.subtract(1.0, r, out=r)
    r += scratch
    return r


def correlation_matrix(points: np.ndarray, phi: float) -> np.ndarray:
    """Return the correlation matrix for a set of 2-D points.

    The matrix is built in two ``(n, n)`` buffers: the x and y outer
    differences, their ``np.hypot`` distance (written over the x
    differences) and the correlogram (see :func:`_correlogram_inplace`),
    instead of one dense temporary per operation.  At the default
    40x40 grid each buffer is 19.5 MiB.

    Args:
        points: Array of shape ``(n, 2)`` with point coordinates in
            die-width units.
        phi: Correlation range in die-width units.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if phi <= 0.0:
        raise ValueError("correlation range phi must be positive")
    distances = np.subtract.outer(points[:, 0], points[:, 0])
    scratch = np.subtract.outer(points[:, 1], points[:, 1])
    np.hypot(distances, scratch, out=distances)
    return _correlogram_inplace(distances, phi, scratch)


def correlated_normal_factor(
    points: np.ndarray, phi: float, jitter: float = 1e-9
) -> np.ndarray:
    """Return a matrix ``L`` with ``L @ L.T == correlation_matrix``.

    The factor is computed with a Cholesky decomposition; a small diagonal
    ``jitter`` keeps the matrix numerically positive definite (the
    spherical correlogram is positive definite in 2-D, but finite grids can
    sit at the edge of machine precision).

    Multiplying ``L`` by an i.i.d. standard-normal vector yields one
    realisation of the systematic variation surface sampled at ``points``.
    """
    corr = correlation_matrix(points, phi)
    # Add the jitter in place on the diagonal: materialising
    # ``jitter * np.eye(n)`` would cost another dense (n, n) array (~20 MB
    # at 40x40) only to add zeros everywhere off the diagonal.
    diag = np.einsum("ii->i", corr)
    diag += jitter
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        # Restore the exact un-jittered matrix: the diagonal of a
        # correlation matrix is exactly 1.0 (zero self-distance).
        diag[...] = 1.0
        # Fall back to an eigen-decomposition factor, clipping any tiny
        # negative eigenvalues introduced by round-off.
        eigvals, eigvecs = np.linalg.eigh(corr)
        eigvals = np.clip(eigvals, 0.0, None)
        return eigvecs * np.sqrt(eigvals)
