"""Riemann sphere geometry: unit-vector points, chart conversion, great-circle metric.

Points are stored as unit vectors in R^3 so that nothing special happens at
infinity.  The identification with C u {inf} is the stereographic one for
which the round metric restricted to C has length element 2|dz|/(1+|z|^2);
with it, great-circle distance equals the angle between the unit vectors and
the sphere has diameter pi.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 128  # rows per block of the pairwise dot products


def sphere_from_complex(z: complex | None) -> np.ndarray:
    """Map a chart point (None means the point at infinity) to a unit 3-vector."""
    if z is None:
        return np.array([0.0, 0.0, 1.0])
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        return np.array([0.0, 0.0, 1.0])
    s = abs(z) ** 2
    return np.array([2.0 * z.real, 2.0 * z.imag, s - 1.0]) / (s + 1.0)


def sphere_from_complex_array(z: np.ndarray) -> np.ndarray:
    """Vectorized chart map; returns (n,3).  A non-finite entry is the point
    at infinity, the pole (0, 0, 1)."""
    z = np.asarray(z, dtype=complex)
    finite = np.isfinite(z)
    z = np.where(finite, z, 0)
    s = np.abs(z) ** 2
    out = np.empty(z.shape + (3,))
    out[..., 0] = 2.0 * z.real
    out[..., 1] = 2.0 * z.imag
    out[..., 2] = s - 1.0
    out /= (s + 1.0)[..., None]
    out[~finite] = (0.0, 0.0, 1.0)
    return out


def spherical_dist_matrix(vecs: np.ndarray) -> np.ndarray:
    """Pairwise great-circle distances for an (n,3) array of unit vectors.

    numpy hands ``vecs @ vecs.T`` of a contiguous array to BLAS as a
    symmetric rank-k update, which mirrors one triangle, so the dot products
    are exactly symmetric.  The distances overwrite them in place, in blocks
    of ``BLOCK_ROWS`` rows of the upper triangle that are then mirrored below
    the diagonal: each entry is the float the whole-matrix formula gives.
    """
    vecs = np.ascontiguousarray(vecs, dtype=float)
    d = vecs @ vecs.T
    for lo in range(0, len(d), BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        dot = np.clip(d[lo:hi, lo:], -1.0, 1.0)
        # cross = sqrt(max(0, 1 - dot^2)) in one scratch array; atan2 beats arccos near 0
        cross = np.multiply(dot, dot)
        np.sqrt(np.maximum(0.0, np.subtract(1.0, cross, out=cross), out=cross), out=cross)
        np.arctan2(cross, dot, out=d[lo:hi, lo:])
        d[hi:, lo:hi] = d[lo:hi, hi:].T
    np.fill_diagonal(d, 0.0)
    return d
