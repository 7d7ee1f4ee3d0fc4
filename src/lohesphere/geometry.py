"""Primitives for points on the unit sphere.

Everything here is a pure function on plain numpy arrays.
"""

from __future__ import annotations

import numpy as np


def pairwise_angle(x: np.ndarray, y: np.ndarray) -> float:
    """Geodesic angle between two unit vectors, in [0, pi].

    The inner product is clamped to [-1, 1] before arccos so that
    roundoff at the endpoints cannot produce NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    c = float(np.clip(x @ y, -1.0, 1.0))
    return float(np.arccos(c))


def tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the tangent spaces at unit vectors x, shape (..., d).

    Returns (..., d, d-1): the columns of each (d, d-1) matrix span the
    orthogonal complement of its x, built from a Householder reflection
    that maps e1 to x. Deterministic in x, and row by row the same for a
    batch as for one vector.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    # Reflection H with H e1 = sign-adjusted x; remaining columns of H
    # are then an orthonormal basis of x's complement. The sign makes
    # |w_0| >= 1, so w never vanishes.
    w = x.copy()
    w[..., 0] += np.where(x[..., 0] >= 0, 1.0, -1.0)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    H = np.eye(d) - 2.0 * w[..., :, None] * w[..., None, :]
    # H maps e1 to -sign * x, so columns 2..d are orthogonal to x
    return H[..., :, 1:]
