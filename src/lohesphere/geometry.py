"""Primitives for points on the unit sphere and skew-symmetric matrices.

Everything here is a pure function on plain numpy arrays. Callers own the
RNG; functions that sample take a ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

# Below this, a vector has no usable direction.
DEGENERATE_NORM = 1e-14


def project_tangent(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project an ambient vector onto the tangent space of the sphere at x.

    Computes (I - x x^T) v without materializing the projector. x is
    assumed unit-norm; v is arbitrary.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape:
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, v has shape {v.shape}")
    return v - x * (x @ v)


def renormalize(v: np.ndarray) -> np.ndarray:
    """Return v scaled to unit Euclidean norm.

    Raises ValueError if the norm is at or below 1e-14, since the
    direction is meaningless there.
    """
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm <= DEGENERATE_NORM:
        raise ValueError(f"degenerate vector: norm {nrm:.3e} <= {DEGENERATE_NORM:.0e}")
    return v / nrm


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw a uniform point on the n-sphere (unit sphere in R^(n+1)).

    Uses the Gaussian method: normalize a standard normal draw. Uniformity
    follows from rotational invariance of the Gaussian.
    """
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    return renormalize(rng.standard_normal(n + 1))


def random_skew(rng: np.random.Generator, dim: int, target_norm: float) -> np.ndarray:
    """Draw a random skew-symmetric matrix with prescribed spectral norm.

    A Gaussian matrix is antisymmetrized as (G - G^T)/2, which is exactly
    skew in floating point, then rescaled so the spectral norm equals
    target_norm. target_norm = 0 returns the zero matrix.

    Parameters
    ----------
    rng : numpy.random.Generator
    dim : ambient dimension (matrix is dim x dim)
    target_norm : requested spectral norm, >= 0
    """
    if dim < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {dim}")
    if target_norm < 0:
        raise ValueError(f"target norm must be >= 0, got {target_norm}")
    if target_norm == 0.0 or dim == 1:
        # dim 1 skew is identically zero; only target 0 is representable
        if dim == 1 and target_norm != 0.0:
            raise ValueError("1x1 skew-symmetric matrices are zero, cannot hit a nonzero norm")
        return np.zeros((dim, dim))
    G = rng.standard_normal((dim, dim))
    S = (G - G.T) / 2.0
    s = spectral_norm(S)
    if s <= DEGENERATE_NORM:
        raise ValueError("degenerate skew draw, retry with a different stream")
    return S * (target_norm / s)


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of M.

    Computed by full SVD. Input must be finite.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


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


def great_circle_point(phase: float, n: int) -> np.ndarray:
    """Point (cos phase, sin phase, 0, ..., 0) on the n-sphere."""
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    p = np.zeros(n + 1)
    p[0] = np.cos(phase)
    p[1] = np.sin(phase)
    return p


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
