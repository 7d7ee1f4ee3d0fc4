"""Minimum-norm point in the convex hull of a finite point set.

This is the computational core of the dispersal test: a configuration is
dispersed exactly when the origin lies in the convex hull of its points,
i.e. when the minimum-norm point has norm zero.

The solver runs Frank-Wolfe style major iterations (pick the vertex most
opposed to the current point) and resolves each candidate support set
exactly with affine minimization minor cycles, dropping vertices whose
affine weight goes nonpositive. The minor cycles terminate finitely, so
the overall method reaches the optimum to solver precision instead of
stalling at the O(1/k) rate of pure vertex steps.

The affine step works on differences between support points, not on
their Gram matrix: agents within an angle delta of each other, as near
synchrony, have a Gram matrix within delta^2 of all ones, on which a
solve loses about log10(1/delta^2) digits, while the differences are as
well conditioned as the shape of the cluster at any delta. The shift it
solves for starts from the support's centroid, which lies nearer the
answer than any one vertex of a wide support.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np

MAX_ITER = 10_000
# Weights at or below this are treated as zero when pruning the support.
WEIGHT_FLOOR = 1e-13
# Relative slack of "beyond a facet plane", and the smallest singular value
# of a facet's edge vectors that still spans a hyperplane.
BOUNDARY_TOL = 1e-12
SINGULAR_FLOOR = 1e-14
# A hull in R^d can have ~N^(d/2) facets: 60 points in R^11 pass this cap,
# d <= 5 up to N = 10^4 stays far below it.
MAX_FACETS = 50_000


def _affine_min_norm(A: np.ndarray) -> np.ndarray:
    """Affine-combination weights minimizing |lam @ A| with sum(lam) = 1.

    Takes the rows in lexicographic order of their values, S, and solves
    for the weights as equal weights 1/m plus a shift: the first row takes
    -sum(mu) and the others mu, the minimum-norm least-squares solution of
    (S[1:] - S[0])^T mu = -mean(S). The value order makes the weights
    independent of the order of the rows.
    """
    order = np.lexsort(A.T)
    S = A[order]
    mu = np.linalg.lstsq((S[1:] - S[0]).T, -S.sum(axis=0) / len(S))[0]
    lam = np.empty(len(A))
    lam[order[0]] = 1.0 / len(A) - mu.sum()
    lam[order[1:]] = 1.0 / len(A) + mu
    return lam


def min_norm_point(points: np.ndarray, max_iter: int = MAX_ITER, tol: float = 1e-12):
    """Minimum-norm point of the convex hull of the rows of points.

    Parameters
    ----------
    points : (N, d) array, N >= 1
    max_iter : cap on major iterations
    tol : optimality slack, relative to max(1, |p|^2)

    Returns
    -------
    (p, iterations) : the optimal point and the major iteration count.

    The optimality certificate is min_i <x_i, p> >= |p|^2 - tol, which
    for p = 0 is exact membership of the origin. A returned p that fails
    it, at max_iter or when the solve stalls, comes with a RuntimeWarning.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"expected a nonempty (N, d) array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points must be finite")

    start = int(np.argmin(np.einsum("nd,nd->n", X, X)))
    support = [start]
    weights = np.array([1.0])
    p = X[start].copy()

    iterations = 0
    for iterations in range(1, max_iter + 1):
        scores = X @ p
        s = int(np.argmin(scores))
        pp = float(p @ p)
        if scores[s] >= pp - tol * max(1.0, pp):
            break
        if s in support:
            # p already affine-optimal over its support, no progress possible
            break
        support.append(s)
        weights = np.append(weights, 0.0)

        # Minor cycles: affine-minimize over the support, step back toward
        # the previous feasible weights whenever a weight leaves the
        # simplex, and drop the vertex that hit zero.
        while True:
            A = X[support]
            lam = _affine_min_norm(A)
            if np.all(lam > WEIGHT_FLOOR):
                weights = lam
                p = lam @ A
                break
            mask = lam <= WEIGHT_FLOOR
            denom = weights - lam
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(mask & (denom > 0), weights / denom, np.inf)
            theta = float(np.min(steps))
            weights = (1.0 - theta) * weights + theta * lam
            weights[weights <= WEIGHT_FLOOR] = 0.0
            keep = weights > 0
            support = [v for v, k in zip(support, keep) if k]
            weights = weights[keep]
            weights = weights / weights.sum()

    pp = float(p @ p)
    if float(np.min(X @ p)) < pp - tol * max(1.0, pp):
        warnings.warn(f"min_norm_point stopped after {iterations} iterations "
                      f"(max_iter={max_iter}) at a point that fails its optimality "
                      "certificate", RuntimeWarning, stacklevel=2)
    return p, iterations


def _facet_planes(X: np.ndarray, facets: np.ndarray, inner: np.ndarray):
    """Planes n.x = c (|n| = 1, n.inner < c) through X[f] for each row f of
    facets; returns (n, c, facets) without the rows that span no plane."""
    P = X[facets]
    _, sv, vt = np.linalg.svd(P[:, 1:] - P[:, :1])
    n = vt[:, -1]
    c = np.vecdot(n, P[:, 0])
    sign = np.where(n @ inner > c, -1.0, 1.0)
    keep = np.all(sv > SINGULAR_FLOOR, axis=1)
    return (n * sign[:, None])[keep], (c * sign)[keep], facets[keep]


def boundary_distance(points: np.ndarray) -> float:
    """Distance rho = min over unit u of max_i <x_i, u> from the origin to
    the boundary of the hull K of the rows, for the origin in K.

    Expanding polytope algorithm (van den Bergen, GDC 2001): a polytope in
    K, first a widest simplex of the points, takes in the point farthest
    beyond its facet closest to the origin until none lies beyond. The
    start need not hold the origin: a facet with the origin beyond it has
    a negative offset, and max_i <x_i, n> >= 0 puts a point beyond it.
    Returns the least max_i <x_i, n> over those facet normals n: never
    below rho, and rho unless the facets outnumber MAX_FACETS (then with
    a RuntimeWarning). A flat K gives 0.
    """
    X = np.asarray(points, dtype=float)
    N, d = X.shape
    tol = BOUNDARY_TOL * float(np.max(np.abs(X)))

    # each simplex vertex is the point farthest from the affine hull of the
    # earlier ones
    simplex = [0]
    for _ in range(d):
        D = X[simplex[1:]] - X[simplex[0]]
        R = X - X[simplex[0]]
        dist = np.linalg.norm(R - R @ np.linalg.pinv(D) @ D, axis=1)
        if dist.max() <= tol:
            return 0.0
        simplex.append(int(np.argmax(dist)))
    inner = X[simplex].mean(axis=0)
    normals, offsets, facets = _facet_planes(
        X, np.sort([simplex[:m] + simplex[m + 1:] for m in range(d + 1)]), inner)

    best = np.inf
    for _ in range(N):
        k = int(np.argmin(offsets))
        h = X @ normals[k]
        s = int(np.argmax(h))
        best = min(best, float(h[s]))
        if h[s] <= offsets[k] + tol:
            break
        if len(offsets) > MAX_FACETS:
            warnings.warn("boundary_distance hit MAX_FACETS; returning an upper bound",
                          RuntimeWarning, stacklevel=2)
            break
        # replace the facets s sees by the cone from s over their horizon,
        # the ridges of exactly one visible facet
        visible = normals @ X[s] > offsets + tol
        ridges = Counter(tuple(f[:m] + f[m + 1:])
                         for f in facets[visible].tolist() for m in range(d))
        new = [sorted(r + (s,)) for r, count in ridges.items() if count == 1]
        n, c, f = _facet_planes(X, np.array(new, dtype=np.intp).reshape(-1, d), inner)
        normals = np.concatenate([normals[~visible], n])
        offsets = np.concatenate([offsets[~visible], c])
        facets = np.concatenate([facets[~visible], f])
    return best
