import warnings

import numpy as np
import pytest

from lohesphere import hull
from lohesphere.dynamics import random_configuration
from lohesphere.hull import min_norm_point
from lohesphere.stability import twisted_state


def two_point_oracle(a, b):
    # closed form: minimize |a + t(b - a)| over t in [0, 1]
    d = b - a
    dd = float(d @ d)
    if dd == 0.0:
        return a
    t = float(np.clip(-(a @ d) / dd, 0.0, 1.0))
    return a + t * d


def test_identical_points():
    x = np.tile([0.6, 0.8, 0.0], (5, 1))
    p, _ = min_norm_point(x)
    assert np.allclose(p, [0.6, 0.8, 0.0], atol=1e-12)


def test_antipodal_pair_contains_origin():
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    p, _ = min_norm_point(x)
    assert np.linalg.norm(p) <= 1e-12


def test_twisted_states_contain_origin():
    for N, q, n in ((4, 1, 2), (6, 1, 2), (8, 1, 3), (5, 2, 2)):
        p, _ = min_norm_point(twisted_state(N, q, n))
        assert np.linalg.norm(p) <= 1e-9


def test_two_point_closed_form_agreement():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = random_configuration(rng, 2, 3)
        p, _ = min_norm_point(x)
        oracle = two_point_oracle(x[0], x[1])
        assert np.linalg.norm(p - oracle) <= 1e-9


def test_three_point_grid_oracle():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(10):
        x = random_configuration(rng, 3, 2)
        p, _ = min_norm_point(x)
        best = np.inf
        for a in grid:
            for b in grid[grid <= 1.0 - a + 1e-12]:
                c = 1.0 - a - b
                if c < -1e-12:
                    continue
                q = a * x[0] + b * x[1] + c * x[2]
                best = min(best, float(np.linalg.norm(q)))
        assert np.linalg.norm(p) <= best + 1e-9
        assert np.linalg.norm(p) >= best - 2e-2  # grid resolution


def test_optimality_certificate_random():
    # exactness of the support solve: every vertex scores at least |p|^2
    rng = np.random.default_rng(2)
    for _ in range(40):
        N = int(rng.integers(2, 12))
        d = int(rng.integers(2, 5))
        x = random_configuration(rng, N, d - 1)
        p, iters = min_norm_point(x)
        pp = float(p @ p)
        assert np.min(x @ p) >= pp - 1e-9
        assert iters <= 10_000


def _unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _hard_configuration(family, rng):
    """A cluster of 2 to 40 unit rows in R^2..R^5 with a spread from 1e-12 to
    1e-2, whose Gram matrix is nearly all ones; "duplicated" lists each row
    three times, "rank-deficient" rotates a cluster of a lower dimension."""
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, d)) if family == "rank-deficient" else d
    n = int(rng.integers(2, 41))
    spread = 10.0 ** rng.uniform(-12, -2)
    y = _unit_rows(_unit_rows(rng.standard_normal((1, k))) + spread * rng.standard_normal((n, k)))
    if family == "duplicated":
        return np.vstack([y, y, y])[rng.permutation(3 * n)]
    if family == "rank-deficient":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return np.hstack([y, np.zeros((n, d - k))]) @ q
    return y


@pytest.mark.parametrize("family", ["cluster", "duplicated", "rank-deficient"])
def test_certificate_near_synchrony(family):
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = _hard_configuration(family, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, iters = min_norm_point(x)
        pp = float(p @ p)
        assert np.min(x @ p) >= pp - 1e-12 * max(1.0, pp)
        assert iters <= 10


def test_cohesive_cluster_positive_norm():
    rng = np.random.default_rng(3)
    base = np.array([0.0, 0.0, 1.0])
    pts = []
    for _ in range(6):
        v = base + 0.2 * rng.standard_normal(3)
        pts.append(v / np.linalg.norm(v))
    p, _ = min_norm_point(np.array(pts))
    assert np.linalg.norm(p) > 0.5


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        min_norm_point(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="finite"):
        min_norm_point(np.array([[np.inf, 0.0]]))


def test_iteration_cap_warns_when_the_certificate_fails():
    x = twisted_state(7, 1, 2)  # no antipodal pair: one step cannot reach the origin
    with pytest.warns(RuntimeWarning, match="max_iter=1"):
        p, iters = min_norm_point(x, max_iter=1)
    assert iters == 1
    assert np.min(x @ p) < p @ p - 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, _ = min_norm_point(x)  # converges well inside the default cap
        min_norm_point(x[:1], max_iter=1)  # one point is optimal at once
    assert np.linalg.norm(p) <= 1e-9


def test_stalled_solve_warns(monkeypatch):
    # affine weights off their optimum: the major loop stops with a vertex
    # already in the support, far short of max_iter
    solve = hull._affine_min_norm
    monkeypatch.setattr(hull, "_affine_min_norm",
                        lambda A: solve(A) + 1e-3 * ((len(A) - 1) / 2 - np.arange(len(A))))
    x = twisted_state(7, 1, 2)
    with pytest.warns(RuntimeWarning, match="fails its optimality certificate"):
        p, iters = min_norm_point(x)
    assert iters < 100
    assert np.min(x @ p) < p @ p - 1e-12
