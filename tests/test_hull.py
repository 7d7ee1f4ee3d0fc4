import warnings

import numpy as np
import pytest

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
