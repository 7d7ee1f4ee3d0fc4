import math

import numpy as np
import pytest

from lohesphere.geometry import (
    great_circle_point,
    pairwise_angle,
    project_tangent,
    random_skew,
    random_unit,
    renormalize,
    spectral_norm,
    tangent_basis,
)


def test_project_tangent_normal_direction_annihilated():
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(project_tangent(e1, e1), 0.0, atol=1e-15)


def test_project_tangent_tangent_vector_unchanged():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert np.allclose(project_tangent(e1, e2), e2, atol=1e-15)


def test_project_tangent_diagonal_point():
    x = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    v = np.array([1.0, 0.0, 0.0])
    assert np.allclose(project_tangent(x, v), [0.5, -0.5, 0.0], atol=1e-15)


def test_project_tangent_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        project_tangent(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_project_tangent_orthogonal_idempotent_selfadjoint():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        x = random_unit(rng, d - 1)
        v = rng.standard_normal(d)
        w = rng.standard_normal(d)
        p = project_tangent(x, v)
        assert abs(p @ x) <= 1e-12 * np.linalg.norm(v)
        assert np.allclose(project_tangent(x, p), p, atol=1e-12)
        # self-adjointness of I - x x^T
        assert abs(p @ w - v @ project_tangent(x, w)) <= 1e-12 * (
            np.linalg.norm(v) * np.linalg.norm(w)
        )


def test_renormalize_345():
    assert np.allclose(renormalize(np.array([3.0, 0.0, 4.0])), [0.6, 0.0, 0.8])


def test_renormalize_idempotent():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(5)
    u = renormalize(v)
    assert np.allclose(renormalize(u), u, atol=1e-15)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def test_renormalize_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        renormalize(np.array([1e-16, 0.0, 0.0]))


def test_random_unit_norm_and_shape():
    rng = np.random.default_rng(0)
    u = random_unit(rng, 2)
    assert u.shape == (3,)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def test_random_unit_deterministic():
    a = random_unit(np.random.default_rng(42), 3)
    b = random_unit(np.random.default_rng(42), 3)
    assert np.array_equal(a, b)


def test_random_unit_mean_near_zero():
    rng = np.random.default_rng(11)
    samples = np.array([random_unit(rng, 2) for _ in range(10_000)])
    assert np.max(np.abs(samples.mean(axis=0))) < 0.05


def test_random_unit_bad_dimension():
    with pytest.raises(ValueError):
        random_unit(np.random.default_rng(0), 0)


def test_random_skew_zero_target():
    M = random_skew(np.random.default_rng(0), 3, 0.0)
    assert np.array_equal(M, np.zeros((3, 3)))


def test_random_skew_hits_target_norm():
    M = random_skew(np.random.default_rng(1), 3, 1.0)
    assert M.shape == (3, 3)
    assert abs(spectral_norm(M) - 1.0) <= 1e-10


def test_random_skew_deterministic():
    a = random_skew(np.random.default_rng(5), 4, 2.5)
    b = random_skew(np.random.default_rng(5), 4, 2.5)
    assert np.array_equal(a, b)


def test_random_skew_exactly_skew():
    rng = np.random.default_rng(9)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        M = random_skew(rng, dim, float(rng.uniform(0.1, 10.0)))
        assert np.array_equal(M.T, -M)


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(3)) == 1.0


def test_spectral_norm_diagonal():
    assert abs(spectral_norm(np.diag([2.0, -5.0])) - 5.0) <= 1e-12


def test_spectral_norm_skew_2x2():
    w = 0.37
    M = np.array([[0.0, w], [-w, 0.0]])
    assert abs(spectral_norm(M) - w) <= 1e-12 * w


def test_spectral_norm_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pairwise_angle_basic():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert pairwise_angle(e1, e1) == 0.0
    assert pairwise_angle(e1, -e1) == math.pi
    assert abs(pairwise_angle(e1, e2) - math.pi / 2) <= 1e-15


def test_pairwise_angle_symmetry_and_triangle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        x, y, z = (random_unit(rng, 3) for _ in range(3))
        assert pairwise_angle(x, y) == pairwise_angle(y, x)
        assert pairwise_angle(x, z) <= pairwise_angle(x, y) + pairwise_angle(y, z) + 1e-10


def test_great_circle_point_examples():
    assert np.allclose(great_circle_point(0.0, 2), [1.0, 0.0, 0.0])
    assert np.allclose(great_circle_point(math.pi / 2, 2), [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(great_circle_point(math.pi, 3), [-1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_tangent_basis_orthonormal_complement():
    rng = np.random.default_rng(30)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        x = random_unit(rng, d - 1)
        T = tangent_basis(x)
        assert T.shape == (d, d - 1)
        assert np.allclose(T.T @ T, np.eye(d - 1), atol=1e-12)
        assert np.max(np.abs(T.T @ x)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_tangent_basis_batch_is_the_single_vector_basis(d):
    rng = np.random.default_rng(31 + d)
    x = rng.standard_normal((40, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    # both signs of the first coordinate, including the poles +-e1
    x[0], x[1] = np.eye(d)[0], -np.eye(d)[0]
    T = tangent_basis(x)
    assert T.shape == (40, d, d - 1)
    assert np.array_equal(tangent_basis(x.reshape(4, 10, d)), T.reshape(4, 10, d, d - 1))
    for xi, Ti in zip(x, T):
        assert np.array_equal(Ti, tangent_basis(xi))
        assert np.allclose(Ti.T @ Ti, np.eye(d - 1), atol=1e-12)
        assert np.max(np.abs(Ti.T @ xi)) <= 1e-12
