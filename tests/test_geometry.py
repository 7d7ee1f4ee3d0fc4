"""Sphere primitives, and the one-agent cases of the samplers and tangent projection in dynamics."""

import math

import numpy as np
import pytest

from lohesphere.dynamics import (
    _tangent_part,
    frequency_total_norm,
    random_configuration,
    random_frequencies,
)
from lohesphere.geometry import pairwise_angle, tangent_basis


# _tangent_part(x, v) projects each row v_i onto the tangent space at x_i


def test_project_tangent_normal_direction_annihilated():
    e1 = np.array([[1.0, 0.0, 0.0]])
    assert np.allclose(_tangent_part(e1, e1), 0.0, atol=1e-15)


def test_project_tangent_tangent_vector_unchanged():
    e1 = np.array([[1.0, 0.0, 0.0]])
    e2 = np.array([[0.0, 1.0, 0.0]])
    assert np.allclose(_tangent_part(e1, e2), e2, atol=1e-15)


def test_project_tangent_diagonal_point():
    x = np.array([[1.0, 1.0, 0.0]]) / math.sqrt(2)
    v = np.array([[1.0, 0.0, 0.0]])
    assert np.allclose(_tangent_part(x, v), [[0.5, -0.5, 0.0]], atol=1e-15)


def test_project_tangent_orthogonal_idempotent_selfadjoint():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        x = random_configuration(rng, 1, d - 1)
        v = rng.standard_normal((1, d))
        w = rng.standard_normal((1, d))
        p = _tangent_part(x, v)
        assert abs(np.vdot(p, x)) <= 1e-12 * np.linalg.norm(v)
        assert np.allclose(_tangent_part(x, p), p, atol=1e-12)
        # self-adjointness of I - x x^T
        assert abs(np.vdot(p, w) - np.vdot(v, _tangent_part(x, w))) <= 1e-12 * (
            np.linalg.norm(v) * np.linalg.norm(w)
        )


def test_random_unit_norm_and_shape():
    rng = np.random.default_rng(0)
    u = random_configuration(rng, 1, 2)[0]
    assert u.shape == (3,)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def test_random_unit_deterministic():
    a = random_configuration(np.random.default_rng(42), 1, 3)
    b = random_configuration(np.random.default_rng(42), 1, 3)
    assert np.array_equal(a, b)


def test_random_unit_mean_near_zero():
    rng = np.random.default_rng(11)
    samples = random_configuration(rng, 10_000, 2)
    assert np.max(np.abs(samples.mean(axis=0))) < 0.05


def test_random_unit_bad_dimension():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sphere dimension must be >= 1"):
        random_configuration(rng, 3, 0)
    with pytest.raises(ValueError, match="sphere dimension must be >= 1"):
        random_frequencies(rng, 2, 0, 1.0)


def test_random_skew_zero_target():
    M = random_frequencies(np.random.default_rng(0), 1, 2, 0.0)[0]
    assert np.array_equal(M, np.zeros((3, 3)))


def test_random_skew_hits_target_norm():
    M = random_frequencies(np.random.default_rng(1), 1, 2, 1.0)[0]
    assert M.shape == (3, 3)
    assert abs(np.linalg.norm(M, 2) - 1.0) <= 1e-10


def test_random_skew_deterministic():
    a = random_frequencies(np.random.default_rng(5), 1, 3, 2.5)
    b = random_frequencies(np.random.default_rng(5), 1, 3, 2.5)
    assert np.array_equal(a, b)


def test_random_skew_exactly_skew():
    rng = np.random.default_rng(9)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        M = random_frequencies(rng, 1, dim - 1, float(rng.uniform(0.1, 10.0)))[0]
        assert np.array_equal(M.T, -M)


# frequency_total_norm of a one-matrix set is that matrix's spectral norm


def test_spectral_norm_identity():
    assert frequency_total_norm(np.eye(3)[None]) == 1.0


def test_spectral_norm_diagonal():
    assert abs(frequency_total_norm(np.diag([2.0, -5.0])[None]) - 5.0) <= 1e-12


def test_spectral_norm_skew_2x2():
    w = 0.37
    M = np.array([[[0.0, w], [-w, 0.0]]])
    assert abs(frequency_total_norm(M) - w) <= 1e-12 * w


def test_pairwise_angle_basic():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert pairwise_angle(e1, e1) == 0.0
    assert pairwise_angle(e1, -e1) == math.pi
    assert abs(pairwise_angle(e1, e2) - math.pi / 2) <= 1e-15


def test_pairwise_angle_symmetry_and_triangle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        x, y, z = random_configuration(rng, 3, 3)
        assert pairwise_angle(x, y) == pairwise_angle(y, x)
        assert pairwise_angle(x, z) <= pairwise_angle(x, y) + pairwise_angle(y, z) + 1e-10


def test_tangent_basis_orthonormal_complement():
    rng = np.random.default_rng(30)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        x = random_configuration(rng, 1, d - 1)[0]
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
