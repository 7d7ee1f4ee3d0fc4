"""Reference implementations and shared inputs that the tests compare the package against.

No command runs these. The circle chart and the phase model check that the
sphere model at n = 1 is the Kuramoto model (criterion 10); kahan_bound checks
that a skew perturbation moves the top eigenvalue of a symmetric matrix by at
most its spectral norm (criterion 4), the bound behind linearize's kahan_gap.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from lohesphere.dynamics import _check_skew
from lohesphere.network import CouplingGraph
from lohesphere.simulate import _rk4_step, _rk4_tableau
from lohesphere.spectral import eigenvalues

SYM_TOL = 1e-10


def kuramoto_rhs(omega: np.ndarray, graph: CouplingGraph, theta: np.ndarray) -> np.ndarray:
    """Phase model on the circle: d theta_i/dt = omega_i + sum_j k_ij sin(theta_j - theta_i).

    This is the n = 1 case of the sphere model in the angle chart
    x_i = (cos theta_i, sin theta_i).
    """
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if theta.shape != (graph.n_nodes,) or omega.shape != (graph.n_nodes,):
        raise ValueError("dimension mismatch: omega and theta must have one entry per node")
    diff = theta[None, :] - theta[:, None]
    return omega + np.einsum("ij,ij->i", graph.weight_matrix, np.sin(diff))


def angles_to_configuration(theta: np.ndarray) -> np.ndarray:
    """Embed circle phases as rows (cos theta_i, sin theta_i)."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def configuration_to_angles(x: np.ndarray) -> np.ndarray:
    """Inverse chart for points on the 1-sphere, values in (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"expected shape (N, 2), got {x.shape}")
    return np.arctan2(x[:, 1], x[:, 0])


def kuramoto_frequency_matrix(w: float) -> np.ndarray:
    """2x2 skew matrix generating rotation at angular speed w.

    In the chart x = (cos theta, sin theta) this matrix produces
    d theta/dt = w, matching kuramoto_rhs.
    """
    return np.array([[0.0, -float(w)], [float(w), 0.0]])


def integrate_kuramoto(
    omega: np.ndarray,
    graph: CouplingGraph,
    theta0: np.ndarray,
    dt: float = 1e-3,
    t_end: float = 10.0,
    sample_every: int = 1,
):
    """RK4 for the circle phase model; returns (times, angles) arrays."""
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be > 0")
    stack = np.zeros((5, len(theta0)))
    stack[0] = theta0
    buf = np.empty(len(theta0))

    def stage(k, th):
        return lambda: np.copyto(k, kuramoto_rhs(omega, graph, th))

    stages = [stage(stack[1], stack[0])] + [stage(stack[s], buf) for s in (2, 3, 4)]

    n_steps = int(math.ceil(t_end / dt - 1e-12))
    times = [0.0]
    out = [stack[0].copy()]
    for step in range(1, n_steps + 1):
        h = dt if step < n_steps else (t_end - dt * (n_steps - 1))
        stack[0] = _rk4_step(stages, stack, _rk4_tableau(h), buf)
        if step % sample_every == 0 or step == n_steps:
            times.append(t_end if step == n_steps else step * dt)
            out.append(stack[0].copy())
    return np.array(times), np.array(out)


def symmetric_top_eigenvalue(B: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix (symmetric solver)."""
    B = np.asarray(B, dtype=float)
    scale = max(1.0, float(np.max(np.abs(B))))
    if np.max(np.abs(B - B.T)) > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(B)[-1])


class KahanBound(NamedTuple):
    gap: float
    bound: float
    holds: bool


def kahan_bound(B: np.ndarray, Y: np.ndarray, slack: float = 1e-8) -> KahanBound:
    """Check |lambda_max(B) - abscissa(B + Y)| <= |Y|_2 for symmetric B, skew Y.

    Returns the measured gap, the bound |Y|_2, and whether the inequality
    holds within slack. Raises if B is not symmetric within SYM_TOL or Y
    is not skew-symmetric within SKEW_TOL.
    """
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if B.shape != Y.shape or B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"B and Y must be square with equal shape, got {B.shape} and {Y.shape}")
    _check_skew(Y, "Y")
    lam = symmetric_top_eigenvalue(B)
    absc = float(eigenvalues(B + Y)[0].real)
    gap = abs(lam - absc)
    bound = float(np.linalg.norm(Y, 2))
    return KahanBound(gap=gap, bound=bound, holds=gap <= bound + slack)


def tilted_rings():
    """Rings of 3 and 6 agents at phases 2 pi i / N lifted to height 2e-9, unrotated and
    turned by 19 seeded rotations each.

    Their hull minimum-norm point has norm about 2e-9, just above stability.DISPERSED_TOL,
    and rounding can leave an agent on the wrong side of its direction.
    """
    rng = np.random.default_rng(2031)
    eps = 2e-9
    for N in (3, 6):
        phi = 2.0 * np.pi * np.arange(N) / N
        c = math.sqrt(1.0 - eps * eps)
        x = np.column_stack((c * np.cos(phi), c * np.sin(phi), np.full(N, eps)))
        yield x
        for _ in range(19):
            yield x @ np.linalg.qr(rng.standard_normal((3, 3)))[0].T
