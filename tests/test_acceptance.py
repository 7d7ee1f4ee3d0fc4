"""Acceptance gate: the ten desk-scale criteria the library promises.

Each test prints one [acceptance] line when its criterion passes, and
asserts both the numerical claims and the runtime budget. Criterion 9 is
soft (empirical synchronization): misses are reported as warnings, never
as build failures.
"""

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import (
    angles_to_configuration,
    configuration_to_angles,
    integrate_kuramoto,
    kahan_bound,
    kuramoto_frequency_matrix,
)
from lohesphere.dynamics import (
    LoheSystem,
    disagreement,
    disagreement_gradient,
    hetero_rhs,
    homo_rhs,
    random_configuration,
    random_frequencies,
    zero_frequencies,
)
from lohesphere.geometry import tangent_basis
from lohesphere.network import CouplingGraph, cycle_graph, path_graph
from lohesphere.simulate import integrate, sync_radius
from lohesphere.spectral import assemble_A, fd_jacobian
from lohesphere.stability import (
    g1,
    g2,
    lagrange_residual,
    lagrange_roots,
    theorem_rhs,
    twisted_state,
    verify_theorem,
)


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} blew its {budget_s}s budget: {elapsed:.1f}s"
    print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.2f}s)")


def _random_connected_graph(rng, N):
    # random spanning tree plus a few extra edges, gains in [0.5, 2)
    edges = set()
    order = rng.permutation(N)
    for a, b in zip(order[:-1], order[1:]):
        i, j = int(min(a, b)), int(max(a, b))
        edges.add((i, j))
    for _ in range(int(rng.integers(0, N))):
        i, j = sorted(rng.choice(N, size=2, replace=False))
        edges.add((int(i), int(j)))
    edges = tuple(sorted(edges))
    gains = tuple(float(rng.uniform(0.5, 2.0)) for _ in edges)
    return CouplingGraph(N, edges, gains)


def test_criterion_01_gradient_flow_identity():
    with criterion(1, "gradient-flow identity", 5.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            N = int(rng.integers(2, 11))
            n = int(rng.integers(1, 5))
            graph = _random_connected_graph(rng, N)
            x = random_configuration(rng, N, n)
            grad = disagreement_gradient(graph, x)
            assert np.max(np.abs(homo_rhs(graph, x) + grad)) <= 1e-12

            i = int(rng.integers(N))
            u = tangent_basis(x[i]) @ rng.standard_normal(n)
            u /= np.linalg.norm(u)
            h = 1e-6

            def v_at(step):
                y = x.copy()
                y[i] = x[i] + step * u
                y[i] /= np.linalg.norm(y[i])
                return disagreement(graph, y)

            fd = (v_at(h) - v_at(-h)) / (2 * h)
            expect = 2.0 * float(grad[i] @ u)
            assert abs(fd - expect) <= 1e-6 * max(1.0, abs(expect))


def test_criterion_02_tangency_and_norm_conservation():
    with criterion(2, "tangency and norm conservation", 30.0):
        rng = np.random.default_rng(202)
        for _ in range(50):
            N = int(rng.integers(2, 9))
            n = int(rng.integers(1, 4))
            graph = _random_connected_graph(rng, N)
            sys = LoheSystem(graph, random_frequencies(rng, N, n, total_norm=1.5))
            x = random_configuration(rng, N, n)
            rhs = hetero_rhs(sys, x)
            assert np.max(np.abs(np.einsum("nd,nd->n", rhs, x))) <= 1e-12

        graph = path_graph(10, gain=1.0)
        sys = LoheSystem(graph, random_frequencies(rng, 10, 2, total_norm=1.0))
        x0 = random_configuration(rng, 10, 2)
        traj = integrate(sys, x0, dt=1e-3, t_end=100.0, sample_every=5000)
        assert np.max(traj.norm_drift) <= 1e-9


def test_criterion_03_linearization_oracle():
    with criterion(3, "linearization matches finite differences", 10.0):
        for N in (4, 6, 8):
            for n in (2, 3):
                x = twisted_state(N, 1, n)
                sys = LoheSystem(cycle_graph(N, gain=1.0), zero_frequencies(N, n))
                A = assemble_A(sys, x)
                J = fd_jacobian(sys, x, h=1e-5)
                nA = np.linalg.norm(A, 2)
                T = np.zeros((N * (n + 1), N * n))  # block-diagonal tangent basis
                for i, Ti in enumerate(tangent_basis(x)):
                    T[i * (n + 1) : (i + 1) * (n + 1), i * n : (i + 1) * n] = Ti
                assert np.linalg.norm(T.T @ J @ T - A, 2) <= 1e-5 * nA
                # and J keeps tangent directions tangent at the equilibrium
                assert np.linalg.norm(J @ T - T @ A, 2) <= 1e-5 * nA


def test_criterion_04_kahan_corollary():
    with criterion(4, "eigenvalue perturbation bound", 20.0):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            m = int(rng.integers(2, 41))
            G = rng.standard_normal((m, m))
            B = (G + G.T) * float(rng.uniform(0.1, 5.0))
            Y = random_frequencies(rng, 1, m - 1, float(rng.uniform(0.01, 5.0)))[0]
            assert kahan_bound(B, Y).holds


def test_criterion_05_theorem_end_to_end():
    with criterion(5, "instability certificate at the twisted fixture", 60.0):
        N, n = 6, 2
        x = twisted_state(N, 1, n)
        graph = cycle_graph(N, gain=1.0)
        budget = theorem_rhs(1.0, n, N)
        rng = np.random.default_rng(505)
        for _ in range(100):
            omegas = random_frequencies(rng, N, n, total_norm=0.9 * budget)
            rep = verify_theorem(LoheSystem(graph, omegas), x)
            assert rep.premise_holds
            assert rep.linearization.alpha_re > 0
            assert rep.conclusion_holds
            assert rep.linearization.beta >= rep.f_value - 1e-12
            assert rep.dispersed.dispersed
            assert rep.f_value >= rep.theorem_rhs - 1e-12


def test_criterion_06_small_n_closed_forms_and_uniform_optimality():
    with criterion(6, "closed forms and uniform-family optimality", 5.0):
        for K in (1.0, 3.0):
            for n in range(2, 7):
                assert g1(K, n, 2) == pytest.approx(2 * K * (n - 1) / (n + 1), rel=1e-12)
                assert g1(K, n, 3) == pytest.approx(K * (n - 1.5) / (n + 1), rel=1e-12)
                assert g1(K, n, 4) == pytest.approx(
                    K * ((2 - math.sqrt(2)) * n - 1) / (n + 1), rel=1e-12
                )
        grid = np.linspace(math.pi / 2, math.pi, 102)[1:-1]
        for N in range(2, 13):
            for n in range(2, 7):
                base = g1(1.0, n, N)
                assert all(g2(1.0, n, N, phi) > base for phi in grid)


def test_criterion_07_lagrange_criticality():
    with criterion(7, "critical-angle equation", 5.0):
        for N in range(3, 13):
            for n in range(2, 7):
                theta = math.pi / N
                lam = -2.0 * math.sin(theta) * (n - 2 * math.cos(theta)) / (N * (n + 1))
                res = lagrange_residual([theta] * N, lam, n, 1.0, N)
                assert np.max(np.abs(res)) <= 1e-12
        # every multiplier below tangency yields exactly two branches
        n, N, K = 2, 5, 1.0
        smax = 3.0 * math.sqrt(3.0) / 2.0
        for frac in np.linspace(0.05, 0.95, 19):
            lam = -2.0 * K * (frac * smax) / (N * (n + 1))
            roots = lagrange_roots(lam, n, K, N)
            assert len(roots) == 2
            assert all(abs(lagrange_residual(r, lam, n, K, N)) <= 1e-9 for r in roots)


def test_criterion_08_asymptotic_rates():
    with criterion(8, "theorem constant decay rates", 1.0):
        r2 = theorem_rhs(1.0, 2, 64) * 64**4 / (theorem_rhs(1.0, 2, 128) * 128**4)
        r3 = theorem_rhs(1.0, 3, 64) * 64**2 / (theorem_rhs(1.0, 3, 128) * 128**2)
        assert abs(r2 - 1.0) < 0.05
        assert abs(r3 - 1.0) < 0.05


def test_criterion_09_empirical_practical_sync_soft():
    t0 = time.perf_counter()
    graph = path_graph(10, gain=1.0)
    budget = theorem_rhs(1.0, 2, 10)
    rng = np.random.default_rng(909)
    synced = 0
    misses = []
    for trial in range(100):
        sys = LoheSystem(graph, random_frequencies(rng, 10, 2, total_norm=0.5 * budget))
        x0 = random_configuration(rng, 10, 2)
        traj = integrate(sys, x0, dt=0.02, t_end=200.0, sample_every=10**9)
        if sync_radius(traj.final_state) < math.pi / 4:
            synced += 1
        else:
            misses.append(trial)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 9 blew its 300s budget: {elapsed:.1f}s"
    if synced < 95:
        warnings.warn(
            f"soft criterion: only {synced}/100 trials practically synced "
            f"(missed trials: {misses})"
        )
    print(
        f"[acceptance] criterion 9 (empirical practical sync, soft): "
        f"PASS ({synced}/100 synced, {elapsed:.2f}s)"
    )


def test_criterion_10_kuramoto_reduction():
    with criterion(10, "circle reduction consistency", 10.0):
        rng = np.random.default_rng(1010)
        dt = 5e-3
        for _ in range(20):
            N = int(rng.integers(2, 6))
            graph = _random_connected_graph(rng, N)
            w = rng.uniform(-1.0, 1.0, size=N)
            theta0 = rng.uniform(0.0, 2 * math.pi, size=N)

            omegas = np.array([kuramoto_frequency_matrix(wi) for wi in w])
            sys = LoheSystem(graph, omegas)
            x0 = angles_to_configuration(theta0)
            traj = integrate(sys, x0, dt=dt, t_end=10.0, sample_every=400)
            times_k, angles_k = integrate_kuramoto(
                w, graph, theta0, dt=dt, t_end=10.0, sample_every=400
            )
            assert np.allclose(traj.times, times_k, atol=1e-12)
            worst = 0.0
            for state, th in zip(traj.states, angles_k):
                got = configuration_to_angles(state)
                diff = np.angle(np.exp(1j * (got - th)))
                worst = max(worst, float(np.max(np.abs(diff))))
            assert worst <= 1e-6
