"""Linearization assembly, eigensolving, and the skew perturbation bound."""

import tracemalloc

import numpy as np
import pytest

from lohesphere.dynamics import (
    LoheSystem,
    random_configuration,
    random_frequencies,
    zero_frequencies,
)
from lohesphere.network import (
    CouplingGraph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    path_graph,
)
from lohesphere.simulate import find_equilibrium
from lohesphere.spectral import (
    _symmetric_spectrum,
    assemble_A,
    assemble_B,
    assemble_B_tangent,
    configuration_tangent_basis,
    eigenvalues,
    fd_jacobian,
    field_jacobian,
    kahan_bound,
    linearize,
    symmetric_top_eigenvalue,
)
from lohesphere.stability import twisted_state


def _pair_graph():
    return path_graph(2, gain=1.0)


def _random_graph(rng, N):
    """Random spanning tree plus random extra edges, random gains, one-based."""
    pairs = {(int(rng.integers(0, t)), t) for t in range(1, N)}
    for _ in range(int(rng.integers(0, N))):
        a, b = sorted(int(v) for v in rng.choice(N, size=2, replace=False))
        pairs.add((a, b))
    return from_edge_list(N, [(a + 1, b + 1, float(rng.uniform(0.1, 3.0))) for a, b in pairs])


def _tangent_restricted(M, x):
    """Compress an (N d, N d) operator to tangent coordinates, T^T M T."""
    T = configuration_tangent_basis(x)
    return T.T @ M @ T


def _blockdiag(omegas):
    N, d, _ = omegas.shape
    D = np.zeros((N * d, N * d))
    for i in range(N):
        D[i * d : (i + 1) * d, i * d : (i + 1) * d] = omegas[i]
    return D


def test_assemble_B_phase_synced_pair():
    # x1 = x2 = e1: diagonal blocks -(I - e1 e1^T), off-diagonal +(I - e1 e1^T)
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    B = assemble_B(_pair_graph(), x)
    P = np.diag([0.0, 1.0])
    expect = np.block([[-P, P], [P, -P]])
    assert np.allclose(B, expect, atol=1e-15)
    vals = np.linalg.eigvalsh(B)
    assert np.allclose(sorted(vals), [-2.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert abs(symmetric_top_eigenvalue(B)) <= 1e-12


def test_assemble_B_antipodal_pair_unstable():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    B = assemble_B(_pair_graph(), x)
    P = np.diag([0.0, 1.0])
    assert np.allclose(B, np.block([[P, P], [P, P]]), atol=1e-15)
    assert symmetric_top_eigenvalue(B) == pytest.approx(2.0, abs=1e-12)


def test_assemble_B_linear_in_gains():
    rng = np.random.default_rng(1)
    x = random_configuration(rng, 4, 2)
    g1 = CouplingGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)), (1.0, 2.0, 0.5, 3.0))
    g2 = CouplingGraph(4, g1.edges, tuple(2.5 * k for k in g1.gains))
    assert np.allclose(assemble_B(g2, x), 2.5 * assemble_B(g1, x), atol=1e-13)


def test_assemble_B_zero_blocks_off_edges():
    rng = np.random.default_rng(8)
    x = random_configuration(rng, 4, 2)
    B = assemble_B(path_graph(4, gain=1.0), x)
    d = 3
    # path 1-2-3-4 has no {0,2}, {0,3}, {1,3} edges
    for i, j in ((0, 2), (0, 3), (1, 3)):
        assert np.all(B[i * d : (i + 1) * d, j * d : (j + 1) * d] == 0.0)


def test_assemble_B_symmetry_on_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        N = int(rng.integers(2, 7))
        x = random_configuration(rng, N, int(rng.integers(1, 4)))
        B = assemble_B(complete_graph(N, gain=1.3), x)
        assert np.max(np.abs(B - B.T)) <= 1e-12


def test_assemble_B_dimension_mismatch():
    with pytest.raises(ValueError, match="match|mismatch"):
        assemble_B(path_graph(3, gain=1.0), np.eye(2))


def test_assemble_B_matches_block_loop():
    rng = np.random.default_rng(41)
    for _ in range(30):
        N = int(rng.integers(2, 12))
        d = int(rng.integers(2, 5))
        g = _random_graph(rng, N)
        x = random_configuration(rng, N, d - 1)
        P = np.eye(d)[None, :, :] - np.einsum("ni,nj->nij", x, x)
        align = np.einsum("ij,jd,id->i", g.weight_matrix, x, x)
        loop = np.zeros((N * d, N * d))
        for i in range(N):
            sl = slice(i * d, (i + 1) * d)
            loop[sl, sl] = -align[i] * P[i]
        for (i, j), k in zip(g.edges, g.gains):
            si, sj = slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d)
            loop[si, sj] = k * (P[i] @ P[j])
            loop[sj, si] = k * (P[j] @ P[i])
        B = assemble_B(g, x)
        assert np.max(np.abs(B - loop)) <= 1e-13 * max(1.0, np.max(np.abs(loop)))
        # blocks off the edge set stay exactly zero
        assert np.array_equal(B == 0.0, loop == 0.0)


def test_assemble_A_equals_B_plus_frequency_blocks():
    rng = np.random.default_rng(5)
    for _ in range(5):
        N = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        x = random_configuration(rng, N, n)
        omegas = random_frequencies(rng, N, n, total_norm=2.0)
        g = complete_graph(N, gain=0.7)
        sys = LoheSystem(g, omegas)
        B = assemble_B(g, x)
        A = assemble_A(sys, x)
        D = _blockdiag(sys.omegas)
        assert np.array_equal(A, B + D)
        # off-diagonal blocks of A - B cancel to exact zeros
        diff = A - B
        assert np.allclose(diff, D, atol=1e-12)
        assert np.allclose(diff + diff.T, 2 * np.diag(np.diag(diff)), atol=1e-12)


def test_assemble_A_zero_frequencies_is_B():
    rng = np.random.default_rng(6)
    x = random_configuration(rng, 3, 2)
    g = cycle_graph(3, gain=1.0)
    sys = LoheSystem(g, zero_frequencies(3, 2))
    assert np.array_equal(assemble_A(sys, x), assemble_B(g, x))


def test_assemble_A_single_agent_is_omega():
    g = CouplingGraph(1, (), ())
    omega = np.array([[[0.0, 0.4], [-0.4, 0.0]]])
    sys = LoheSystem(g, omega)
    x = np.array([[0.0, 1.0]])
    assert np.array_equal(assemble_A(sys, x), omega[0])


def test_eigenvalues_diagonal_and_skew():
    vals = eigenvalues(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(sorted(vals.real), [1, 2, 3], atol=1e-14)
    assert np.allclose(vals.imag, 0.0, atol=1e-14)

    vals = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(sorted(vals.imag), [-1.0, 1.0], atol=1e-12)
    assert np.allclose(vals.real, 0.0, atol=1e-12)


def test_eigenvalues_symmetric_matrix_real():
    rng = np.random.default_rng(9)
    G = rng.standard_normal((12, 12))
    vals = eigenvalues(G + G.T)
    assert np.max(np.abs(vals.imag)) <= 1e-10


def test_eigenvalues_sorted_and_validated():
    vals = eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.all(np.diff(vals.real) <= 1e-15)
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigenvalue_residuals_on_random_matrix():
    # residual check via the null direction of (M - lambda I)
    rng = np.random.default_rng(12)
    M = rng.standard_normal((12, 12))
    nM = np.linalg.norm(M, 2)
    for lam in eigenvalues(M):
        shifted = M - lam * np.eye(12)
        _, _, vt = np.linalg.svd(shifted)
        v = vt[-1].conj()
        assert np.linalg.norm(M @ v - lam * v) / nM <= 1e-8


def test_spectral_abscissa_examples():
    # the spectral abscissa is the real part of the first eigenvalue
    assert eigenvalues(np.diag([-1.0, -2.0]))[0].real == pytest.approx(-1.0, abs=1e-14)
    rng = np.random.default_rng(4)
    S = random_frequencies(rng, 1, 4, 2.0)[0]
    assert abs(eigenvalues(S)[0].real) <= 1e-10
    # companion matrix of (x - 2)(x + 3) = x^2 + x - 6
    C = np.array([[0.0, 6.0], [1.0, -1.0]])
    assert eigenvalues(C)[0].real == pytest.approx(2.0, abs=1e-12)


def test_fd_jacobian_matches_B_at_homogeneous_equilibrium():
    g = cycle_graph(6, gain=1.0)
    sys = LoheSystem(g, zero_frequencies(6, 2))
    x = twisted_state(6, 1, n=2)
    B = assemble_B(g, x)
    J = fd_jacobian(sys, x, h=1e-5)
    nB = np.linalg.norm(B, 2)
    T = configuration_tangent_basis(x)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = T @ rng.standard_normal(T.shape[1])
        u /= np.linalg.norm(u)
        assert np.linalg.norm((J - B) @ u) <= 1e-5 * nB


def test_fd_jacobian_matches_A_at_heterogeneous_equilibrium():
    g = complete_graph(3, gain=1.0)
    rng = np.random.default_rng(2)
    sys = LoheSystem(g, random_frequencies(rng, 3, 2, total_norm=0.2))
    x0 = random_configuration(rng, 3, 2) * 0.2 + np.array([1.0, 0.0, 0.0])
    x0 /= np.linalg.norm(x0, axis=1, keepdims=True)
    res = find_equilibrium(sys, x0, tol=1e-12, max_time=60.0)
    assert res.converged
    x = res.config
    A = assemble_A(sys, x)
    J = fd_jacobian(sys, x, h=1e-5)
    nA = np.linalg.norm(A, 2)
    T = configuration_tangent_basis(x)
    # norm conservation forces the extension's Jacobian output to be
    # tangent at an equilibrium, while A keeps the normal action of the
    # Omega_i; the operators agree in tangent coordinates
    Jt = T.T @ J @ T
    At = T.T @ A @ T
    assert np.linalg.norm(Jt - At, 2) <= 1e-5 * nA
    for _ in range(20):
        u = T @ rng.standard_normal(T.shape[1])
        u /= np.linalg.norm(u)
        diff = (J - A) @ u
        assert np.linalg.norm(T.T @ diff) <= 1e-5 * nA
        # and the full-space residual is exactly the normal leak <Omega x, u>
        leak = np.array(
            [x[i] * float((sys.omegas[i] @ x[i]) @ u.reshape(3, 3)[i]) for i in range(3)]
        )
        assert np.linalg.norm(diff - leak.reshape(-1)) <= 1e-5 * nA


def test_field_jacobian_matches_fd_on_tangent_directions():
    # random heterogeneous configurations, far from any equilibrium: the
    # normal blocks x_i S_i^T are what A alone misses there
    rng = np.random.default_rng(31)
    for _ in range(8):
        N = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        sys = LoheSystem(_random_graph(rng, N), random_frequencies(rng, N, n, total_norm=0.8))
        x = random_configuration(rng, N, n)
        T = configuration_tangent_basis(x)
        nA = np.linalg.norm(assemble_A(sys, x), 2)
        fd = fd_jacobian(sys, x, h=1e-5) @ T
        assert np.linalg.norm(fd - field_jacobian(sys, x) @ T, 2) <= 1e-5 * nA
        assert np.linalg.norm(fd - assemble_A(sys, x) @ T, 2) > 1e-3 * nA


def test_fd_jacobian_single_rotating_agent():
    g = CouplingGraph(1, (), ())
    omega = np.array([[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    sys = LoheSystem(g, omega)
    x = np.array([[0.0, 0.0, 1.0]])
    J = fd_jacobian(sys, x, h=1e-5)
    assert np.max(np.abs(J - omega[0])) <= 1e-6


def test_normal_directions_in_kernel_of_B():
    rng = np.random.default_rng(7)
    for N, q, n in ((6, 1, 2), (5, 1, 3), (8, 3, 1)):
        x = twisted_state(N, q, n)
        B = assemble_B(cycle_graph(N, gain=1.0), x)
        nB = np.linalg.norm(B, 2)
        for i in range(N):
            vec = np.zeros(N * (n + 1))
            vec[i * (n + 1) : (i + 1) * (n + 1)] = x[i]
            assert np.linalg.norm(B @ vec) <= 1e-12 * nB


def test_rotation_orbit_directions_in_kernel_at_equilibria():
    # equivariance: at an equilibrium the stacked vector (S x_i)_i is
    # neutral for the linearization, for any skew S
    rng = np.random.default_rng(10)
    for N, q, n in ((6, 1, 2), (4, 1, 2), (5, 2, 1)):
        x = twisted_state(N, q, n)
        B = assemble_B(cycle_graph(N, gain=1.0), x)
        nB = np.linalg.norm(B, 2)
        for _ in range(5):
            S = random_frequencies(rng, 1, n, 1.0)[0]
            vec = (x @ S.T).reshape(-1)
            if np.linalg.norm(vec) < 1e-12:
                continue
            vec /= np.linalg.norm(vec)
            assert np.linalg.norm(B @ vec) <= 1e-8 * nB


def test_tangent_restriction_bounded_by_full_top_eigenvalue():
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = random_configuration(rng, 5, 2)
        B = assemble_B(complete_graph(5, gain=1.0), x)
        T = configuration_tangent_basis(x)
        assert np.allclose(T.T @ T, np.eye(T.shape[1]), atol=1e-13)
        restricted = symmetric_top_eigenvalue(_tangent_restricted(B, x))
        assert restricted <= symmetric_top_eigenvalue(B) + 1e-12


def test_kahan_bound_zero_perturbation():
    B = np.diag([1.0, -1.0])
    out = kahan_bound(B, np.zeros((2, 2)))
    assert out.gap == pytest.approx(0.0, abs=1e-14)
    assert out.bound == 0.0
    assert out.holds


def test_kahan_bound_closed_form_pair():
    # B = diag(1,-1), Y = [[0, e], [-e, 0]]: eigenvalues +-sqrt(1 - e^2)
    eps = 0.1
    B = np.diag([1.0, -1.0])
    Y = np.array([[0.0, eps], [-eps, 0.0]])
    out = kahan_bound(B, Y)
    assert out.gap == pytest.approx(1.0 - np.sqrt(0.99), abs=1e-12)
    assert out.bound == pytest.approx(eps, abs=1e-14)
    assert out.holds


def test_kahan_bound_monte_carlo():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        m = int(rng.integers(2, 41))
        G = rng.standard_normal((m, m))
        B = (G + G.T) * rng.uniform(0.1, 10.0)
        Y = random_frequencies(rng, 1, m - 1, float(rng.uniform(0.01, 10.0)))[0]
        assert kahan_bound(B, Y).holds


def test_kahan_bound_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        kahan_bound(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="skew"):
        kahan_bound(np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="shape"):
        kahan_bound(np.eye(2), np.zeros((3, 3)))


def test_linearize_report_fields():
    g = cycle_graph(4, gain=1.0)
    rng = np.random.default_rng(14)
    omegas = random_frequencies(rng, 4, 2, total_norm=0.3)
    sys = LoheSystem(g, omegas)
    x = twisted_state(4, 1, n=2)
    rep = linearize(sys, x)
    assert rep.kahan_gap == pytest.approx(abs(rep.beta - rep.alpha_re), abs=1e-15)
    assert rep.kahan_gap <= rep.omega_norm + 1e-8
    assert len(rep.spectrum_A) == 12
    d = rep.to_json_dict()
    assert set(d) == {"beta", "alpha_re", "kahan_gap", "omega_norm", "spectrum_A"}
    assert all(len(pair) == 2 for pair in d["spectrum_A"])


def test_linearize_homogeneous_beta_equals_abscissa():
    g = cycle_graph(6, gain=1.0)
    sys = LoheSystem(g, zero_frequencies(6, 2))
    rep = linearize(sys, twisted_state(6, 1, n=2))
    assert rep.omega_norm == 0.0
    assert rep.kahan_gap <= 1e-9
    assert rep.beta > 0.1


def _refuse(*args, **kwargs):
    raise AssertionError("eigensolver called")


def _linearize_cases():
    rng = np.random.default_rng(2026)
    for make in (cycle_graph, path_graph, complete_graph):
        for N in (5, 12):
            for n in (2, 3):
                for x in (twisted_state(N, 1, n), random_configuration(rng, N, n)):
                    yield make(N, gain=1.0), n, x


def test_linearize_homogeneous_uses_only_the_symmetric_solve(monkeypatch):
    cases = list(_linearize_cases())
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", _refuse)
        reps = [linearize(LoheSystem(g, zero_frequencies(g.n_nodes, n)), x) for g, n, x in cases]
    for (g, n, x), rep in zip(cases, reps):
        dense = eigenvalues(assemble_A(LoheSystem(g, zero_frequencies(g.n_nodes, n)), x))
        assert np.max(np.abs(rep.spectrum_A - dense)) <= 1e-12
        assert np.all(rep.spectrum_A.imag == 0.0)
        assert np.all(np.diff(rep.spectrum_A.real) <= 0.0)
        assert rep.alpha_re == rep.beta
        assert rep.kahan_gap == 0.0
        assert rep.omega_norm == 0.0


def test_linearize_heterogeneous_is_the_dense_path():
    rng = np.random.default_rng(2027)
    for g, n, x in _linearize_cases():
        sys = LoheSystem(g, random_frequencies(rng, g.n_nodes, n, total_norm=0.4))
        rep = linearize(sys, x)
        spec = eigenvalues(assemble_A(sys, x))
        beta = float(_symmetric_spectrum(g, x)[-1])
        assert np.array_equal(rep.spectrum_A, spec)
        assert rep.beta == beta
        assert rep.alpha_re == float(spec[0].real)
        assert rep.kahan_gap == abs(beta - float(spec[0].real))


def _oracle_cases():
    # the linearize cases plus edge lists with unequal gains, all at unit rows
    yield from _linearize_cases()
    rng = np.random.default_rng(2028)
    for _ in range(8):
        N = int(rng.integers(2, 12))
        n = int(rng.integers(1, 5))
        yield _random_graph(rng, N), n, random_configuration(rng, N, n)


def test_assemble_B_tangent_is_the_tangent_restriction_of_B():
    for g, n, x in _oracle_cases():
        BT = assemble_B_tangent(g, x)
        assert BT.shape == (g.n_nodes * n, g.n_nodes * n)
        assert np.max(np.abs(BT - _tangent_restricted(assemble_B(g, x), x))) <= 1e-13


def test_linearize_homogeneous_spectrum_is_the_dense_spectrum_of_B(monkeypatch):
    # the tangent spectrum plus N normal zeros, without forming the N d-square B
    cases = list(_oracle_cases())
    with monkeypatch.context() as mp:
        mp.setattr("lohesphere.spectral.assemble_B", _refuse)
        reps = [linearize(LoheSystem(g, zero_frequencies(g.n_nodes, n)), x) for g, n, x in cases]
    for (g, n, x), rep in zip(cases, reps):
        B = assemble_B(g, x)
        scale = max(1.0, np.linalg.norm(B, 2))
        assert np.max(np.abs(rep.spectrum_A - np.linalg.eigvalsh(B)[::-1])) <= 1e-12 * scale
        assert np.count_nonzero(rep.spectrum_A == 0.0) >= g.n_nodes


@pytest.mark.parametrize("total_norm", [0.0, 0.5])
def test_linearize_rejects_rows_off_the_sphere(monkeypatch, total_norm):
    g = cycle_graph(5, gain=1.0)
    sys = LoheSystem(g, random_frequencies(np.random.default_rng(3), 5, 2, total_norm))
    x = twisted_state(5, 1, n=2)
    x[2] *= 1.0 + 1e-8
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    monkeypatch.setattr(np.linalg, "eigvals", _refuse)
    with pytest.raises(ValueError, match="unit"):
        linearize(sys, x)


@pytest.mark.parametrize("total_norm", [0.0, 0.5])
def test_linearize_rejects_non_finite_configuration(monkeypatch, total_norm):
    g = cycle_graph(5, gain=1.0)
    sys = LoheSystem(g, random_frequencies(np.random.default_rng(3), 5, 2, total_norm))
    x = twisted_state(5, 1, n=2)
    x[2] = np.nan
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    monkeypatch.setattr(np.linalg, "eigvals", _refuse)
    with pytest.raises(ValueError, match="non-finite"):
        linearize(sys, x)


def _rank_k_cases():
    # configurations spanning a k-dimensional subspace of R^d, k < d, turned
    # by a random rotation; random graphs with unequal gains, one agent, and
    # points that are not equilibria. The last field says whether the shift
    # i -> i+1 maps the case to itself: one agent, and two agents on their
    # one edge (y_1 = R y_0 and y_0 = R y_1 for the reflection R that swaps
    # them) and twisted states are; the random graphs on 5 and 13 agents are
    # not, and keep the dense planar split covered.
    rng = np.random.default_rng(2029)
    for d in (3, 4, 5):
        for k in range(1, d):
            for N in (1, 2, 5, 13):
                Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
                y = rng.standard_normal((N, k))
                y /= np.linalg.norm(y, axis=1, keepdims=True)
                x = np.hstack((y, np.zeros((N, d - k)))) @ Q.T
                x /= np.linalg.norm(x, axis=1, keepdims=True)
                g = CouplingGraph(1, (), ()) if N == 1 else _random_graph(rng, N)
                yield g, d - 1, x, N <= 2
    for N in (6, 10):  # twisted states are planar
        yield cycle_graph(N, gain=1.0), 3, twisted_state(N, 1, 3), True
        yield complete_graph(N, gain=0.7), 4, twisted_state(N, 2, 4), True


def _solved_sizes(mp):
    # record the shape of every symmetric solve
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def spy(M):
        sizes.append(M.shape)
        return eigvalsh(M)

    mp.setattr(np.linalg, "eigvalsh", spy)
    return sizes


def _dense_sizes(N, k, d):
    # the tangent block of the k-dimensional coordinates, then the graph matrix when k < d
    return [(N * (k - 1), N * (k - 1))] + ([(N, N)] if k < d else [])


def test_symmetric_spectrum_split_is_the_dense_spectrum_of_B(monkeypatch):
    rng = np.random.default_rng(2030)
    for g, n, x, cyclic in _rank_k_cases():
        N = g.n_nodes
        k = np.linalg.matrix_rank(x)
        assert k < n + 1
        B = assemble_B(g, x)
        dense = np.linalg.eigvalsh(B)
        scale = max(1.0, np.linalg.norm(B, 2))
        with monkeypatch.context() as mp:
            sizes = _solved_sizes(mp)
            mp.setattr(np.linalg, "eigvals", _refuse)
            rep = linearize(LoheSystem(g, zero_frequencies(N, n)), x)
        assert sizes == ([(N, k - 1, k - 1)] if cyclic else _dense_sizes(N, k, n + 1))
        assert np.max(np.abs(rep.spectrum_A - dense[::-1])) <= 1e-12 * scale
        assert np.count_nonzero(rep.spectrum_A == 0.0) >= N
        drifted = linearize(LoheSystem(g, random_frequencies(rng, N, n, total_norm=0.4)), x)
        assert abs(drifted.beta - dense[-1]) <= 1e-12 * scale


def test_planar_homogeneous_certificate_solves_only_n_square_matrices(monkeypatch):
    N = 40
    g = _random_graph(np.random.default_rng(2031), N)
    Q = np.linalg.qr(np.random.default_rng(2032).standard_normal((4, 4)))[0]
    x = twisted_state(N, 3, 3) @ Q.T
    eigvalsh = np.linalg.eigvalsh

    def refuse_large(M):
        if M.shape[0] > N:
            raise AssertionError(f"solved a {M.shape[0]}-square matrix")
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse_large)
    monkeypatch.setattr(np.linalg, "eigvals", _refuse)
    rep = linearize(LoheSystem(g, zero_frequencies(N, 3)), x)
    assert len(rep.spectrum_A) == N * 4


def test_symmetric_spectrum_takes_the_full_rank_path_just_above_the_rank_tolerance(
        monkeypatch):
    N = 12
    g = _random_graph(np.random.default_rng(2033), N)
    planar = twisted_state(N, 1, 2)
    tol = np.linalg.svd(planar, compute_uv=False)[0] * N * np.finfo(float).eps
    for scale, full_rank in ((4.0, True), (0.125, False)):
        x = planar.copy()
        x[5] = x[5] + scale * tol * np.array([0.0, 0.0, 1.0])
        x[5] /= np.linalg.norm(x[5])
        assert (np.linalg.matrix_rank(x) == 3) == full_rank
        with monkeypatch.context() as mp:
            sizes = _solved_sizes(mp)
            spec = _symmetric_spectrum(g, x)
        assert sizes == _dense_sizes(N, 3 if full_rank else 2, 3)
        B = assemble_B(g, x)
        nB = max(1.0, np.linalg.norm(B, 2))
        assert np.max(np.abs(spec - np.linalg.eigvalsh(B))) <= 1e-12 * nB
    # at full rank the split is the tangent solve itself, bit for bit
    x = random_configuration(np.random.default_rng(2034), N, 2)
    tangent = np.linalg.eigvalsh(assemble_B_tangent(g, x))
    assert np.array_equal(_symmetric_spectrum(g, x),
                          np.sort(np.concatenate((tangent, np.zeros(N)))))


def test_planar_certificate_holds_one_n_square_matrix_at_a_time():
    # with one unequal gain the ring takes the planar split: the tangent block is solved
    # and freed before W - diag(align) is formed from the edge list, and the graph's
    # dense weight matrix is never built; two live N-square matrices would peak near
    # 2 N^2 doubles. The ring itself is cyclically symmetric and forms none.
    N = 600
    Q = np.linalg.qr(np.random.default_rng(2035).standard_normal((3, 3)))[0]
    x = twisted_state(N, 1, 2) @ Q.T
    uneven = from_edge_list(N, [(i + 1, (i + 1) % N + 1, 2.0 if i == 0 else 1.0)
                                for i in range(N)])
    for g, limit in ((uneven, 1.5), (cycle_graph(N, gain=1.0), 0.1)):
        system = LoheSystem(g, zero_frequencies(N, 2))
        tracemalloc.start()
        try:
            rep = linearize(system, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "weight_matrix" not in g.__dict__
        assert peak < limit * N * N * 8
    assert rep.beta == pytest.approx(2.0 * (1.0 - np.cos(2.0 * np.pi / N)), rel=1e-6)


def _circulant_graph(N, offsets, gain):
    # node i joined to i + o (mod N) for every offset o, one-based
    return from_edge_list(N, [(i + 1, (i + o) % N + 1, gain) for i in range(N) for o in offsets])


def _cyclic_cases():
    # rows with x_(i+1) = R x_i on graphs that the shift i -> i+1 maps to themselves,
    # turned by a random orthogonal matrix: q-twisted states (planar; q = N/2 puts the
    # agents at two antipodal points) and circles of latitude (three-dimensional span)
    rng = np.random.default_rng(2036)
    for N in (5, 8, 13):
        for g in (cycle_graph(N, gain=0.8), complete_graph(N, gain=0.3),
                  _circulant_graph(N, (1, 2), 1.3)):
            for n in (1, 2, 3, 4):
                for q in sorted({1, 2, 3, N // 2}):
                    Q = np.linalg.qr(rng.standard_normal((n + 1, n + 1)))[0]
                    yield g, n, twisted_state(N, q, n) @ Q.T
            for n in (2, 4):
                phase = 2.0 * np.pi * 2 * np.arange(N) / N
                x = np.zeros((N, n + 1))
                x[:, 0], x[:, 1], x[:, 2] = 0.6 * np.cos(phase), 0.6 * np.sin(phase), 0.8
                yield g, n, x @ np.linalg.qr(rng.standard_normal((n + 1, n + 1)))[0].T
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    yield cycle_graph(600, gain=1.0), 2, twisted_state(600, 1, 2) @ Q.T


def test_cyclic_spectrum_is_the_dense_spectrum_of_B(monkeypatch):
    # one batched solve of N (k-1)-square Fourier blocks, no N-square matrix
    rng = np.random.default_rng(2037)
    for g, n, x in _cyclic_cases():
        N = g.n_nodes
        k = np.linalg.matrix_rank(x)
        B = assemble_B(g, x)
        dense = np.linalg.eigvalsh(B)
        scale = max(1.0, np.linalg.norm(B, 2))
        with monkeypatch.context() as mp:
            sizes = _solved_sizes(mp)
            mp.setattr(np.linalg, "eigvals", _refuse)
            rep = linearize(LoheSystem(g, zero_frequencies(N, n)), x)
        assert sizes == [(N, k - 1, k - 1)]
        assert np.max(np.abs(rep.spectrum_A - dense[::-1])) <= 1e-12 * scale
        assert np.count_nonzero(rep.spectrum_A == 0.0) >= N
        drifted = linearize(LoheSystem(g, random_frequencies(rng, N, n, total_norm=0.4)), x)
        assert abs(drifted.beta - dense[-1]) <= 1e-12 * scale


def test_inputs_without_cyclic_symmetry_take_the_dense_path(monkeypatch):
    N = 12
    rng = np.random.default_rng(2038)
    ring = twisted_state(N, 1, 2)
    moved = ring.copy()
    moved[4] = [np.cos(2.0 * np.pi * 4 / N + 1e-9), np.sin(2.0 * np.pi * 4 / N + 1e-9), 0.0]
    phase = rng.uniform(0.0, 2.0 * np.pi, N)
    scattered = np.stack((np.cos(phase), np.sin(phase), np.zeros(N)), axis=1)
    uneven = from_edge_list(N, [(i + 1, (i + 1) % N + 1, 1.5 if i == 3 else 1.0)
                                for i in range(N)])
    cases = ((path_graph(N, gain=1.0), ring), (uneven, ring),
             (cycle_graph(N, gain=1.0), moved), (cycle_graph(N, gain=1.0), scattered))
    for g, x in cases:
        x = x @ np.linalg.qr(rng.standard_normal((3, 3)))[0].T
        B = assemble_B(g, x)
        with monkeypatch.context() as mp:
            sizes = _solved_sizes(mp)
            spec = _symmetric_spectrum(g, x)
        assert sizes == _dense_sizes(N, 2, 3)
        assert np.max(np.abs(spec - np.linalg.eigvalsh(B))) <= 1e-12 * np.linalg.norm(B, 2)

