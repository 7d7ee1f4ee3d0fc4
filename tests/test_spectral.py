"""Linearization assembly, eigensolving, and the skew perturbation bound."""

import tracemalloc

import numpy as np
import pytest

from _oracles import kahan_bound, symmetric_top_eigenvalue
from lohesphere.dynamics import (
    LoheSystem,
    hetero_rhs,
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
from lohesphere.geometry import tangent_basis
from lohesphere.simulate import find_equilibrium
from lohesphere.spectral import (
    _symmetric_spectrum,
    assemble_A,
    assemble_B,
    eigenvalues,
    fd_jacobian,
    linearize,
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


def _blockdiag(blocks):
    """Block-diagonal matrix of N (p, q) blocks, shape (N p, N q)."""
    N, p, q = blocks.shape
    D = np.zeros((N * p, N * q))
    for i in range(N):
        D[i * p : (i + 1) * p, i * q : (i + 1) * q] = blocks[i]
    return D


def _frame(x):
    """Block-diagonal orthonormal basis of the configuration's tangent space, (N d, N (d-1))."""
    return _blockdiag(tangent_basis(x))


def _ambient_B(g, x):
    """B in R^(N d), block by block: the projectors P_i = I - x_i x_i^T on both sides."""
    N, d = x.shape
    P = np.eye(d)[None, :, :] - np.einsum("ni,nj->nij", x, x)
    align = np.einsum("ij,jd,id->i", g.weight_matrix, x, x)
    B = _blockdiag(-align[:, None, None] * P)
    for (i, j), k in zip(g.edges, g.gains):
        si, sj = slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d)
        B[si, sj] = k * (P[i] @ P[j])
        B[sj, si] = k * (P[j] @ P[i])
    return B


def test_assemble_B_phase_synced_pair():
    # x1 = x2 = e1 share the tangent e2: diagonal -1, off-diagonal +1
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    B = assemble_B(_pair_graph(), x)
    assert np.allclose(B, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-15)
    vals = np.linalg.eigvalsh(B)
    assert np.allclose(sorted(vals), [-2.0, 0.0], atol=1e-12)
    assert abs(symmetric_top_eigenvalue(B)) <= 1e-12


def test_assemble_B_antipodal_pair_unstable():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    B = assemble_B(_pair_graph(), x)
    assert np.allclose(B, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)
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
    r = 2
    # path 1-2-3-4 has no {0,2}, {0,3}, {1,3} edges
    for i, j in ((0, 2), (0, 3), (1, 3)):
        assert np.all(B[i * r : (i + 1) * r, j * r : (j + 1) * r] == 0.0)


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


def test_assemblers_reject_rows_off_the_sphere():
    g = complete_graph(4, gain=1.0)
    x = random_configuration(np.random.default_rng(43), 4, 2)
    system = LoheSystem(g, random_frequencies(np.random.default_rng(44), 4, 2, 0.3))
    nan_row = x.copy()
    nan_row[2] = np.nan
    for bad in (2.0 * x, nan_row):
        with pytest.raises(ValueError, match="unit vectors"):
            assemble_B(g, bad)
        with pytest.raises(ValueError, match="unit vectors"):
            assemble_A(system, bad)
    assert np.array_equal(assemble_A(system, x)[:2, 2:], assemble_B(g, x)[:2, 2:])


def test_assemble_B_matches_block_loop():
    rng = np.random.default_rng(41)
    for _ in range(30):
        N = int(rng.integers(2, 12))
        d = int(rng.integers(2, 5))
        r = d - 1
        g = _random_graph(rng, N)
        x = random_configuration(rng, N, r)
        T = tangent_basis(x)
        align = np.einsum("ij,jd,id->i", g.weight_matrix, x, x)
        loop = np.zeros((N * r, N * r))
        for i in range(N):
            sl = slice(i * r, (i + 1) * r)
            loop[sl, sl] = -align[i] * np.eye(r)
        for (i, j), k in zip(g.edges, g.gains):
            si, sj = slice(i * r, (i + 1) * r), slice(j * r, (j + 1) * r)
            loop[si, sj] = k * (T[i].T @ T[j])
            loop[sj, si] = k * (T[j].T @ T[i])
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
        T = tangent_basis(x)
        D = _blockdiag(T.mT @ sys.omegas @ T)
        assert np.array_equal(A, B + D)
        # off-diagonal blocks of A - B cancel to exact zeros, diagonal blocks are skew
        diff = A - B
        assert np.allclose(diff, _blockdiag(np.array([T[i].T @ sys.omegas[i] @ T[i]
                                                      for i in range(N)])), atol=1e-12)
        assert np.allclose(diff + diff.T, 0.0, atol=1e-12)


def test_assemble_A_zero_frequencies_is_B():
    rng = np.random.default_rng(6)
    x = random_configuration(rng, 3, 2)
    g = cycle_graph(3, gain=1.0)
    sys = LoheSystem(g, zero_frequencies(3, 2))
    assert np.array_equal(assemble_A(sys, x), assemble_B(g, x))


def test_assemble_A_single_agent_is_omega():
    # Omega in the agent's tangent basis: on the circle a rotation is neutral,
    # on S^2 about the agent it turns the tangent plane
    g = CouplingGraph(1, (), ())
    omega = np.array([[[0.0, 0.4], [-0.4, 0.0]]])
    assert np.array_equal(assemble_A(LoheSystem(g, omega), np.array([[0.0, 1.0]])), [[0.0]])
    omega = np.array([[[0.0, 0.4, 0.0], [-0.4, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    x = np.array([[0.0, 0.0, 1.0]])
    T = tangent_basis(x[0])
    A = assemble_A(LoheSystem(g, omega), x)
    assert np.allclose(A, T.T @ omega[0] @ T, atol=1e-15)
    assert np.allclose(np.sort(eigenvalues(A).imag), [-0.4, 0.4], atol=1e-15)


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
    T = _frame(x)
    rng = np.random.default_rng(0)
    for _ in range(20):
        xi = rng.standard_normal(T.shape[1])
        xi /= np.linalg.norm(xi)
        assert np.linalg.norm(J @ T @ xi - T @ B @ xi) <= 1e-5 * nB


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
    T = _frame(x)
    assert np.linalg.norm(T.T @ J @ T - A, 2) <= 1e-5 * nA
    # norm conservation and F = 0 make the extension's Jacobian map tangent
    # directions to tangent directions, so T A is the whole of J T there
    assert np.linalg.norm(J @ T - T @ A, 2) <= 1e-5 * nA


def _newton_systems(mp):
    # record the matrix and right-hand side of every least-squares solve
    calls, lstsq = [], np.linalg.lstsq

    def spy(J, rhs, **kwargs):
        calls.append((J, rhs))
        return lstsq(J, rhs, **kwargs)

    mp.setattr(np.linalg, "lstsq", spy)
    return calls


def test_newton_system_matches_fd_on_tangent_directions(monkeypatch):
    # random heterogeneous configurations, far from any equilibrium: Newton's
    # matrix is the extension's Jacobian on tangent directions, rows in each
    # agent's frame [T_i, x_i]; the normal rows -F_i^T T_i are what M alone misses
    rng = np.random.default_rng(31)
    for _ in range(8):
        N = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        g = _random_graph(rng, N)
        sys = LoheSystem(g, random_frequencies(rng, N, n, total_norm=0.8))
        x = random_configuration(rng, N, n)
        with monkeypatch.context() as mp:
            calls = _newton_systems(mp)
            find_equilibrium(sys, x, tol=0.0, max_time=0.0)
        J, rhs = calls[0]
        T = _frame(x)
        rows = np.vstack((T.T, _blockdiag(x[:, None, :])))  # [T^T; X^T]
        fd = rows @ fd_jacobian(sys, x, h=1e-5) @ T
        M = assemble_A(sys, x)
        nM = np.linalg.norm(M, 2)
        nA = np.linalg.norm(_ambient_B(g, x) + _blockdiag(sys.omegas), 2)
        assert np.linalg.norm(fd - J, 2) <= 1e-5 * nM
        assert np.linalg.norm(rhs + rows @ hetero_rhs(sys, x).ravel()) <= 1e-14
        assert np.linalg.norm(fd - np.vstack((M, np.zeros((N, M.shape[1])))), 2) > 1e-3 * nA


def test_fd_jacobian_single_rotating_agent():
    g = CouplingGraph(1, (), ())
    omega = np.array([[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    sys = LoheSystem(g, omega)
    x = np.array([[0.0, 0.0, 1.0]])
    J = fd_jacobian(sys, x, h=1e-5)
    assert np.max(np.abs(J - omega[0])) <= 1e-6


def test_normal_directions_in_kernel_of_B():
    # in R^(N d) each x_i is an exact kernel vector of B: the N normal zeros
    # that linearize merges into the tangent spectrum
    for N, q, n in ((6, 1, 2), (5, 1, 3), (8, 3, 1)):
        x = twisted_state(N, q, n)
        B = _ambient_B(cycle_graph(N, gain=1.0), x)
        nB = np.linalg.norm(B, 2)
        for i in range(N):
            vec = np.zeros(N * (n + 1))
            vec[i * (n + 1) : (i + 1) * (n + 1)] = x[i]
            assert np.linalg.norm(B @ vec) <= 1e-12 * nB


def test_rotation_orbit_directions_in_kernel_at_equilibria():
    # equivariance: at an equilibrium the tangent vector (S x_i)_i is
    # neutral for the linearization, for any skew S
    rng = np.random.default_rng(10)
    for N, q, n in ((6, 1, 2), (4, 1, 2), (5, 2, 1)):
        x = twisted_state(N, q, n)
        B = assemble_B(cycle_graph(N, gain=1.0), x)
        nB = np.linalg.norm(B, 2)
        for _ in range(5):
            S = random_frequencies(rng, 1, n, 1.0)[0]
            vec = _frame(x).T @ (x @ S.T).reshape(-1)
            if np.linalg.norm(vec) < 1e-12:
                continue
            vec /= np.linalg.norm(vec)
            assert np.linalg.norm(B @ vec) <= 1e-8 * nB


def test_tangent_restriction_bounded_by_full_top_eigenvalue():
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = random_configuration(rng, 5, 2)
        g = complete_graph(5, gain=1.0)
        T = _frame(x)
        assert np.allclose(T.T @ T, np.eye(T.shape[1]), atol=1e-13)
        restricted = symmetric_top_eigenvalue(assemble_B(g, x))
        assert restricted <= symmetric_top_eigenvalue(_ambient_B(g, x)) + 1e-12


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
        dense = np.linalg.eigvalsh(_ambient_B(g, x))[::-1]
        assert np.max(np.abs(rep.spectrum_A - dense)) <= 1e-12
        assert np.all(rep.spectrum_A.imag == 0.0)
        assert np.all(np.diff(rep.spectrum_A.real) <= 0.0)
        assert rep.alpha_re == rep.beta
        assert rep.kahan_gap == 0.0
        assert rep.omega_norm == 0.0


def _drifted_equilibria():
    # equilibria of complete graphs under drift, refined from random starts
    for N, drift in ((7, 0.1), (5, 0.05)):
        for s in range(12):
            rng = np.random.default_rng([s, 26])
            sys = LoheSystem(complete_graph(N, gain=1.0), random_frequencies(rng, N, 2, drift))
            eq = find_equilibrium(sys, random_configuration(rng, N, 2), tol=1e-12, max_time=10.0)
            assert eq.converged
            yield sys, eq.config


def test_linearize_drifted_spectrum_is_the_fd_spectrum():
    # at an equilibrium the extension's Jacobian is M on the tangent spaces and
    # zero on the normal directions, so its spectrum is that of M plus N zeros;
    # an ambient A with the Omega_i blocks whole misses it by about 1e-2 here
    for sys, x in _drifted_equilibria():
        rep = linearize(sys, x)
        fd = np.linalg.eigvals(fd_jacobian(sys, x, h=1e-6))
        assert len(rep.spectrum_A) == len(fd)
        assert max(np.min(np.abs(fd - v)) for v in rep.spectrum_A) <= 1e-6
        abscissa = float(np.max(fd.real))
        if abs(abscissa) > 1e-7:
            assert (rep.alpha_re > 0) == (abscissa > 0)
        assert np.all(np.diff(rep.spectrum_A.real) <= 0.0)
        assert np.count_nonzero(rep.spectrum_A == 0.0) >= sys.n_agents
        beta = float(_symmetric_spectrum(sys.graph, x)[-1])
        assert rep.beta == beta
        assert rep.alpha_re == float(rep.spectrum_A[0].real) >= 0.0
        assert rep.kahan_gap == abs(beta - rep.alpha_re) <= rep.omega_norm


def _oracle_cases():
    # the linearize cases plus edge lists with unequal gains, all at unit rows
    yield from _linearize_cases()
    rng = np.random.default_rng(2028)
    for _ in range(8):
        N = int(rng.integers(2, 12))
        n = int(rng.integers(1, 5))
        yield _random_graph(rng, N), n, random_configuration(rng, N, n)


def test_assemble_B_is_the_tangent_restriction_of_the_ambient_B():
    for g, n, x in _oracle_cases():
        B = assemble_B(g, x)
        assert B.shape == (g.n_nodes * n, g.n_nodes * n)
        T = _frame(x)
        assert np.max(np.abs(B - T.T @ _ambient_B(g, x) @ T)) <= 1e-13


def test_linearize_homogeneous_spectrum_is_the_dense_spectrum_of_B():
    # the tangent spectrum plus N normal zeros
    for g, n, x in _oracle_cases():
        rep = linearize(LoheSystem(g, zero_frequencies(g.n_nodes, n)), x)
        B = _ambient_B(g, x)
        scale = max(1.0, np.linalg.norm(B, 2))
        assert np.max(np.abs(rep.spectrum_A - np.linalg.eigvalsh(B)[::-1])) <= 1e-12 * scale
        assert np.count_nonzero(rep.spectrum_A == 0.0) >= g.n_nodes


def _formed_shapes(mp):
    # shapes of the arrays np.zeros and np.vstack return, and of the matrix
    # handed to every dense solve
    shapes = {}

    def record(module, name, of_result):
        f = getattr(module, name)

        def spy(*args, **kwargs):
            out = f(*args, **kwargs)
            shapes.setdefault(name, []).append(np.shape(out if of_result else args[0]))
            return out

        mp.setattr(module, name, spy)

    for name in ("zeros", "vstack"):
        record(np, name, True)
    for name in ("eigvals", "eigvalsh", "lstsq"):
        record(np.linalg, name, False)
    return shapes


def test_drifted_linearize_and_newton_solve_only_tangent_sized_systems(monkeypatch):
    rng = np.random.default_rng(2039)
    for g, n, x in _oracle_cases():
        N, d = g.n_nodes, n + 1
        sys = LoheSystem(g, random_frequencies(rng, N, n, total_norm=0.4))
        start = x + 1e-3 * rng.standard_normal(x.shape)
        with monkeypatch.context() as mp:
            shapes = _formed_shapes(mp)
            rep = linearize(sys, x)
            assert shapes["eigvals"] == [(N * n, N * n)]
            find_equilibrium(sys, start, tol=0.0, max_time=0.0)
        assert len(rep.spectrum_A) == N * d
        assert len(shapes["lstsq"]) >= 1
        assert set(shapes["lstsq"]) == {(N * d, N * n)}
        assert all((N * d, N * d) not in found for found in shapes.values())


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
    # not, and keep the one dense solve of B covered.
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


def _dense_sizes(N, d):
    # the one symmetric solve of B at x, whatever the rank of x
    return [(N * (d - 1), N * (d - 1))]


def test_rank_deficient_symmetric_spectrum_is_the_dense_spectrum_of_B(monkeypatch):
    rng = np.random.default_rng(2030)
    for g, n, x, cyclic in _rank_k_cases():
        N = g.n_nodes
        k = np.linalg.matrix_rank(x)
        assert k < n + 1
        B = _ambient_B(g, x)
        dense = np.linalg.eigvalsh(B)
        scale = max(1.0, np.linalg.norm(B, 2))
        with monkeypatch.context() as mp:
            sizes = _solved_sizes(mp)
            mp.setattr(np.linalg, "eigvals", _refuse)
            rep = linearize(LoheSystem(g, zero_frequencies(N, n)), x)
        assert sizes == ([(N, k - 1, k - 1)] if cyclic else _dense_sizes(N, n + 1))
        assert np.max(np.abs(rep.spectrum_A - dense[::-1])) <= 1e-12 * scale
        assert np.count_nonzero(rep.spectrum_A == 0.0) >= N
        drifted = linearize(LoheSystem(g, random_frequencies(rng, N, n, total_norm=0.4)), x)
        assert abs(drifted.beta - dense[-1]) <= 1e-12 * scale


def test_symmetric_spectrum_takes_the_full_rank_path_just_above_the_rank_tolerance(
        monkeypatch):
    # a cyclic ring lifted off its plane into a circle of latitude whose third singular
    # value is scale times the rank tolerance: Fourier blocks of the full-rank rows above
    # the tolerance, of the planar rows below it
    N = 12
    g = _circulant_graph(N, (1, 2), 1.3)
    planar = twisted_state(N, 1, 2)
    tol = np.linalg.svd(planar, compute_uv=False)[0] * N * np.finfo(float).eps
    for scale, full_rank in ((4.0, True), (0.125, False)):
        x = planar.copy()
        x[:, 2] = scale * tol / np.sqrt(N)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        assert (np.linalg.matrix_rank(x) == 3) == full_rank
        with monkeypatch.context() as mp:
            sizes = _solved_sizes(mp)
            spec = _symmetric_spectrum(g, x)
        k = 3 if full_rank else 2
        assert sizes == [(N, k - 1, k - 1)]
        B = _ambient_B(g, x)
        nB = max(1.0, np.linalg.norm(B, 2))
        assert np.max(np.abs(spec - np.linalg.eigvalsh(B))) <= 1e-12 * nB
    # without cyclic symmetry the spectrum is the tangent solve itself, bit for bit
    g = _random_graph(np.random.default_rng(2033), N)
    x = random_configuration(np.random.default_rng(2034), N, 2)
    tangent = np.linalg.eigvalsh(assemble_B(g, x))
    assert np.array_equal(_symmetric_spectrum(g, x),
                          np.sort(np.concatenate((tangent, np.zeros(N)))))


def test_cyclic_ring_certificate_forms_no_n_square_matrix():
    # the cyclically symmetric ring takes the Fourier blocks: no N-square matrix is formed
    # (one would peak near N^2 doubles) and the graph's dense weight matrix is never built
    N = 600
    Q = np.linalg.qr(np.random.default_rng(2035).standard_normal((3, 3)))[0]
    x = twisted_state(N, 1, 2) @ Q.T
    g = cycle_graph(N, gain=1.0)
    system = LoheSystem(g, zero_frequencies(N, 2))
    tracemalloc.start()
    try:
        rep = linearize(system, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "weight_matrix" not in g.__dict__
    assert peak < 0.1 * N * N * 8
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
        B = _ambient_B(g, x)
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
        B = _ambient_B(g, x)
        with monkeypatch.context() as mp:
            sizes = _solved_sizes(mp)
            spec = _symmetric_spectrum(g, x)
        assert sizes == _dense_sizes(N, 3)
        assert np.max(np.abs(spec - np.linalg.eigvalsh(B))) <= 1e-12 * np.linalg.norm(B, 2)

