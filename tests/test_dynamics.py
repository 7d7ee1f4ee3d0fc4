import math

import numpy as np
import pytest

from lohesphere.dynamics import (
    LoheSystem,
    angles_to_configuration,
    configuration_to_angles,
    disagreement,
    disagreement_gradient,
    extended_rhs,
    frequency_total_norm,
    hetero_rhs,
    homo_rhs,
    kuramoto_frequency_matrix,
    kuramoto_rhs,
    random_configuration,
    random_frequencies,
    zero_frequencies,
)
from lohesphere.network import complete_graph, cycle_graph, from_edge_list, path_graph
from lohesphere.stability import twisted_state


def synced_config(n_agents, n):
    x = np.zeros((n_agents, n + 1))
    x[:, 0] = 1.0
    return x


def random_system(rng, n_agents, n, total_norm=1.0):
    graph = path_graph(n_agents)
    om = random_frequencies(rng, n_agents, n, total_norm)
    return LoheSystem(graph=graph, omegas=om)


def test_hetero_rhs_synced_zero_frequencies():
    g = path_graph(4)
    sys = LoheSystem(graph=g, omegas=zero_frequencies(4, 2))
    out = hetero_rhs(sys, synced_config(4, 2))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_hetero_rhs_synced_reduces_to_drift():
    rng = np.random.default_rng(0)
    g = path_graph(4)
    om = np.array([random_frequencies(rng, 1, 2, 0.7)[0] for _ in range(4)])
    sys = LoheSystem(graph=g, omegas=om)
    x = synced_config(4, 2)
    expected = np.einsum("nij,nj->ni", om, x)
    assert np.allclose(hetero_rhs(sys, x), expected, atol=1e-14)


def test_hetero_rhs_two_agent_hand_value():
    g = from_edge_list(2, [(1, 2, 1.0)])
    sys = LoheSystem(graph=g, omegas=zero_frequencies(2, 2))
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = hetero_rhs(sys, x)
    assert np.allclose(out[0], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(out[1], [1.0, 0.0, 0.0], atol=1e-15)


def test_hetero_rhs_dimension_mismatch():
    g = path_graph(3)
    sys = LoheSystem(graph=g, omegas=zero_frequencies(3, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        hetero_rhs(sys, np.eye(4))


def test_tangency_on_random_inputs():
    rng = np.random.default_rng(1)
    for _ in range(30):
        N = int(rng.integers(2, 9))
        n = int(rng.integers(1, 5))
        sys = random_system(rng, N, n, total_norm=float(rng.uniform(0, 2)))
        x = random_configuration(rng, N, n)
        out = hetero_rhs(sys, x)
        assert np.max(np.abs(np.einsum("nd,nd->n", out, x))) <= 1e-12


def test_homo_equals_hetero_with_zero_frequencies():
    rng = np.random.default_rng(2)
    g = cycle_graph(5, 0.8)
    sys = LoheSystem(graph=g, omegas=zero_frequencies(5, 3))
    x = random_configuration(rng, 5, 3)
    assert np.array_equal(homo_rhs(g, x), hetero_rhs(sys, x))


def test_homo_rhs_antipodal_equilibrium():
    g = from_edge_list(2, [(1, 2, 1.0)])
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert np.allclose(homo_rhs(g, x), 0.0, atol=1e-15)


def test_homo_rhs_twisted_equilibrium():
    for N, q in ((4, 1), (6, 1), (8, 3)):
        g = cycle_graph(N)
        x = twisted_state(N, q, 2)
        assert np.max(np.abs(homo_rhs(g, x))) <= 1e-12


def test_drift_decomposition_exact():
    rng = np.random.default_rng(3)
    g = complete_graph(4, 1.3)
    om = np.array([random_frequencies(rng, 1, 3, 1.0)[0] for _ in range(4)])
    sys = LoheSystem(graph=g, omegas=om)
    x = random_configuration(rng, 4, 3)
    drift = np.einsum("nij,nj->ni", sys.omegas, x)
    assert np.array_equal(hetero_rhs(sys, x), drift + homo_rhs(g, x))


def test_disagreement_values():
    g1 = from_edge_list(2, [(1, 2, 1.0)])
    synced = synced_config(2, 2)
    assert disagreement(g1, synced) == 0.0
    antip = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert abs(disagreement(g1, antip) - 4.0) <= 1e-14
    g2 = from_edge_list(2, [(1, 2, 2.0)])
    pair = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert abs(disagreement(g2, pair) - 4.0) <= 1e-14


def test_gradient_identity_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        N = int(rng.integers(2, 8))
        g = path_graph(N, float(rng.uniform(0.5, 2)))
        z = random_configuration(rng, N, int(rng.integers(1, 4)))
        assert np.array_equal(homo_rhs(g, z) + disagreement_gradient(g, z),
                              np.zeros_like(z))


def test_gradient_zero_at_synced_and_antipodal():
    g = from_edge_list(2, [(1, 2, 1.0)])
    assert np.allclose(disagreement_gradient(g, synced_config(2, 2)), 0.0, atol=1e-15)
    antip = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert np.allclose(disagreement_gradient(g, antip), 0.0, atol=1e-15)


def test_gradient_matches_finite_differences():
    # V double counts each edge, so the directional derivative along a
    # tangent direction u at agent i is 2 <grad_i V, u>.
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(15):
        N = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        g = cycle_graph(N, float(rng.uniform(0.5, 2))) if N >= 3 else path_graph(N)
        z = random_configuration(rng, N, n)
        grad = disagreement_gradient(g, z)
        i = int(rng.integers(0, N))
        u = rng.standard_normal(n + 1)
        u -= z[i] * (z[i] @ u)
        u /= np.linalg.norm(u)
        zp, zm = z.copy(), z.copy()
        zp[i] = zp[i] + h * u
        zm[i] = zm[i] - h * u
        fd = (disagreement(g, zp) - disagreement(g, zm)) / (2 * h)
        expected = 2.0 * (grad[i] @ u)
        assert abs(fd - expected) <= 1e-6 * max(1.0, abs(expected))


def test_extended_rhs_restricts_to_hetero():
    rng = np.random.default_rng(6)
    sys = random_system(rng, 5, 2)
    x = random_configuration(rng, 5, 2)
    assert np.allclose(extended_rhs(sys, x), hetero_rhs(sys, x), atol=1e-12)


def test_extended_rhs_scaled_input():
    rng = np.random.default_rng(7)
    sys = random_system(rng, 4, 2)
    x = random_configuration(rng, 4, 2)
    v = 2.0 * x
    drift = 2.0 * np.einsum("nij,nj->ni", sys.omegas, x)
    expected = drift + homo_rhs(sys.graph, x)
    assert np.allclose(extended_rhs(sys, v), expected, atol=1e-12)


def test_extended_rhs_norm_invariance():
    rng = np.random.default_rng(8)
    sys = random_system(rng, 6, 3)
    v = rng.uniform(0.5, 3.0, size=(6, 1)) * random_configuration(rng, 6, 3)
    out = extended_rhs(sys, v)
    assert np.max(np.abs(np.einsum("nd,nd->n", out, v))) <= 1e-10


@pytest.mark.parametrize("N", [4, 60])  # both sides of dynamics.BLOCK_MAX at d = 3
def test_extended_rhs_ignores_the_memory_layout_of_its_input(N):
    rng = np.random.default_rng(10)
    sys = random_system(rng, N, 2)
    x = random_configuration(rng, N, 2)
    strided = np.zeros((N, 6))
    strided[:, ::2] = x
    expected = extended_rhs(sys, x)
    for v in (np.asfortranarray(x), strided[:, ::2]):
        assert np.array_equal(extended_rhs(sys, v), expected)


def test_extended_rhs_rejects_origin():
    sys = random_system(np.random.default_rng(9), 3, 2)
    v = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="extension undefined"):
        extended_rhs(sys, v)


def test_kuramoto_rhs_basics():
    g = from_edge_list(2, [(1, 2, 1.0)])
    assert np.allclose(kuramoto_rhs(np.zeros(2), g, np.zeros(2)), 0.0)
    out = kuramoto_rhs(np.zeros(2), g, np.array([0.0, math.pi / 2]))
    assert np.allclose(out, [1.0, -1.0], atol=1e-15)


def test_kuramoto_matches_cartesian_field():
    # chart: x_i = (cos t_i, sin t_i); the angular rate of the drift
    # Omega x is <e2, Omega e1>
    rng = np.random.default_rng(10)
    for _ in range(20):
        N = int(rng.integers(2, 7))
        g = path_graph(N, float(rng.uniform(0.5, 2)))
        w = rng.standard_normal(N)
        om = np.array([kuramoto_frequency_matrix(wi) for wi in w])
        assert np.allclose([o[1, 0] for o in om], w)
        sys = LoheSystem(graph=g, omegas=om)
        theta = rng.uniform(-math.pi, math.pi, size=N)
        x = angles_to_configuration(theta)
        cart = hetero_rhs(sys, x)
        tau = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        polar_from_cart = np.einsum("nd,nd->n", cart, tau)
        assert np.allclose(polar_from_cart, kuramoto_rhs(w, g, theta), atol=1e-10)


def test_angle_chart_round_trip():
    theta = np.array([0.3, -2.0, 1.4])
    x = angles_to_configuration(theta)
    assert np.allclose(configuration_to_angles(x), theta, atol=1e-15)


def test_random_frequencies_total_norm():
    rng = np.random.default_rng(11)
    om = random_frequencies(rng, 7, 2, 0.35)
    assert abs(frequency_total_norm(om) - 0.35) <= 1e-10
    assert np.array_equal(random_frequencies(rng, 3, 2, 0.0), np.zeros((3, 3, 3)))


def test_random_frequencies_deterministic():
    a = random_frequencies(np.random.default_rng(12), 4, 2, 1.0)
    b = random_frequencies(np.random.default_rng(12), 4, 2, 1.0)
    assert np.array_equal(a, b)
    # the draw order is one (d, d) Gaussian per agent, as a per-agent loop takes it
    rng = np.random.default_rng(12)
    loop = np.empty((4, 3, 3))
    for i in range(4):
        G = rng.standard_normal((3, 3))
        loop[i] = (G - G.T) / 2.0
    assert np.array_equal(a, loop * (1.0 / frequency_total_norm(loop)))


def test_lohe_system_validation():
    g = path_graph(3)
    with pytest.raises(ValueError, match="does not match"):
        LoheSystem(graph=g, omegas=zero_frequencies(4, 2))
    bad = zero_frequencies(3, 2).copy()
    bad[0, 0, 1] = 1.0  # not skew
    with pytest.raises(ValueError, match="skew"):
        LoheSystem(graph=g, omegas=bad)


def test_lohe_system_rejects_non_finite_frequencies():
    # NaN fails every comparison, and an infinite entry made the tolerance infinite
    g = path_graph(2)
    facing = np.zeros((2, 3, 3))
    facing[0, 0, 1], facing[0, 1, 0] = np.inf, 1.0
    for omegas in (np.full((2, 3, 3), np.nan), facing):
        with pytest.raises(ValueError, match="finite"):
            LoheSystem(graph=g, omegas=omegas)


def test_random_configuration_unit_rows():
    x = random_configuration(np.random.default_rng(13), 6, 4)
    assert x.shape == (6, 5)
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= 1e-12


def test_disagreement_matches_edge_loop():
    rng = np.random.default_rng(31)
    for _ in range(50):
        N = int(rng.integers(2, 30))
        n = int(rng.integers(1, 5))
        triples = [(i, i + 1, float(rng.uniform(0.1, 3.0))) for i in range(1, N)]
        if N > 2:
            triples.append((1, N, float(rng.uniform(0.1, 3.0))))
        g = from_edge_list(N, triples)
        z = random_configuration(rng, N, n)
        loop = 0.0
        for (i, j), k in zip(g.edges, g.gains):
            diff = z[i] - z[j]
            loop += k * float(diff @ diff)
        assert abs(disagreement(g, z) - loop) <= 1e-12 * max(loop, 1.0)


def _random_connected_graph(rng, N):
    # a random spanning tree plus about N extra edges, gains off 1
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, N)}
    for _ in range(N):
        a, b = sorted(int(v) for v in rng.choice(N, 2, replace=False))
        pairs.add((a, b))
    return from_edge_list(N, [(a + 1, b + 1, float(rng.uniform(0.3, 3.0))) for a, b in pairs])


def test_fields_match_the_dense_weight_matrix():
    # the fields take the graph's neighbour sum, dense on small graphs and segment sums on
    # large sparse ones; the reference sums W @ x
    rng = np.random.default_rng(2041)
    graphs = [complete_graph(30, 1.7), complete_graph(7, 0.4), path_graph(30, 2.3),
              path_graph(2, 0.6), cycle_graph(30, 1.3), cycle_graph(3, 0.9)]
    graphs += [_random_connected_graph(rng, int(rng.integers(2, 31))) for _ in range(20)]
    graphs += [path_graph(700, 1.4), cycle_graph(600, 0.8), _random_connected_graph(rng, 500)]
    for g in graphs:
        N = g.n_nodes
        for d in (2, 3, 4):
            x = random_configuration(rng, N, d - 1)
            sys = LoheSystem(g, random_frequencies(rng, N, d - 1, 1.5))
            W = g.weight_matrix
            S = W @ x
            coupling = S - x * np.einsum("nd,nd->n", x, S)[:, None]
            drift = np.einsum("nij,nj->ni", sys.omegas, x)
            scale = np.abs(W).sum(axis=1).max()  # largest |S_i| the sum can reach
            assert np.max(np.abs(homo_rhs(g, x) - coupling)) <= 1e-14 * scale
            assert np.max(np.abs(hetero_rhs(sys, x) - (drift + coupling))) <= 1e-14 * max(
                scale, np.max(np.abs(drift)))
