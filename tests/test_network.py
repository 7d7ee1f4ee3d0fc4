import pickle

import numpy as np
import pytest

from lohesphere import cli, network
from lohesphere.network import (
    CouplingGraph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    min_gain,
    path_graph,
)


def edges_1based(g):
    return {(i + 1, j + 1) for i, j in g.edges}


def test_path_graph_n3():
    g = path_graph(3)
    assert edges_1based(g) == {(1, 2), (2, 3)}


def test_path_graph_n2_single_edge():
    g = path_graph(2)
    assert edges_1based(g) == {(1, 2)}


def test_path_graph_gains():
    g = path_graph(5, 2.0)
    assert len(g.edges) == 4
    assert all(k == 2.0 for k in g.gains)


def test_path_graph_too_small():
    with pytest.raises(ValueError):
        path_graph(1)


def test_cycle_graph_triangle():
    g = cycle_graph(3)
    assert edges_1based(g) == {(1, 2), (2, 3), (1, 3)}


def test_cycle_graph_n4():
    assert len(cycle_graph(4).edges) == 4


def test_cycle_graph_gain():
    g = cycle_graph(6, 0.5)
    assert len(g.edges) == 6
    assert all(k == 0.5 for k in g.gains)


def test_cycle_graph_too_small():
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_complete_graph_sizes():
    assert len(complete_graph(3).edges) == 3
    assert len(complete_graph(5).edges) == 10
    assert len(complete_graph(2).edges) == 1


def test_from_edge_list_valid_pair():
    g = from_edge_list(2, [(1, 2, 1.0)])
    assert g.n_nodes == 2
    assert edges_1based(g) == {(1, 2)}


def test_from_edge_list_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        from_edge_list(3, [(1, 2, 1.0)])


def test_from_edge_list_nonpositive_gain():
    with pytest.raises(ValueError, match="gain"):
        from_edge_list(3, [(1, 2, 1.0), (2, 3, -1.0)])


def test_from_edge_list_self_loop():
    with pytest.raises(ValueError, match="self loop"):
        from_edge_list(2, [(1, 1, 1.0), (1, 2, 1.0)])


def test_from_edge_list_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        from_edge_list(2, [(1, 2, 1.0), (2, 1, 2.0)])


def test_from_edge_list_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list(2, [(1, 3, 1.0)])


def test_min_gain_examples():
    assert min_gain(path_graph(4, 1.0)) == 1.0
    g = from_edge_list(4, [(1, 2, 1.0), (2, 3, 0.2), (3, 4, 3.0)])
    assert min_gain(g) == 0.2
    assert min_gain(from_edge_list(2, [(1, 2, 7.0)])) == 7.0


def test_single_node_graph_has_no_min_gain():
    g = CouplingGraph(n_nodes=1, edges=(), gains=())
    with pytest.raises(ValueError, match="no edges"):
        min_gain(g)


def test_generators_pass_connectivity():
    # construction itself runs the BFS check; reaching here means accepted
    for g in (path_graph(7), cycle_graph(7), complete_graph(7)):
        assert g.n_nodes == 7


def test_weight_matrix_symmetric_and_zero_diagonal():
    g = from_edge_list(4, [(1, 2, 1.5), (2, 3, 0.5), (3, 4, 2.0), (1, 4, 1.0)])
    W = g.weight_matrix
    assert np.array_equal(W, W.T)
    assert np.all(np.diag(W) == 0)
    assert W[0, 1] == 1.5 and W[2, 3] == 2.0


def test_edge_arrays_parallel_to_edges():
    g = from_edge_list(4, [(1, 2, 1.5), (2, 3, 0.5), (3, 4, 2.0), (1, 4, 1.0)])
    i, j, k = g.edge_arrays
    assert list(zip(i.tolist(), j.tolist())) == list(g.edges)
    assert k.tolist() == list(g.gains)
    with pytest.raises(ValueError):
        k[0] = 0.0
    i, j, k = CouplingGraph(n_nodes=1, edges=(), gains=()).edge_arrays
    assert len(i) == len(j) == len(k) == 0


def _random_graph(rng, N, degree):
    # a random spanning tree topped up to mean degree `degree`, gains off 1
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, N)}
    while 2 * len(pairs) < degree * N:
        a, b = sorted(int(v) for v in rng.choice(N, 2, replace=False))
        pairs.add((a, b))
    return from_edge_list(N, [(a + 1, b + 1, float(rng.uniform(0.3, 3.0))) for a, b in pairs])


def _star_graph(N, gain):
    return from_edge_list(N, [(1, v, gain) for v in range(2, N + 1)])


def test_neighbor_sum_matches_a_dense_product():
    # (graph, whether the rule takes the dense product); the reference W is built here from
    # the edge list, never read from the graph
    rng = np.random.default_rng(2727)
    cases = [
        (CouplingGraph(n_nodes=1, edges=(), gains=()), True),
        (path_graph(2), True), (path_graph(2, 0.7), True), (complete_graph(2, 1.9), True),
        (path_graph(10), True), (cycle_graph(12), True), (complete_graph(30, 1.3), True),
        (_star_graph(40, 0.6), True), (_random_graph(rng, 60, 4), True),
        (_random_graph(rng, 300, 8), True), (complete_graph(300), True),
        (path_graph(700), False), (cycle_graph(600), False), (cycle_graph(1000), False),
        (cycle_graph(600, 2.3), False), (_star_graph(400, 1.7), False),
        (_random_graph(rng, 500, 3), False), (_random_graph(rng, 800, 16), False),
    ]
    eps = np.finfo(float).eps
    for g, dense in cases:
        N = g.n_nodes
        W = np.zeros((N, N))
        for (i, j), k in zip(g.edges, g.gains):
            W[i, j] = W[j, i] = k
        unit_chain = all(k == 1.0 for k in g.gains) and np.count_nonzero(W, axis=1).max(
            initial=0) <= 2
        for d in (2, 3, 5):
            x = rng.standard_normal((N, d))
            S = g.neighbor_sum(x)
            assert S.shape == (N, d)
            if unit_chain:
                assert np.array_equal(S, W @ x)
            else:
                assert np.all(np.abs(S - W @ x) <= 4 * eps * (W @ np.abs(x)))
        assert ("weight_matrix" in g.__dict__) is dense
    assert not np.any(cases[0][0].neighbor_sum(np.ones((1, 3))))  # N = 1: no edges, S = 0
    # a config may ask for at most MAX_ITEMS edges, so the rule caps any dense W it builds at
    # the largest dense array a config may ask for
    assert network.DENSE_FLOOR + network.DENSE_PER_TERM * 2 * cli.MAX_ITEMS <= \
        cli.MAX_DENSE_ELEMENTS


def test_graph_with_its_neighbor_sum_pickles():
    for g in (path_graph(5), cycle_graph(600)):
        x = np.random.default_rng(5).standard_normal((g.n_nodes, 3))
        S = g.neighbor_sum(x)
        assert np.array_equal(pickle.loads(pickle.dumps(g)).neighbor_sum(x), S)
