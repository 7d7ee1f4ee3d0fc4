import numpy as np
import pytest

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
