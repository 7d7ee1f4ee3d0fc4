"""Undirected coupling graphs with symmetric positive edge gains.

Graphs are immutable once constructed and validated at construction:
simple (no self loops, no duplicate edges), all gains strictly positive,
and connected. Nodes are numbered 1..N in the public API; internally
edges are stored zero-based.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

# fitted to timings at d = 3 on a 2-core x86 VM; with <= 10^6 edges a dense W is < 4.8e7 entries
DENSE_FLOOR, DENSE_PER_TERM = 2**16, 24


@dataclass(frozen=True)
class CouplingGraph:
    """Connected simple graph with positive gains on undirected edges.

    Attributes
    ----------
    n_nodes : number of nodes N >= 1
    edges : tuple of (i, j) pairs, zero-based, i < j, sorted
    gains : tuple of floats parallel to edges, all > 0
    """

    n_nodes: int
    edges: tuple
    gains: tuple

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"graph needs at least one node, got {self.n_nodes}")
        if len(self.edges) != len(self.gains):
            raise ValueError("edges and gains must have equal length")
        seen = set()
        for (i, j), k in zip(self.edges, self.gains):
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge ({i}, {j}) out of range for {self.n_nodes} nodes")
            if i == j:
                raise ValueError(f"self loop at node {i + 1}")
            if i > j:
                raise ValueError(f"edge ({i}, {j}) not canonically ordered")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i + 1}, {j + 1})")
            seen.add((i, j))
            if not (k > 0):
                raise ValueError(f"gain on edge ({i + 1}, {j + 1}) must be > 0, got {k}")
        if not self._connected():
            raise ValueError("graph not connected")

    def _connected(self) -> bool:
        adj = [[] for _ in range(self.n_nodes)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = [False] * self.n_nodes
        seen[0] = True
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return all(seen)

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric (N, N) matrix of gains, zero off edges; read-only and cached."""
        i, j, k = self.edge_arrays
        W = np.zeros((self.n_nodes, self.n_nodes))
        W[i, j] = k
        W[j, i] = k
        W.setflags(write=False)
        return W

    @cached_property
    def neighbor_sum(self):
        """Cached x -> S, S_i = sum_j k_ij x_j for (N, d) x: the product with weight_matrix
        when N^2 <= DENSE_FLOOR + DENSE_PER_TERM * 2|E|, else np.add.reduceat over the edge
        terms k_ij x_j grouped by i, with no N-square matrix. The two agree bit for bit where
        no node has three neighbors and every gain is 1.
        """
        i, j, k = self.edge_arrays
        if self.n_nodes**2 <= DENSE_FLOOR + DENSE_PER_TERM * 2 * len(k):
            return self.weight_matrix.__matmul__
        dst, src = np.concatenate((i, j)), np.concatenate((j, i))
        order = np.argsort(dst, kind="stable")
        starts = np.searchsorted(dst[order], np.arange(self.n_nodes))  # N > 256: no empty segment
        return partial(_segment_sum, src[order], np.concatenate((k, k))[order, None], starts)

    @cached_property
    def edge_arrays(self) -> tuple:
        """Read-only arrays (i, j, k) of endpoints and gains, parallel to edges."""
        i = np.array([e[0] for e in self.edges], dtype=np.intp)
        j = np.array([e[1] for e in self.edges], dtype=np.intp)
        k = np.array(self.gains, dtype=float)
        for a in (i, j, k):
            a.setflags(write=False)
        return i, j, k


def _segment_sum(src: np.ndarray, gains: np.ndarray, starts: np.ndarray, x: np.ndarray):
    return np.add.reduceat(np.take(x, src, axis=0) * gains, starts, axis=0)


def _canonical(n_nodes: int, pairs, gains) -> CouplingGraph:
    order = sorted(range(len(pairs)), key=lambda t: pairs[t])
    return CouplingGraph(
        n_nodes=n_nodes,
        edges=tuple(pairs[t] for t in order),
        gains=tuple(float(gains[t]) for t in order),
    )


def path_graph(n_nodes: int, gain: float = 1.0) -> CouplingGraph:
    """Path 1-2-...-N with uniform gain on every edge."""
    if n_nodes < 2:
        raise ValueError(f"path graph needs at least 2 nodes, got {n_nodes}")
    pairs = [(i, i + 1) for i in range(n_nodes - 1)]
    return _canonical(n_nodes, pairs, [gain] * len(pairs))


def cycle_graph(n_nodes: int, gain: float = 1.0) -> CouplingGraph:
    """Cycle 1-2-...-N-1 with uniform gain on every edge."""
    if n_nodes < 3:
        raise ValueError(f"cycle graph needs at least 3 nodes, got {n_nodes}")
    pairs = [(i, i + 1) for i in range(n_nodes - 1)] + [(0, n_nodes - 1)]
    return _canonical(n_nodes, pairs, [gain] * len(pairs))


def complete_graph(n_nodes: int, gain: float = 1.0) -> CouplingGraph:
    """Complete graph on N nodes with uniform gain."""
    if n_nodes < 2:
        raise ValueError(f"complete graph needs at least 2 nodes, got {n_nodes}")
    pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    return _canonical(n_nodes, pairs, [gain] * len(pairs))


def from_edge_list(n_nodes: int, edges) -> CouplingGraph:
    """Build a graph from (i, j, gain) triples with one-based node indices.

    Validates everything the constructor validates; in particular the
    result must be connected.
    """
    pairs = []
    gains = []
    for entry in edges:
        try:
            i, j, k = entry
        except (TypeError, ValueError):
            raise ValueError(f"edge entry must be (i, j, gain), got {entry!r}")
        i, j = int(i), int(j)
        if not (1 <= i <= n_nodes and 1 <= j <= n_nodes):
            raise ValueError(f"edge ({i}, {j}) out of range 1..{n_nodes}")
        a, b = min(i, j) - 1, max(i, j) - 1
        pairs.append((a, b))
        gains.append(float(k))
    return _canonical(n_nodes, pairs, gains)


def min_gain(graph: CouplingGraph) -> float:
    """Smallest edge gain, the coupling floor K used in the bounds."""
    if not graph.gains:
        raise ValueError("graph has no edges")
    return float(min(graph.gains))
