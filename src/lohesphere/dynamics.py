"""Vector fields of the sphere oscillator model and the disagreement function.

Configurations are (N, d) arrays with unit rows, d = n + 1 for the
n-sphere. Frequency sets are (N, d, d) arrays of skew-symmetric matrices.
The heterogeneous field on agent i is

    dx_i/dt = Omega_i x_i + (I - x_i x_i^T) sum_j k_ij x_j

with the sum over neighbors j of i. Setting all Omega_i = 0 gives the
homogeneous field, which is the negated gradient of the disagreement
function V(z) = (1/2) sum_i sum_{j ~ i} k_ij |z_i - z_j|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .network import CouplingGraph

# Tolerance for accepting a frequency matrix as skew-symmetric.
SKEW_TOL = 1e-10
# Largest N*d at which the field applies drift and coupling as one dense block product;
# fitted to timings at d = 3 on a 2-core x86 VM
BLOCK_MAX = 128


def _check_skew(M: np.ndarray, what: str) -> None:
    """Raise unless the square matrices on M's last two axes are finite and skew.

    The tolerance is SKEW_TOL relative to max(1, max|M|) over all of M.
    """
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{what} must be finite")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M + np.swapaxes(M, -1, -2))) > SKEW_TOL * scale:
        raise ValueError(f"{what} must be skew-symmetric")


@dataclass(frozen=True)
class LoheSystem:
    """A coupling graph together with per-agent frequency matrices.

    omegas has shape (N, d, d) and every slice must be skew-symmetric
    within the tolerance of _check_skew; slices are antisymmetrized
    exactly at construction so downstream algebra can rely on it.
    """

    graph: CouplingGraph
    omegas: np.ndarray
    sphere_dim: int = field(init=False)

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.ndim != 3 or om.shape[1] != om.shape[2]:
            raise ValueError(f"omegas must have shape (N, d, d), got {om.shape}")
        if om.shape[0] != self.graph.n_nodes:
            raise ValueError(
                f"frequency count {om.shape[0]} does not match graph with "
                f"{self.graph.n_nodes} nodes"
            )
        d = om.shape[1]
        if d < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {d}")
        _check_skew(om, "frequency matrices")
        om = (om - np.transpose(om, (0, 2, 1))) / 2.0
        om.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "sphere_dim", d - 1)

    @property
    def n_agents(self) -> int:
        return self.graph.n_nodes


def _check_config(graph: CouplingGraph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != graph.n_nodes:
        raise ValueError(
            f"dimension mismatch: configuration shape {x.shape} vs {graph.n_nodes} agents"
        )
    return x


def _check_state(system: LoheSystem, x: np.ndarray) -> np.ndarray:
    x = _check_config(system.graph, x)
    if x.shape[1] != system.sphere_dim + 1:
        raise ValueError(f"dimension mismatch: points in R^{x.shape[1]}, "
                         f"frequencies in R^{system.sphere_dim + 1}")
    return x


def _check_unit_rows(x: np.ndarray, what: str) -> None:
    """Raise ValueError unless every row of x has norm 1 within 1e-9; NaN rows fail too."""
    deviation = np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0))
    if not (deviation <= 1e-9):
        raise ValueError(f"{what} rows must be unit vectors (within 1e-9)")


def _tangent_part(x: np.ndarray, S: np.ndarray) -> np.ndarray:
    # (I - x_i x_i^T) S_i for every agent
    return S - x * np.vecdot(x, S, keepdims=True)


def _drift(omegas: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Omega_i x_i for every agent
    return np.matmul(omegas, x[:, :, None])[:, :, 0]


def homo_rhs(graph: CouplingGraph, z: np.ndarray) -> np.ndarray:
    """Homogeneous field: the coupling term alone, tangent at each z_i."""
    z = _check_config(graph, z)
    return _tangent_part(z, graph.neighbor_sum(z))


def hetero_rhs(system: LoheSystem, x: np.ndarray) -> np.ndarray:
    """Full field: per-agent rotation drift plus the coupling term."""
    x = _check_state(system, x)
    return _drift(system.omegas, x) + _tangent_part(x, system.graph.neighbor_sum(x))


def disagreement(graph: CouplingGraph, z: np.ndarray) -> float:
    """Sum of k_ij |z_i - z_j|^2 over edges.

    Equal to (1/2) sum over ordered neighbor pairs, so each edge counts
    once. Zero exactly on phase-synchronized configurations.
    """
    z = _check_config(graph, z)
    i, j, k = graph.edge_arrays
    if len(k) == 0:
        return 0.0
    diff = z[i] - z[j]
    # cumsum adds the edge terms one at a time in edge order, as a scalar
    # loop does; np.sum adds in blocks and would move V in its last digits
    return float(np.cumsum(k * np.vecdot(diff, diff))[-1])


def disagreement_gradient(graph: CouplingGraph, z: np.ndarray) -> np.ndarray:
    """Sphere gradient of the disagreement function, row per agent.

    Convention: grad_i V = -(I - z_i z_i^T) sum_j k_ij z_j, so that
    homo_rhs == -disagreement_gradient holds identically. Directional
    derivatives of V along a tangent vector u at agent i equal
    2 <grad_i V, u>; the factor 2 is the edge double counting in V.
    """
    return -homo_rhs(graph, z)


def extended_rhs(system: LoheSystem, v: np.ndarray) -> np.ndarray:
    """Field on ambient space that restricts to hetero_rhs on unit rows.

    Each row is normalized to u_i = v_i / |v_i| before evaluating the
    coupling, and the projector is taken at u_i, so <dv_i/dt, v_i> = 0
    and row norms are conserved along exact flows. Raises ValueError when
    a row norm is <= 1e-8, where the extension is undefined.
    """
    v = _check_state(system, v)
    norms = np.sqrt(np.vecdot(v, v, keepdims=True))
    if norms.min() <= 1e-8:
        raise ValueError("extension undefined near the origin: row norm <= 1e-8")
    # C-contiguous buffers: the block product writes through a flat view of out
    uy, out = np.stack((v / norms, v)), np.empty(v.shape)
    _bind_field(_field_terms(system), uy, out, np.empty(v.shape))()
    return out


def _field_terms(system: LoheSystem):
    """The drift-plus-coupling part of the extended field, as bind(uy, E): a zero-argument
    callable that stores E_i = Omega_i y_i + sum_j k_ij u_j in E, read from uy = [u, y],
    one C-contiguous (2, N, d) array.

    Up to N d = BLOCK_MAX it is one product with the block operator
    [W (x) I_d | blockdiag(Omega_i)]; above, the batched drift plus graph.neighbor_sum.
    """
    om, graph = system.omegas, system.graph
    N, d = om.shape[:2]
    if N * d > BLOCK_MAX:
        neighbor_sum = graph.neighbor_sum

        def bind(uy, E):
            u, y = uy
            return lambda: np.add(neighbor_sum(u), _drift(om, y), out=E)

        return bind
    op = np.zeros((N, d, 2, N, d))
    op[:, :, 0] = np.einsum("ij,ab->iajb", graph.weight_matrix, np.eye(d))
    op[np.arange(N), :, 1, np.arange(N)] = om
    op = op.reshape(N * d, 2 * N * d)
    return lambda uy, E: partial(np.dot, op, uy.reshape(-1), out=E.reshape(-1))


def _bind_field(terms, uy: np.ndarray, out: np.ndarray, normal: np.ndarray):
    """A zero-argument callable that stores in out the extended field at y, whose rows
    normalize to u, read from uy = [u, y]; terms is _field_terms(system), and normal is
    scratch of out's shape.

    The projection takes <u_i, E_i> in place of <u_i, S_i>: the two agree in exact
    arithmetic, since u_i is parallel to y_i and Omega_i is skew.
    """
    add_terms, u = terms(uy, out), uy[0]

    def field():
        add_terms()
        np.multiply(u, np.vecdot(u, out, keepdims=True), out=normal)
        np.subtract(out, normal, out=out)

    return field


def zero_frequencies(n_agents: int, n: int) -> np.ndarray:
    """All-zero frequency set for N agents on the n-sphere."""
    return np.zeros((n_agents, n + 1, n + 1))


def random_frequencies(
    rng: np.random.Generator, n_agents: int, n: int, total_norm: float
) -> np.ndarray:
    """Random skew frequency set with root-sum-square spectral norm total_norm.

    Draws each agent's matrix as an antisymmetrized Gaussian, then
    rescales the whole set so that sqrt(sum_i |Omega_i|_2^2) equals
    total_norm exactly in exact arithmetic.
    """
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    if total_norm < 0:
        raise ValueError(f"total norm must be >= 0, got {total_norm}")
    d = n + 1
    G = rng.standard_normal((n_agents, d, d))  # same stream as one (d, d) draw per agent
    om = (G - np.transpose(G, (0, 2, 1))) / 2.0
    if total_norm == 0.0:
        return np.zeros((n_agents, d, d))
    current = frequency_total_norm(om)
    if current <= 1e-14:
        raise ValueError("degenerate frequency draw")
    return om * (total_norm / current)


def frequency_total_norm(omegas: np.ndarray) -> float:
    """Root sum of squares of the per-agent spectral norms."""
    om = np.asarray(omegas, dtype=float)
    if om.ndim != 3:
        raise ValueError(f"expected shape (N, d, d), got {om.shape}")
    svals = np.linalg.svd(om, compute_uv=False)
    return float(np.sqrt(np.sum(svals[:, 0] ** 2)))


def random_configuration(rng: np.random.Generator, n_agents: int, n: int) -> np.ndarray:
    """N independent uniform points on the n-sphere, one per row."""
    if n_agents < 1:
        raise ValueError(f"need at least one agent, got {n_agents}")
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    g = rng.standard_normal((n_agents, n + 1))
    return g / np.linalg.norm(g, axis=1, keepdims=True)
