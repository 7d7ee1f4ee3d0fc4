"""Exact linearization of the model and its spectral analysis.

At a configuration x of unit rows, with T_i = tangent_basis(x_i), the
field's linearization on the product of spheres is the (N (d-1))-square
matrix M = B + diag(T_1^T Omega_1 T_1, ..., T_N^T Omega_N T_N), where B
is the symmetric coupling block matrix in tangent coordinates

    B_ii = -(sum_j k_ij <x_j, x_i>) I
    B_ij = k_ij T_i^T T_j      for edges {i, j}
    B_ij = 0                   otherwise.

B is the linearization of the homogeneous field at its own equilibria;
its largest eigenvalue beta controls instability there, and by Kahan's
bound for skew perturbations of symmetric matrices the spectral abscissa
of M stays within max_i |Omega_i|_2, so within the total frequency norm,
of beta. The ambient extension of the field also has each normal
direction x_i as an exact zero eigenvector, so linearize reports N exact
zeros next to the spectrum of M, and beta and the abscissa are never
below 0.

When the relabelling i -> i+1 (mod N) maps the graph and its gains to
themselves and the rows, in the k coordinates of their span, satisfy
y_(i+1) = R y_i for one orthogonal R, as every twisted state on a cycle,
complete or circulant graph does, B is block-circulant: its spectrum
comes from N (k-1)-square Fourier blocks and a closed form for the graph
matrix, with no N-square matrix formed, and differs from an eigensolve of
B in its last digits. Every other input takes one symmetric solve of B.
With every Omega_i zero, M is B exactly: linearize then reads the whole
spectrum off B's, so it is real and the Kahan gap is zero. Only
heterogeneous systems pay for the dense nonsymmetric solve of M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LoheSystem, extended_rhs, frequency_total_norm
from .dynamics import _check_config, _check_state, _check_unit_rows
from .geometry import tangent_basis
from .network import CouplingGraph

# y_(i+1) - R y_i within this many times max(N, k) ulps counts as a cyclic symmetry.
CYCLIC_TOL = 8


def _align(graph: CouplingGraph, x: np.ndarray) -> np.ndarray:
    """sum_j k_ij <x_j, x_i> for every agent i, shape (N,)."""
    i, j, k = graph.edge_arrays
    kc = k * np.vecdot(x[i], x[j])
    return np.bincount(i, kc, x.shape[0]) + np.bincount(j, kc, x.shape[0])


def assemble_B(graph: CouplingGraph, x: np.ndarray) -> np.ndarray:
    """Symmetric coupling block matrix B at unit rows x, shape (N (d-1), N (d-1)).

    In the tangent bases T_i = tangent_basis(x_i) the diagonal blocks are
    -(sum_j k_ij <x_j, x_i>) I and the block of edge {i, j} is
    k_ij T_i^T T_j. Raises ValueError unless every row's norm is 1 within 1e-9.
    """
    x = _check_config(graph, x)
    _check_unit_rows(x, "configuration")
    N, d = x.shape
    r = d - 1
    i, j, k = graph.edge_arrays
    T = tangent_basis(x)
    align = _align(graph, x)
    B = np.zeros((N * r, N * r))
    blocks = B.reshape(N, r, N, r)
    nodes = np.arange(N)
    blocks[nodes, :, nodes, :] = -align[:, None, None] * np.eye(r)
    blocks[i, :, j, :] = k[:, None, None] * (T[i].mT @ T[j])
    blocks[j, :, i, :] = k[:, None, None] * (T[j].mT @ T[i])
    return B


def assemble_A(system: LoheSystem, x: np.ndarray) -> np.ndarray:
    """The field's linearization in tangent coordinates, shape (N (d-1), N (d-1)).

    M = assemble_B + diag(T_1^T Omega_1 T_1, ..., T_N^T Omega_N T_N) at unit
    rows x: the Jacobian of hetero_rhs on the product of spheres.
    """
    x = _check_state(system, x)
    M = assemble_B(system.graph, x)
    N, d = x.shape
    T = tangent_basis(x)
    nodes = np.arange(N)
    M.reshape(N, d - 1, N, d - 1)[nodes, :, nodes, :] += T.mT @ system.omegas @ T
    return M


def _descending(vals: np.ndarray) -> np.ndarray:
    # descending real part, ties broken by descending imaginary part
    return vals[np.lexsort((-vals.imag, -vals.real))]


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by descending real part.

    Dense nonsymmetric solve (balancing, Hessenberg reduction, shifted QR).
    Ties in the real part are broken by descending imaginary part so the
    order is deterministic.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return _descending(np.linalg.eigvals(M))


def fd_jacobian(system: LoheSystem, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of the ambient extension field at x.

    Column e is (F(x + h e) - F(x - h e)) / (2 h) flattened row-major.
    A test oracle for the exact linearization: with T the block-diagonal
    tangent basis, T^T J T matches assemble_A at any unit configuration.
    """
    x = _check_config(system.graph, x)
    N, d = x.shape
    m = N * d
    flat = x.reshape(m)
    J = np.empty((m, m))
    for e in range(m):
        bump = np.zeros(m)
        bump[e] = h
        fp = extended_rhs(system, (flat + bump).reshape(N, d))
        fm = extended_rhs(system, (flat - bump).reshape(N, d))
        J[:, e] = (fp - fm).reshape(m) / (2.0 * h)
    return J


@dataclass(frozen=True)
class LinearizationReport:
    """Spectral summary of the linearization at one configuration."""

    beta: float  # top eigenvalue of symmetric part B, or 0
    alpha_re: float  # spectral abscissa of M = assemble_A, or 0
    kahan_gap: float  # |beta - alpha_re|
    omega_norm: float  # root-sum-square of frequency spectral norms
    spectrum_A: np.ndarray  # eigenvalues of M plus N normal zeros, descending real part

    def to_json_dict(self) -> dict:
        return {
            "beta": self.beta,
            "alpha_re": self.alpha_re,
            "kahan_gap": self.kahan_gap,
            "omega_norm": self.omega_norm,
            "spectrum_A": [[float(v.real), float(v.imag)] for v in self.spectrum_A],
        }


def _shift_rotation(graph: CouplingGraph, y: np.ndarray) -> np.ndarray | None:
    """Orthogonal R with y_(i+1) = R y_i for every i mod N, or None.

    None unless the relabelling i -> i+1 (mod N) maps the edge list and its
    gains exactly onto themselves. R is the Procrustes fit of the shifted
    rows onto the rows; it is accepted only when every y_(i+1) - R y_i,
    the wrap from N-1 to 0 included, is at rounding level (CYCLIC_TOL
    times max(N, k) ulps of the unit rows).
    """
    N, k = y.shape
    i, j, g = graph.edge_arrays
    a, b = (i + 1) % N, (j + 1) % N
    shifted = np.minimum(a, b) * N + np.maximum(a, b)
    order = np.argsort(shifted)
    if not (np.array_equal(shifted[order], i * N + j) and np.array_equal(g[order], g)):
        return None
    ys = np.roll(y, -1, axis=0)
    u, _, vt = np.linalg.svd(ys.T @ y)
    R = u @ vt
    if np.max(np.abs(ys - y @ R.T)) > CYCLIC_TOL * max(N, k) * np.finfo(float).eps:
        return None
    return R


def _cyclic_spectrum(graph: CouplingGraph, y: np.ndarray, R: np.ndarray) -> tuple:
    """B's eigenvalues and the graph matrix's at rows y_i = R^i y_0.

    In the transported bases T_i = R^i T_0, B is block-circulant: the
    block of agents i and i + l is k_l T_0^T R^l T_0.
    Its spectrum is that of the N Hermitian (k-1)-square Fourier blocks
    -align I + sum_l k_l T_0^T R^l T_0 exp(2 pi i m l / N), m = 0..N-1, over
    the signed offsets l of node 0's neighbours; W - diag(align) is
    circulant, with eigenvalues -align + sum_l k_l cos(2 pi m l / N).
    R^N = I holds because the rows span R^k.
    """
    N, k = y.shape
    i, j, g = graph.edge_arrays
    at0 = i == 0
    offsets = np.where(j[at0] <= N // 2, j[at0], j[at0] - N)
    gains = g[at0]
    Rl = np.array([np.linalg.matrix_power(R.T if l < 0 else R, abs(l))
                   for l in offsets.tolist()]).reshape(-1, k, k)
    T0 = tangent_basis(y[0])
    C = T0.T @ Rl @ T0
    align = _align(graph, y)[0]
    phase = np.exp(2j * np.pi * (np.outer(np.arange(N), offsets) % N) / N) * gains
    r = k - 1
    H = (phase @ C.reshape(len(offsets), r * r)).reshape(N, r, r)
    H -= align * np.eye(r)
    return np.linalg.eigvalsh(H).ravel(), phase.real.sum(axis=1) - align


def _symmetric_spectrum(graph: CouplingGraph, x: np.ndarray) -> np.ndarray:
    """Ascending spectrum of B plus N normal zeros at unit rows x.

    Let k = rank(x) and y = x Q_k the rows in the k coordinates of their
    span (Q_k the leading right singular vectors; y = x at k = d). When the
    graph and y are invariant under the shift i -> i+1 (mod N) with
    y_(i+1) = R y_i (_shift_rotation), N small Fourier blocks give the
    spectrum (_cyclic_spectrum) and no N-square matrix is formed: B splits
    into B at y on the span and, since every projector is the identity off
    it, the graph matrix W - diag(align) repeated d - k times. Every other
    input takes one symmetric solve of B at x.
    """
    N, d = x.shape
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    k = int(np.count_nonzero(s > s[0] * max(N, d) * np.finfo(float).eps))  # matrix_rank
    y = x if k == d else x @ vt[:k].T
    R = _shift_rotation(graph, y)
    if R is None:
        return np.sort(np.concatenate((np.linalg.eigvalsh(assemble_B(graph, x)), np.zeros(N))))
    tangent, circulant = _cyclic_spectrum(graph, y, R)
    return np.sort(np.concatenate((tangent, np.tile(circulant, d - k), np.zeros(N))))


def linearize(system: LoheSystem, x: np.ndarray) -> LinearizationReport:
    """Summarize the spectra of B and of M = assemble_A at unit rows x.

    B's spectrum (_symmetric_spectrum) comes with N exact zeros, so beta is
    max(lambda_max(B), 0). With every Omega_i zero, M is B exactly, so
    spectrum_A is that spectrum, real and in descending order, and
    kahan_gap is 0. Otherwise spectrum_A is the dense nonsymmetric
    spectrum of M merged with the same N normal zeros, so alpha_re is
    max(Re lambda(M), 0). Raises ValueError when x is not finite or a
    row's norm is off 1 by more than 1e-9, since B's formula needs unit
    rows.
    """
    x = _check_state(system, x)
    if not np.all(np.isfinite(x)):
        raise ValueError("configuration has non-finite entries")
    _check_unit_rows(x, "configuration")
    sym = _symmetric_spectrum(system.graph, x)
    beta = float(sym[-1])
    if np.any(system.omegas):
        tangent = eigenvalues(assemble_A(system, x))
        spec = _descending(np.concatenate((tangent, np.zeros(len(x)))))
    else:
        spec = sym[::-1].astype(complex)
    alpha = float(spec[0].real)
    return LinearizationReport(
        beta=beta,
        alpha_re=alpha,
        kahan_gap=abs(beta - alpha),
        omega_norm=frequency_total_norm(system.omegas),
        spectrum_A=spec,
    )
