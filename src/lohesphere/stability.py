"""Dispersal certificates and the instability bound machinery.

The main guarantee verified here: at a dispersed equilibrium x of the
coupled system, the top eigenvalue beta of the symmetric linearization
block satisfies

    beta >= f(x) >= rhs(K, n, N)

where f is an explicit edge-angle functional and rhs is the frequency
budget. If the total frequency norm stays below rhs, the spectral
abscissa of the full linearization stays within that budget of beta and
hence remains positive: the equilibrium stays exponentially unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hull
from .dynamics import LoheSystem
from .network import CouplingGraph, min_gain
from .spectral import LinearizationReport, linearize

# A spectral abscissa counts as positive only above this multiple of the
# spectral radius: at a synchronized state it is 0 up to the eigensolver's
# rounding, whose sign means nothing.
ALPHA_RTOL = 1e-12
# A hull distance at or below this counts as zero: the configuration is dispersed.
DISPERSED_TOL = 1e-9


@dataclass(frozen=True)
class DispersedReport:
    """Outcome of the hemisphere test.

    hull_min_norm is the distance from the origin to the convex hull of
    the agent points. witness is a unit vector with <x_i, witness> > 0 for
    all agents when the configuration is cohesive, None when it is
    dispersed.
    """

    dispersed: bool
    hull_min_norm: float
    witness: np.ndarray | None


def is_dispersed(x: np.ndarray) -> DispersedReport:
    """Test whether no open hemisphere contains all agents.

    Equivalent to the origin lying in the convex hull of the points. With p
    the hull minimum-norm point, the configuration is cohesive only when
    |p| > DISPERSED_TOL and every agent lies strictly on the positive side
    of the witness p/|p|; otherwise it is dispersed, so configurations with
    the origin on the hull boundary, or within rounding of it, count as
    dispersed.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected (N, d) configuration, got shape {x.shape}")
    p, _ = hull.min_norm_point(x)
    nrm = float(np.linalg.norm(p))
    if nrm > DISPERSED_TOL:
        witness = p / nrm
        if np.min(x @ witness) > 0:
            return DispersedReport(dispersed=False, hull_min_norm=nrm, witness=witness)
    return DispersedReport(dispersed=True, hull_min_norm=nrm, witness=None)


def bound_f(graph: CouplingGraph, x: np.ndarray, n: int) -> float:
    """Edge-angle functional bounding the top symmetric eigenvalue below.

    f(x) = 2/(N(n+1)) * sum over edges of k_ij (n-1-cos t_ij)(1-cos t_ij)
    with t_ij the angle between neighbors. Vanishes exactly at phase
    synchrony and is strictly positive at dispersed configurations for
    n >= 2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (graph.n_nodes, n + 1):
        raise ValueError(
            f"dimension mismatch: expected shape ({graph.n_nodes}, {n + 1}), got {x.shape}"
        )
    i, j, k = graph.edge_arrays
    c = np.clip(np.vecdot(x[i], x[j]), -1.0, 1.0)
    total = float(k @ ((n - 1 - c) * (1 - c)))
    return 2.0 * total / (graph.n_nodes * (n + 1))


def theorem_rhs(K: float, n: int, N: int, factor: int = 1) -> float:
    """Frequency budget below which dispersed equilibria stay unstable.

    factor=1 is the stated bound (K/(n+1))(n-1-cos(pi/N))(1-cos(pi/N));
    factor=2 is the sharper variant equal to the optimized value of f.
    """
    if K <= 0:
        raise ValueError(f"coupling floor K must be > 0, got {K}")
    if n < 2:
        raise ValueError(f"the bound requires sphere dimension n >= 2, got {n}")
    if N < 2:
        raise ValueError(f"need at least 2 agents, got {N}")
    if factor not in (1, 2):
        raise ValueError(f"factor must be 1 or 2, got {factor}")
    c = math.cos(math.pi / N)
    return factor * (K / (n + 1)) * (n - 1 - c) * (1 - c)


def g1(K: float, n: int, N: int) -> float:
    """Objective value of the uniform-angle family, angles pi/N."""
    return theorem_rhs(K, n, N, factor=2)


def g2(K: float, n: int, N: int, phi: float) -> float:
    """Objective value of the one-large-angle family.

    One angle equals phi in (pi/2, pi), the remaining N-1 equal
    (pi - phi)/(N - 1). Always exceeds g1, which is why the uniform
    family gives the optimum.
    """
    if K <= 0:
        raise ValueError(f"coupling floor K must be > 0, got {K}")
    if n < 2:
        raise ValueError(f"the bound requires sphere dimension n >= 2, got {n}")
    if N < 2:
        raise ValueError(f"need at least 2 agents, got {N}")
    if not (math.pi / 2 < phi < math.pi):
        raise ValueError(f"phi must lie strictly inside (pi/2, pi), got {phi}")
    psi = (math.pi - phi) / (N - 1)
    cp, cs = math.cos(phi), math.cos(psi)
    small = (2.0 * K * (N - 1)) / (N * (n + 1)) * (n - 1 - cs) * (1 - cs)
    large = (2.0 * K) / (N * (n + 1)) * (n - 1 - cp) * (1 - cp)
    return small + large


def _stationarity_constant(lam: float, n: int, K: float, N: int) -> float:
    # Stationarity of the angle program: sin t (n - 2 cos t) = c(lam)
    return -N * (n + 1) * lam / (2.0 * K)


def lagrange_residual(theta, lam: float, n: int, K: float, N: int) -> np.ndarray:
    """Residual of the stationarity equation at the given angles.

    Zero exactly when sin(theta)(n - 2 cos(theta)) equals the multiplier
    constant -N(n+1)lam/(2K).
    """
    if K <= 0:
        raise ValueError(f"coupling floor K must be > 0, got {K}")
    theta = np.asarray(theta, dtype=float)
    c = _stationarity_constant(lam, n, K, N)
    return np.sin(theta) * (n - 2.0 * np.cos(theta)) - c


def _profile_peak(n: int) -> float:
    # Interior maximum of s(t) = sin t (n - 2 cos t); s'(t) = 0 gives
    # 4 cos^2 t - n cos t - 2 = 0, the root with cos t in (-1, 0].
    c = (n - math.sqrt(n * n + 32.0)) / 8.0
    return math.acos(c)


def lagrange_roots(lam: float, n: int, K: float, N: int, tol: float = 1e-13) -> list:
    """All angles in [0, pi] solving the stationarity equation.

    The profile sin(t)(n - 2 cos t) rises from 0 to a single interior
    peak past pi/2 and falls back to 0, so there are at most two roots:
    none for constants above the peak, two branches otherwise (they
    merge at tangency). lam > 0 yields a negative constant and no roots;
    lam = 0 yields the endpoints 0 and pi.
    """
    if n < 2:
        raise ValueError(f"profile analysis requires n >= 2, got {n}")
    c = _stationarity_constant(lam, n, K, N)
    if c < 0:
        return []
    if c == 0.0:
        return [0.0, math.pi]
    peak = _profile_peak(n)
    smax = math.sin(peak) * (n - 2.0 * math.cos(peak))
    if c > smax:
        return []

    def s(t: float) -> float:
        return math.sin(t) * (n - 2.0 * math.cos(t))

    def bisect(lo: float, hi: float, increasing: bool) -> float:
        # sign-change bracket for s(t) - c, monotone on each side of the peak
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= tol:
                return mid
            val = s(mid) - c
            if (val < 0) == increasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    roots = [bisect(0.0, peak, increasing=True), bisect(peak, math.pi, increasing=False)]
    if abs(roots[1] - roots[0]) <= 10 * tol:
        return [0.5 * (roots[0] + roots[1])]
    return roots


def twisted_state(N: int, q: int, n: int) -> np.ndarray:
    """Configuration with agent i at phase 2 pi q i / N on a great circle.

    Equilibrium of the homogeneous field on the cycle graph for every
    winding number q in 1..N-1; dispersed for q coprime-ish windings
    (always for q=1, N >= 3, since the phases spread evenly over the
    circle).
    """
    if N < 3:
        raise ValueError(f"twisted states need N >= 3, got {N}")
    if not (1 <= q < N):
        raise ValueError(f"winding number must satisfy 1 <= q < N, got {q}")
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    phases = 2.0 * math.pi * q * np.arange(N) / N
    x = np.zeros((N, n + 1))
    x[:, 0] = np.cos(phases)
    x[:, 1] = np.sin(phases)
    return x


@dataclass(frozen=True)
class BoundReport:
    """Everything the instability certificate measures at one configuration."""

    linearization: LinearizationReport
    f_value: float
    theorem_rhs: float
    min_gain: float
    factor: int
    dispersed: DispersedReport
    premise_holds: bool  # omega_norm < theorem_rhs
    conclusion_holds: bool  # alpha_re > 0
    violated_links: tuple

    def to_json_dict(self) -> dict:
        out = self.linearization.to_json_dict()
        out.update(
            {
                "f_value": self.f_value,
                "theorem_rhs": self.theorem_rhs,
                "min_gain": self.min_gain,
                "factor": self.factor,
                "dispersed": self.dispersed.dispersed,
                "hull_min_norm": self.dispersed.hull_min_norm,
                "premise_holds": self.premise_holds,
                "conclusion_holds": self.conclusion_holds,
                "violated_links": list(self.violated_links),
            }
        )
        return out


def verify_theorem(system: LoheSystem, x: np.ndarray, factor: int = 1) -> BoundReport:
    """Evaluate the full certificate chain at a configuration.

    Computes the linearization spectrum, the edge-angle bound f, the
    frequency budget, and the dispersal certificate, then records which
    links of the chain beta >= f >= rhs and |beta - Re alpha| <= omega
    hold numerically. premise_holds compares the total frequency norm
    against the budget; conclusion_holds asks for a spectral abscissa
    above ALPHA_RTOL times the spectral radius. The f >= rhs link is only
    meaningful at dispersed configurations and is skipped otherwise.
    """
    x = np.asarray(x, dtype=float)
    lin = linearize(system, x)
    n = x.shape[1] - 1
    K = min_gain(system.graph)
    rhs = theorem_rhs(K, n, system.graph.n_nodes, factor=factor)
    f_val = bound_f(system.graph, x, n)
    disp = is_dispersed(x)

    violated = []
    if lin.beta < f_val - 1e-12:
        violated.append("beta_ge_f")
    if disp.dispersed and f_val < rhs - 1e-12:
        violated.append("f_ge_rhs")
    if lin.kahan_gap > lin.omega_norm + 1e-8:
        violated.append("gap_le_omega")

    return BoundReport(
        linearization=lin,
        f_value=f_val,
        theorem_rhs=rhs,
        min_gain=K,
        factor=factor,
        dispersed=disp,
        premise_holds=bool(lin.omega_norm < rhs),
        conclusion_holds=bool(lin.alpha_re > ALPHA_RTOL * np.max(np.abs(lin.spectrum_A))),
        violated_links=tuple(violated),
    )
