"""Time integration, equilibrium refinement, and synchrony diagnostics.

The integrator runs classical RK4 on the ambient extension of the field
and renormalizes every agent after every step. The extension conserves
row norms exactly in continuous time, so the per-step renormalization
removes only integrator truncation error; the measured pre-renormalization
drift is recorded per sample as a health check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hull
from .dynamics import (
    LoheSystem,
    _check_state,
    _check_unit_rows,
    _bind_field,
    _field_terms,
    disagreement,
    hetero_rhs,
)
from .geometry import tangent_basis
from .network import CouplingGraph
from .spectral import assemble_A
from .stability import is_dispersed


class IntegrationDiverged(RuntimeError):
    """State left the representable regime (NaN/Inf or collapsed norms)."""

    def __init__(self, time: float, detail: str = "non-finite state"):
        super().__init__(time, detail)  # args rebuild the error when it is unpickled
        self.time = time

    def __str__(self) -> str:
        return f"integration diverged at t={self.time:.6g}: {self.args[1]}"


@dataclass(frozen=True)
class Trajectory:
    """Sampled run of the model.

    times is strictly increasing and starts at 0. states holds the
    renormalized configuration at each sample. norm_drift[k] is the
    largest pre-renormalization row-norm deviation over the steps since
    the previous sample (0 for the first row).
    """

    times: np.ndarray
    states: np.ndarray
    disagreement: np.ndarray
    sync_radius: np.ndarray
    min_edge_angle: np.ndarray
    max_edge_angle: np.ndarray
    norm_drift: np.ndarray

    def __post_init__(self):
        m = len(self.times)
        for name in ("states", "disagreement", "sync_radius", "min_edge_angle",
                     "max_edge_angle", "norm_drift"):
            if len(getattr(self, name)) != m:
                raise ValueError(f"column {name} has wrong length")
        if m > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def write_csv(self, path) -> None:
        """One row per sample; floats at 17 significant digits."""
        cols = ("t", "V", "sync_radius", "min_edge_angle", "max_edge_angle", "norm_drift")
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for k in range(len(self.times)):
                row = (self.times[k], self.disagreement[k], self.sync_radius[k],
                       self.min_edge_angle[k], self.max_edge_angle[k], self.norm_drift[k])
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def final_json_dict(self) -> dict:
        return {
            "t": float(self.times[-1]),
            "points": [[float(v) for v in row] for row in self.states[-1]],
            "disagreement": float(self.disagreement[-1]),
            "sync_radius": float(self.sync_radius[-1]),
            "practically_synced": bool(self.sync_radius[-1] < math.pi / 4),
        }


def _rk4_tableau(h: float) -> np.ndarray:
    """Rows that take the stack [x, k1, k2, k3, k4] to the inputs of RK4 stages 2-4, then
    to the step's end x + h/6 (k1 + 2 k2 + 2 k3 + k4)."""
    return np.array([[1.0, h / 2.0, 0.0, 0.0, 0.0],
                     [1.0, 0.0, h / 2.0, 0.0, 0.0],
                     [1.0, 0.0, 0.0, h, 0.0],
                     [1.0, h / 6.0, h / 3.0, h / 3.0, h / 6.0]])


def _rk4_step(stages, stack: np.ndarray, rows, y: np.ndarray) -> np.ndarray:
    """One classical RK4 step on the (5, n) stack [x, k1, k2, k3, k4].

    stages[s - 1]() must store k_s = f(input) in stack[s]. Stage 1's input is stack[0];
    the input of stage s = 2, 3, 4 is the buffer y, filled with rows[s - 2] @ stack.
    y ends holding rows[3] @ stack, the step's end, and is returned.
    """
    stages[0]()
    for s in (1, 2, 3):
        np.dot(rows[s - 1], stack, out=y)
        stages[s]()
    return np.dot(rows[3], stack, out=y)


class _SphereRK4:
    """RK4 on the ambient extension of the field, renormalizing every agent after each step.

    Every buffer is allocated once: the work array holds [u1, x, k1, k2, k3, k4, u, y].
    Stage 1 couples through u1, the unit rows of the step's start x; stages 2-4 normalize
    their input y into u. The start x0 need not have unit rows: the drift and the base
    point use x0 and the first coupling x0 / |x0|.
    """

    def __init__(self, system: LoheSystem, x0: np.ndarray):
        N, d = x0.shape
        work = np.zeros((8, N, d))
        work[1] = x0
        work[0] = x0 / np.sqrt(np.vecdot(x0, x0, keepdims=True))
        self._u1, self._x, u, y = work[0], work[1], work[6], work[7]
        self._y = y
        self._stack, self._y_flat = work[1:6].reshape(5, N * d), work[7].reshape(N * d)
        # row norms of the inputs of stages 2-4, then of the step's end
        self._norms = np.empty((4, N, 1))
        terms, normal = _field_terms(system), np.empty((N, d))

        def normalizing(field, norms):
            def stage():
                np.sqrt(np.vecdot(y, y, keepdims=True), out=norms)
                np.divide(y, norms, out=u)
                field()

            return stage

        self._stages = (_bind_field(terms, work[0:2], work[2], normal),) + tuple(
            normalizing(_bind_field(terms, work[6:8], work[s + 1], normal), self._norms[s - 2])
            for s in (2, 3, 4))
        self._h, self._rows = None, None

    @property
    def x(self) -> np.ndarray:
        """A copy of the current state."""
        return self._x.copy()

    def step(self, h: float, t: float) -> float:
        """Advance by h and return the largest row-norm deviation before renormalization.

        Raises IntegrationDiverged stamped with t: "agent norm collapsed" when a row of
        the input of stages 2-4 or of the step's end has norm <= 1e-8, else the default
        detail when the step's end is not finite.
        """
        if h != self._h:
            self._h, self._rows = h, tuple(_rk4_tableau(h))
        _rk4_step(self._stages, self._stack, self._rows, self._y_flat)
        xt, norms = self._y, self._norms
        end = norms[3]
        np.sqrt(np.vecdot(xt, xt, keepdims=True), out=end)
        if np.fmin.reduce(norms, axis=None) <= 1e-8:  # fmin passes over NaN
            raise IntegrationDiverged(t, "agent norm collapsed")
        hi = float(np.maximum.reduce(end, axis=None))
        if not hi < math.inf:  # also catches NaN
            raise IntegrationDiverged(t)
        lo = float(np.minimum.reduce(end, axis=None))
        np.divide(xt, end, out=self._x)
        np.copyto(self._u1, self._x)
        return max(hi - 1.0, 1.0 - lo)


def _edge_angles(graph: CouplingGraph, x: np.ndarray):
    i, j, _ = graph.edge_arrays
    if len(i) == 0:
        return 0.0, 0.0
    # same clamp-then-arccos as geometry.pairwise_angle, over all edges at once
    angles = np.arccos(np.clip(np.vecdot(x[i], x[j]), -1.0, 1.0))
    return float(angles.min()), float(angles.max())


def integrate(
    system: LoheSystem,
    x0: np.ndarray,
    dt: float = 1e-3,
    t_end: float = 100.0,
    sample_every: int = 100,
) -> Trajectory:
    """Run RK4 with per-step renormalization and sampled diagnostics.

    Samples are taken at t = 0, every sample_every steps, and at t_end.
    The final step is shortened when t_end is not a multiple of dt. Each
    sample records the exact cap radius (sync_radius).
    x0 must hold unit rows to within 1e-9 (ValueError otherwise; a
    non-finite x0 raises IntegrationDiverged at t = 0) and is recorded
    as given. It is checked against the system once; the steps then run one
    _SphereRK4 kernel. Equal inputs give bit-identical trajectories.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_end <= 0:
        raise ValueError(f"t_end must be > 0, got {t_end}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    x = _check_state(system, np.array(x0, dtype=float))
    if not np.all(np.isfinite(x)):
        raise IntegrationDiverged(0.0)
    _check_unit_rows(x, "x0")
    graph = system.graph
    kernel = _SphereRK4(system, x)

    n_steps = int(math.ceil(t_end / dt - 1e-12))
    times, states, vs, radii, mins, maxs, drifts = [], [], [], [], [], [], []

    def record(t: float, drift: float) -> None:
        times.append(t)
        states.append(x.copy())
        vs.append(disagreement(graph, x))
        radii.append(sync_radius(x))
        lo, hi = _edge_angles(graph, x)
        mins.append(lo)
        maxs.append(hi)
        drifts.append(drift)

    record(0.0, 0.0)
    drift_acc = 0.0
    # a diverging step may overflow or divide by a collapsed norm on its way to the
    # state that the kernel raises IntegrationDiverged for; that error alone reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, n_steps + 1):
            h = dt if step < n_steps else (t_end - dt * (n_steps - 1))
            t = t_end if step == n_steps else step * dt
            drift_acc = max(drift_acc, kernel.step(h, t))
            if step % sample_every == 0 or step == n_steps:
                x = kernel.x
                record(t, drift_acc)
                drift_acc = 0.0

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        disagreement=np.array(vs),
        sync_radius=np.array(radii),
        min_edge_angle=np.array(mins),
        max_edge_angle=np.array(maxs),
        norm_drift=np.array(drifts),
    )


def sync_radius(x: np.ndarray) -> float:
    """Angular radius of the smallest spherical cap containing all agents.

    Defined as arccos of max over unit y of min_i <x_i, y>. The verdict
    and the witness y come from stability.is_dispersed, so the radius is
    below pi/2 exactly when that reports cohesive: it is then
    arccos(min_i <x_i, y>) by LP duality. Otherwise the origin lies in the
    hull K of the agents, to rounding, and it is
    pi/2 + arcsin(hull.boundary_distance), exactly pi/2 for a flat K or the
    origin on its boundary. Exact unless the boundary search passes
    hull.MAX_FACETS (high dimension only). Deterministic in x; the result
    lies in [0, pi].
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected (N, d) configuration, got shape {x.shape}")
    if x.shape[0] == 1:
        return 0.0

    witness = is_dispersed(x).witness
    if witness is not None:
        return float(np.arccos(min(float(np.min(x @ witness)), 1.0)))
    rho = hull.boundary_distance(x)
    return math.pi / 2 + math.asin(min(max(rho, 0.0), 1.0))


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of equilibrium refinement.

    converged implies residual <= the tolerance that was requested;
    iterations counts accepted Newton steps (0 when the start already
    met the tolerance).
    """

    config: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _residual(system: LoheSystem, x: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(hetero_rhs(system, x), axis=1)))


def find_equilibrium(
    system: LoheSystem, x0: np.ndarray, tol: float = 1e-10, max_time: float = 200.0
) -> EquilibriumResult:
    """Refine x0 to an equilibrium of the full field.

    Integrates the flow in steps of 0.01 until the residual max_i |rhs_i|
    falls below 10 * tol or the time budget runs out (max_time = 0 skips
    straight to the polish), then applies up to 40 damped Gauss-Newton
    steps in tangent coordinates T_i = tangent_basis(x_i). Each step moves
    agent i by T_i xi_i, with xi the minimum-norm least squares solution of
    [M; diag(-F_i^T T_i)] xi = [-(T_i^T F_i)_i; 0], where F is the full
    residual hetero_rhs and M = assemble_A the field's exact linearization:
    the derivative of F along T xi written in each agent's frame
    [T_i, x_i], normal rows last. The minimum norm keeps the step off the
    rotations that leave equilibria degenerate.
    The lowest-residual state seen anywhere is kept, so a failed polish
    cannot lose ground. A non-finite row or a row of norm <= 1e-8 in x0
    raises IntegrationDiverged at t = 0; a collapsed agent norm or a
    non-finite state in the flow raises it at the failing step's end time.
    """
    x = _check_state(system, np.array(x0, dtype=float))
    if not np.all(np.isfinite(x)):
        raise IntegrationDiverged(0.0)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if norms.min() <= 1e-8:
        raise IntegrationDiverged(0.0, "agent norm collapsed")
    x = x / norms
    res = _residual(system, x)

    best_x, best_res = x, res
    dt, t = 1e-2, 0.0
    if t < max_time and res > 10.0 * tol:
        kernel = _SphereRK4(system, x)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in integrate
            while t < max_time and res > 10.0 * tol:
                steps = max(1, int(round(min(5.0, max_time - t) / dt)))
                for k in range(1, steps + 1):
                    kernel.step(dt, t + k * dt)
                t += steps * dt
                x = kernel.x
                res = _residual(system, x)
                if res < best_res:
                    best_x, best_res = x, res

    # every accepted step lowers the residual, so x stays the best point
    x, res = best_x, best_res
    accepted = 0
    for _ in range(40):
        if res <= tol:
            break
        T = tangent_basis(x)
        FT = (hetero_rhs(system, x)[:, None, :] @ T)[:, 0, :]  # row i is F_i^T T_i
        N, r = FT.shape
        normal = np.zeros((N, N, r))
        normal[np.arange(N), np.arange(N)] = -FT
        J = np.vstack((assemble_A(system, x), normal.reshape(N, N * r)))
        xi = np.linalg.lstsq(J, np.concatenate((-FT.ravel(), np.zeros(N))), rcond=None)[0]
        step = (T @ xi.reshape(N, r, 1))[:, :, 0]
        for damp in (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32, 1 / 64):
            cand = x + damp * step
            cand = cand / np.linalg.norm(cand, axis=1, keepdims=True)
            cres = _residual(system, cand)
            if cres < res:
                x, res = cand, cres
                accepted += 1
                break
        else:
            break

    return EquilibriumResult(config=x, residual=res, iterations=accepted, converged=res <= tol)
