"""Seeded inputs and reference results for the benchmark workloads.

Usage: python inputs.py WORKLOAD SEED CONFIG_PATH

Writes the config the CLI will see and prints one JSON object with the
expected results and the machine record. Every input is drawn here from the
seed and written explicitly into the config (initial points, drift
matrices), so the references are computed without calling the program.
This runs in its own process so that the measuring process never loads
numpy: a child's peak-RSS record starts from its parent's size at fork.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import sys

import numpy as np
import scipy
import scipy.sparse
from scipy.optimize import nnls


def theorem_rhs(K: float, n: int, N: int) -> float:
    c = math.cos(math.pi / N)
    return (K / (n + 1)) * (n - 1 - c) * (1 - c)


def random_points(rng, N: int, d: int) -> np.ndarray:
    g = rng.standard_normal((N, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_drift(rng, N: int, d: int, total_norm: float) -> np.ndarray:
    """Skew matrices whose spectral norms have root sum of squares total_norm."""
    g = rng.standard_normal((N, d, d))
    om = (g - g.transpose(0, 2, 1)) / 2.0
    norms = np.linalg.svd(om, compute_uv=False)[:, 0]
    return om * (total_norm / math.sqrt(float(np.sum(norms**2))))


def random_rotation(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def graph_edges(graph: dict) -> np.ndarray:
    N = graph["N"]
    pairs = [(i, i + 1) for i in range(N - 1)]
    if graph["type"] == "cycle":
        pairs.append((N - 1, 0))
    return np.array(pairs)


def sim_config(graph_type: str, N: int, drift_share: float, t_end: float):
    """Simulation from seeded random points, with seeded random drift whose
    total norm is drift_share times the instability bound."""
    def make(seed: int) -> dict:
        rng = np.random.default_rng([seed, N])
        cfg = {
            "graph": {"type": graph_type, "N": N, "k": 1.0},
            "n": 2,
            "init": {"mode": "explicit", "points": random_points(rng, N, 3).tolist()},
            "integrate": {"dt": 1e-3, "t_end": t_end, "sample_every": 100},
            "seed": seed,
        }
        if drift_share:
            total = drift_share * theorem_rhs(1.0, 2, N)
            cfg["frequencies"] = {"mode": "explicit",
                                  "matrices": random_drift(rng, N, 3, total).tolist()}
        return cfg
    return make


def reference_final_state(cfg: dict) -> np.ndarray:
    """RK4 on the ambient extension of the field, renormalizing every step."""
    x = np.array(cfg["init"]["points"])
    N = len(x)
    e = graph_edges(cfg["graph"])
    rows, cols = np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]]
    W = scipy.sparse.csr_matrix((np.full(len(rows), cfg["graph"]["k"]), (rows, cols)),
                                shape=(N, N))
    om = np.array(cfg.get("frequencies", {}).get("matrices", np.zeros((N, 3, 3))))

    def field(v):
        u = v / np.linalg.norm(v, axis=1, keepdims=True)
        S = W @ u
        return np.einsum("nij,nj->ni", om, v) + S - u * np.sum(u * S, axis=1)[:, None]

    dt, t_end = cfg["integrate"]["dt"], cfg["integrate"]["t_end"]
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    for step in range(1, n_steps + 1):
        h = dt if step < n_steps else t_end - dt * (n_steps - 1)
        k1 = field(x)
        k2 = field(x + (h / 2) * k1)
        k3 = field(x + (h / 2) * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
    return x


def hull_min_norm(x: np.ndarray) -> float:
    """Distance from the origin to the convex hull of the rows of x.

    Nonnegative least squares with the affine constraint as a heavily
    weighted extra row; the weights are renormalized afterwards.
    """
    c = 1e4
    A = np.vstack([x.T, np.full(len(x), c)])
    b = np.r_[np.zeros(x.shape[1]), c]
    lam, _ = nnls(A, b, maxiter=50 * len(x))
    return float(np.linalg.norm((lam / lam.sum()) @ x))


def sim_expect(cfg: dict) -> dict:
    x = reference_final_state(cfg)
    e = graph_edges(cfg["graph"])
    diff = x[e[:, 0]] - x[e[:, 1]]
    # Smallest cap radius is arccos of the hull min-norm (LP duality); with
    # the origin in the hull no open hemisphere holds the agents.
    p = hull_min_norm(x)
    dt, t_end, every = (cfg["integrate"][k] for k in ("dt", "t_end", "sample_every"))
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    return {
        "V": cfg["graph"]["k"] * float(np.sum(diff * diff)),
        "radius": math.acos(min(p, 1.0)) if p > 1e-9 else math.pi / 2,
        "rows": 1 + n_steps // every + (1 if n_steps % every else 0),
        "t_end": t_end,
    }


CERT_N = 600


def cert_config(seed: int) -> dict:
    """Twisted q=1 ring turned by a seeded random rotation.

    Rotations commute with the homogeneous field, so the turned ring is
    still an exact equilibrium with the same spectrum.
    """
    rng = np.random.default_rng([seed, CERT_N])
    phase = 2.0 * np.pi * np.arange(CERT_N) / CERT_N
    ring = np.stack([np.cos(phase), np.sin(phase), np.zeros(CERT_N)], axis=1)
    return {
        "graph": {"type": "cycle", "N": CERT_N, "k": 1.0},
        "n": 2,
        "init": {"mode": "explicit", "points": (ring @ random_rotation(rng, 3).T).tolist()},
        "seed": seed,
    }


def cert_expect(cfg: dict) -> dict:
    # Top eigenvalue of B at the 1-twisted ring: 2 k (1 - cos(2 pi / N)).
    N = cfg["graph"]["N"]
    return {"beta": 2.0 * cfg["graph"]["k"] * (1.0 - math.cos(2.0 * math.pi / N))}


SWEEP_N = 12


def sweep_config(seed: int) -> dict:
    """One drift budget below the bound and one above, both kept away from
    exactly 1.0, where premise_holds would flip on rounding."""
    rng = np.random.default_rng([seed, SWEEP_N])
    values = [round(float(rng.uniform(0.3, 0.7)), 4), round(float(rng.uniform(1.3, 1.7)), 4)]
    return {
        "graph": {"type": "cycle", "N": SWEEP_N, "k": 1.0},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "frequencies": {"mode": "random", "total_norm": values[0], "units": "theorem_rhs"},
        "sweep": {"var": "omega_total", "values": values, "trials": 1,
                  "units": "theorem_rhs", "equilibrate": True},
        "seed": seed,
    }


def sweep_expect(cfg: dict) -> dict:
    """Cell values and per-cell seeds from the documented counter-based split."""
    sw = cfg["sweep"]
    cells = []
    for vi, value in enumerate(sw["values"]):
        for trial in range(sw["trials"]):
            ss = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(vi, trial))
            cells.append([value, int(ss.generate_state(1, np.uint64)[0])])
    return {"cells": cells}


INPUTS = {
    "sim-path10": (sim_config("path", 10, 0.5, 4.0), sim_expect),
    "sim-cycle1000": (sim_config("cycle", 1000, 0.0, 0.3), sim_expect),
    "cert-ring600": (cert_config, cert_expect),
    "sweep-equil": (sweep_config, sweep_expect),
}


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": None,
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    try:
        info["blas_threads"] = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_()
    except (IndexError, OSError, AttributeError):
        pass
    return info


def main() -> int:
    name, seed, config_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    make_config, expect = INPUTS[name]
    cfg = make_config(seed)
    with open(config_path, "w") as fh:
        json.dump(cfg, fh)
    print(json.dumps({"expected": expect(cfg), "machine": machine()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
