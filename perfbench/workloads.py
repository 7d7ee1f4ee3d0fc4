"""Workload table and output checks (standard library only).

Each check returns (attempted, failed) for one CLI invocation, comparing
its outputs with the references inputs.py computed for the same seed. Only
what the mathematics fixes is checked, never the sign of a quantity that is
zero up to rounding.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

CSV_HEADER = ["t", "V", "sync_radius", "min_edge_angle", "max_edge_angle", "norm_drift"]
SWEEP_HEADER = ["value", "seed", "beta", "alpha_re", "premise_holds", "conclusion_holds",
                "dispersed"]
# RK4 with per-step renormalization leaves row norms off by O(dt^5) per step.
NORM_DRIFT_MAX = 1e-12
# Final disagreement agrees with the independent RK4 up to rounding growth.
V_RTOL = 1e-9
# The practical-sync verdict is checked only when the exact cap radius is
# this far (radians) from the pi/4 threshold.
VERDICT_MARGIN = 0.01
# beta of the ring, against its closed form.
BETA_RTOL = 1e-6
# beta and alpha_re at a synchronized state are zero up to rounding.
SYNC_EIG_ATOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # (expected, output prefix, exit code) -> (attempted, failed)
    check: Callable[[dict, str, int], tuple]
    workers: int = 1


def _number(v) -> float:
    return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else math.nan


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            out = json.load(fh)
    except (OSError, ValueError):
        return {}
    return out if isinstance(out, dict) else {}


def _sim_ok(exp: dict, prefix: str) -> bool:
    final = _load_json(f"{prefix}_final.json")
    try:
        with open(f"{prefix}_trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        vals = [[float(v) for v in row] for row in rows[1:]]
    except (OSError, ValueError):
        return False
    if not final or not rows or rows[0] != CSV_HEADER or len(vals) != exp["rows"]:
        return False
    if any(len(r) != len(CSV_HEADER) or not all(map(math.isfinite, r)) for r in vals):
        return False
    t = [r[0] for r in vals]
    if t[0] != 0.0 or any(b <= a for a, b in zip(t, t[1:])) or abs(t[-1] - exp["t_end"]) > 1e-9:
        return False
    if max(r[5] for r in vals) > NORM_DRIFT_MAX:
        return False
    if not abs(_number(final.get("disagreement")) - exp["V"]) <= V_RTOL * max(exp["V"], 1e-6):
        return False
    if abs(exp["radius"] - math.pi / 4) > VERDICT_MARGIN:
        return final.get("practically_synced") is (exp["radius"] < math.pi / 4)
    return True


def sim_check(exp: dict, prefix: str, rc: int) -> tuple:
    return 1, int(not (rc == 0 and _sim_ok(exp, prefix)))


def cert_check(exp: dict, prefix: str, rc: int) -> tuple:
    rep = _load_json(f"{prefix}_report.json")
    beta = exp["beta"]
    ok = (
        rc == 0
        and rep.get("converged") is True
        and rep.get("dispersed") is True
        and rep.get("conclusion_holds") is True
        and rep.get("violated_links") == []
        and abs(_number(rep.get("beta")) - beta) <= BETA_RTOL * beta
        and abs(_number(rep.get("alpha_re")) - beta) <= BETA_RTOL * beta
    )
    return 1, int(not ok)


def sweep_check(exp: dict, prefix: str, rc: int) -> tuple:
    cells = exp["cells"]
    try:
        with open(f"{prefix}_sweep.csv") as fh:
            rows = list(csv.reader(fh))
    except OSError:
        rows = []
    if rc != 0 or not rows or rows[0] != SWEEP_HEADER or len(rows) - 1 != len(cells):
        return len(cells), len(cells)
    failed = 0
    for (value, seed), row in zip(cells, rows[1:]):
        try:
            ok = (
                float(row[0]) == value
                and int(row[1]) == seed
                and abs(float(row[2])) <= SYNC_EIG_ATOL
                and abs(float(row[3])) <= SYNC_EIG_ATOL
                and row[4] == ("true" if value < 1.0 else "false")
                and row[6] == "false"
            )
        except (ValueError, IndexError):
            ok = False
        failed += not ok
    return len(cells), failed


# Sizes and seeded inputs of each workload are in inputs.py.
WORKLOADS = {
    w.name: w
    for w in (
        # Default simulator use at small N (path, N=10, drift at half the
        # bound): per-call overhead; per-sample sync_radius dominates.
        Workload("sim-path10", "simulate", sim_check),
        # The same layers at N=1000 on a cycle: the dense O(N^2) field
        # evaluation and per-edge Python loops dominate.
        Workload("sim-cycle1000", "simulate", sim_check),
        # Headline certificate at the largest dense size (m=1800): eigensolves.
        Workload("cert-ring600", "linearize", cert_check),
        # Equilibrate-then-certify sweep on two worker processes: RK4 flow,
        # finite-difference Newton and the process pool.
        Workload("sweep-equil", "sweep", sweep_check, workers=2),
    )
}
