"""Run the lohesphere CLI with spans recorded at module boundaries.

Usage: PYTHONPATH=src python trace_cli.py SPANS_FILE CLI_ARGS...

Each hooked function is replaced, in every lohesphere module that holds it
by name, by a wrapper that records (name, start, end, parent, note). The
spans stay in memory and are written with marshal when the CLI returns. A
hook whose function no longer exists is skipped; its metrics are then
reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import sys
import time

# (span name, module, attribute); several attributes may share one name.
HOOKS = [
    ("cli.load_config", "cli", "load_config"),
    ("cli.build", "cli", "_build_all"),
    ("cli.cmd", "cli", "cmd_simulate"),
    ("cli.cmd", "cli", "cmd_linearize"),
    ("cli.cmd", "cli", "cmd_sweep"),
    ("cli.sweep_point", "cli", "_sweep_point"),
    ("network.weight_matrix", "network", "CouplingGraph.weight_matrix"),
    ("dynamics.extended_rhs", "dynamics", "extended_rhs"),
    ("dynamics.hetero_rhs", "dynamics", "hetero_rhs"),
    ("dynamics.disagreement", "dynamics", "disagreement"),
    ("geometry.pairwise_angle", "geometry", "pairwise_angle"),
    ("simulate.integrate", "simulate", "integrate"),
    ("simulate.rk4", "simulate", "_rk4_step"),
    ("simulate.edge_angles", "simulate", "_edge_angles"),
    ("simulate.sync_radius", "simulate", "sync_radius"),
    ("simulate.find_equilibrium", "simulate", "find_equilibrium"),
    ("simulate.write_csv", "simulate", "Trajectory.write_csv"),
    ("hull.min_norm_point", "hull", "min_norm_point"),
    ("spectral.assemble_B", "spectral", "assemble_B"),
    ("spectral.assemble_A", "spectral", "assemble_A"),
    ("spectral.eigenvalues", "spectral", "eigenvalues"),
    ("spectral.linearize", "spectral", "linearize"),
    ("spectral.fd_jacobian", "spectral", "fd_jacobian"),
    ("stability.verify_theorem", "stability", "verify_theorem"),
    ("stability.bound_f", "stability", "bound_f"),
    ("stability.is_dispersed", "stability", "is_dispersed"),
]

# Per-call numbers taken from the return value.
NOTES = {
    "hull.min_norm_point": lambda r: r[1],  # major iterations
    "dynamics.extended_rhs": lambda r: 8 * (r.shape[0] ** 2 + 2 * r.size),  # bytes computed
    "spectral.eigenvalues": lambda r: len(r),  # matrix dimension
    "spectral.linearize": lambda r: len(r.spectrum_A),
    "simulate.find_equilibrium": lambda r: r.iterations,  # accepted Newton steps
}


class Recorder:
    """Spans of one process as (name index, start, end, parent span, note)."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.stack: list = [-1]

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        spans, stack, clock, note = self.spans, self.stack, time.perf_counter, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, note(out) if note and out is not None else 0)

        return traced


def install(rec: Recorder) -> None:
    """Hook every function in HOOKS that exists."""
    importlib.import_module("lohesphere.cli")  # imports every other module
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "lohesphere"]
    for name, mod_name, attr in HOOKS:
        owner = sys.modules.get(f"lohesphere.{mod_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        orig = vars(owner).get(leaf) if owner is not None else None
        if orig is None:
            continue
        if isinstance(orig, functools.cached_property):
            prop = functools.cached_property(rec.wrap(name, orig.func))
            prop.__set_name__(owner, leaf)
            setattr(owner, leaf, prop)
        elif path:
            setattr(owner, leaf, rec.wrap(name, orig))
        else:
            wrapped = rec.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    install(rec)
    from lohesphere import cli

    try:
        return cli.main(argv)
    finally:
        with open(out_path, "wb") as fh:
            marshal.dump({"names": rec.names, "spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
