"""Command-line front end: config parsing, orchestration, result emission.

Subcommands: simulate, linearize, sweep, fixtures. Configs are strict
JSON; unknown keys at any level are rejected so typos cannot silently
change an experiment. All randomness flows from one 64-bit seed through
a counter-based split per sweep point and trial, so runs are
reproducible at any worker count.

Exit codes: 0 ok, 2 config error, 3 divergence, 4 equilibrium not found.
"""

from __future__ import annotations

import os

# numpy's bundled OpenBLAS lets an idle helper thread spin for 2^k CPU cycles (k = 28 by
# default, about 0.13 s at 2 GHz) after it loads and after each threaded call, on a core
# that the main thread, sweep workers or other processes could use. 2^20 cycles keep the
# thread warm within one eigensolve. OpenBLAS reads the variable when numpy loads, so this
# comes before every import that loads numpy; a value already in the environment wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (LoheSystem, _check_unit_rows, frequency_total_norm, random_configuration,
                       random_frequencies, zero_frequencies)
from .network import CouplingGraph, complete_graph, cycle_graph, from_edge_list, min_gain, path_graph
from .simulate import IntegrationDiverged, find_equilibrium, integrate
from .stability import is_dispersed, theorem_rhs, twisted_state, verify_theorem


class ConfigError(ValueError):
    pass


MAX_STEPS = 10**8  # largest RK4 step count t_end / dt that a config may ask for
MAX_DENSE_ELEMENTS = 10**8  # largest dense float64 array (800 MB) that a config may ask for
MAX_ITEMS = 10**6  # most graph edges, and most sweep cells, that a config may ask for

# Each check takes a value and the key path that names it in errors, and returns the
# resolved value or raises ConfigError.


def _is_number(val) -> bool:
    """A finite int or float; JSON reads a number too large for a double, such as 1e999, as inf."""
    try:
        return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)
    except OverflowError:  # an int too large for a double
        return False


def _positive(val, name: str) -> float:
    if not _is_number(val) or not val > 0:
        raise ConfigError(f"{name} must be a number > 0, got {val!r}")
    return float(val)


def _nonnegative(val, name: str) -> float:
    if not _is_number(val) or val < 0:
        raise ConfigError(f"{name} must be a number >= 0, got {val!r}")
    return float(val)


def _count(val, name: str) -> int:
    if not isinstance(val, int) or isinstance(val, bool) or val < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {val!r}")
    return val


def _seed(val, name: str) -> int:
    if not isinstance(val, int) or isinstance(val, bool) or not 0 <= val < 2**64:
        raise ConfigError(f"{name} must be an integer in [0, 2^64), got {val!r}")
    return val


def _boolean(val, name: str) -> bool:
    if not isinstance(val, bool):
        raise ConfigError(f"{name} must be a boolean, got {val!r}")
    return val


def _nonempty_string(val, name: str) -> str:
    if not isinstance(val, str) or not val:
        raise ConfigError(f"{name} must be a nonempty string, got {val!r}")
    return val


def _nonempty_list(val, name: str) -> list:
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{name} must be a nonempty list, got {val!r}")
    return val


def _one_of(*choices: str):
    def check(val, name: str) -> str:
        if val not in choices:
            raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {val!r}")
        return val
    return check


def _grid(depth: int):
    """The check of a rectangular nesting of lists, depth deep, of numbers."""
    def check(val, name: str) -> list:
        bad = ConfigError(f"{name} must be a rectangular array of numbers, {depth} lists deep")
        level = [val]
        for _ in range(depth):
            if not all(isinstance(v, list) and len(v) == len(level[0]) for v in level):
                raise bad
            level = [e for v in level for e in v]
        if not all(map(_is_number, level)):
            raise bad
        return val
    return check


def _edges(val, name: str) -> list:
    for i, edge in enumerate(_nonempty_list(val, name)):
        if not (isinstance(edge, list) and len(edge) == 3):
            raise ConfigError(f"{name}[{i}] must be an [i, j, k] triple, got {edge!r}")
        for pos, check in enumerate((_count, _count, _positive)):
            check(edge[pos], f"{name}[{i}][{pos}]")
    return val


_REQUIRED = object()  # the default of a key that every config must give


def _walk(val, rows: dict, name: str) -> dict:
    """Check the object val against rows {key: (check, default)} and fill in the defaults.

    name is val's key path, empty at the top level. A default passes its row's check
    like a given value; a None default leaves an absent key out of the result.
    """
    where = name or "config"
    if not isinstance(val, dict):
        raise ConfigError(f"{where} must be an object")
    prefix = f"{name}." if name else ""
    for key, (_, default) in rows.items():
        if default is _REQUIRED and key not in val:
            raise ConfigError(f"{prefix}{key} is required")
    unknown = set(val) - set(rows)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    return {key: check(val.get(key, default), prefix + key)
            for key, (check, default) in rows.items() if key in val or default is not None}


def _section(rows: dict):
    return lambda val, name: _walk(val, rows, name)


def _pick(key: str, default, row_sets: dict):
    """The check of an object whose value of key picks its other rows, one row set per value."""
    pick = _one_of(*row_sets)

    def check(val, name: str) -> dict:
        rows = {key: (pick, default)}
        choice = val.get(key, default) if isinstance(val, dict) else default
        if choice is not _REQUIRED:
            rows.update(row_sets[pick(choice, f"{name}.{key}")])
        return _walk(val, rows, name)
    return check


_UNITS = _one_of("absolute", "theorem_rhs")
_NODES = (_count, _REQUIRED)
_GENERATED = {"N": _NODES, "k": (_positive, 1.0)}
_CONFIG = {
    "graph": (_pick("type", _REQUIRED, {
        "path": _GENERATED, "cycle": _GENERATED, "complete": _GENERATED,
        "edges": {"N": _NODES, "edges": (_edges, _REQUIRED)},
    }), _REQUIRED),
    "n": (_count, 2),
    "frequencies": (_pick("mode", "zero", {
        "zero": {},
        "random": {"total_norm": (_nonnegative, _REQUIRED), "units": (_UNITS, "absolute")},
        "explicit": {"matrices": (_grid(3), _REQUIRED)},
    }), {}),
    "init": (_pick("mode", "random", {
        "random": {},
        "twisted": {"q": (_count, 1)},
        "explicit": {"points": (_grid(2), _REQUIRED)},
    }), {}),
    "integrate": (_section({
        "dt": (_positive, 1e-3), "t_end": (_positive, 100.0), "sample_every": (_count, 100),
    }), {}),
    "analysis": (_section({
        key: (_boolean, False) for key in ("linearize", "verify_theorem", "dispersed")
    }), {}),
    "seed": (_seed, 0),
    "out": (_nonempty_string, "run"),
    "sweep": (_section({
        "var": (_one_of("omega_total", "K", "N", "n"), _REQUIRED),
        "values": (_nonempty_list, _REQUIRED),
        "trials": (_count, 1),
        "units": (_UNITS, "absolute"),
        "equilibrate": (_boolean, False),
    }), None),
}
# the check of each swept value: the row of the key it replaces; a swept total norm must be > 0
_SWEPT = {"omega_total": _positive, "K": _GENERATED["k"][0], "N": _NODES[0],
          "n": _CONFIG["n"][0]}


@dataclass
class ExperimentConfig:
    """Validated experiment description with all defaults resolved."""

    graph: dict
    n: int
    frequencies: dict
    init: dict
    integrate: dict
    analysis: dict
    seed: int
    out: str
    sweep: dict | None = None
    theorem_factor: int = 1
    workers: int = 1


def _require_size(graph: dict, n: int) -> None:
    """Reject a graph and dimension whose arrays would not fit, before any is built."""
    N = graph["N"]
    edges = len(graph["edges"]) if graph["type"] == "edges" else {
        "path": N - 1, "cycle": N, "complete": N * (N - 1) // 2}[graph["type"]]
    if edges > MAX_ITEMS:
        raise ConfigError(f"graph has {edges} edges, more than {MAX_ITEMS}")
    size = N * (n + 1) ** 2
    if size > MAX_DENSE_ELEMENTS:
        raise ConfigError(f"the frequency array has {size} entries, more than {MAX_DENSE_ELEMENTS}")


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON config and fill in every default."""
    cfg = ExperimentConfig(**_walk(raw, _CONFIG, ""))
    steps = cfg.integrate["t_end"] / cfg.integrate["dt"]
    if not steps <= MAX_STEPS:  # also rejects inf and nan
        raise ConfigError(f"integrate.t_end / integrate.dt must be finite and <= {MAX_STEPS}, "
                          f"got {steps!r}")
    sweep = cfg.sweep
    if sweep:
        check = _SWEPT[sweep["var"]]
        sweep["values"] = [check(v, f"sweep.values[{i}]") for i, v in enumerate(sweep["values"])]
        if sweep["units"] == "theorem_rhs" and sweep["var"] != "omega_total":
            raise ConfigError("sweep.units theorem_rhs only applies to var omega_total")
        cells = len(sweep["values"]) * sweep["trials"]
        if cells > MAX_ITEMS:
            raise ConfigError(f"sweep has {cells} cells, more than {MAX_ITEMS}")
        if sweep["var"] == "K" and cfg.graph["type"] == "edges":
            # each swept value gets its own scaled copy of the edge list
            copies = len(sweep["values"]) * len(cfg.graph["edges"])
            if copies > MAX_ITEMS:
                raise ConfigError(f"the K sweep scales {copies} edges, more than {MAX_ITEMS}")
    for c in (cfg, *_run_configs(cfg)):
        _require_size(c.graph, c.n)
    return cfg


def _reject_constant(name: str):
    raise ConfigError(f"config contains the non-finite constant {name}")


def load_config(path: str, seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    """Read and validate a config; a seed or out that is not None replaces the config's own."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if isinstance(raw, dict):
        raw.update((key, val) for key, val in (("seed", seed), ("out", out)) if val is not None)
    return validate_config(raw)


def _require_out_dir(out: str) -> None:
    """Reject an output prefix whose directory is not an existing, writable directory."""
    where = os.path.dirname(out) or "."
    if not (os.path.isdir(where) and os.access(where, os.W_OK)):
        raise ConfigError(f"out {out!r}: {where!r} is not a writable directory")


def build_graph(spec: dict) -> CouplingGraph:
    if spec["type"] == "edges":
        return from_edge_list(spec["N"], spec["edges"])
    generator = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}
    return generator[spec["type"]](spec["N"], spec["k"])


def build_frequencies(cfg: ExperimentConfig, graph: CouplingGraph, rng) -> np.ndarray:
    mode = cfg.frequencies["mode"]
    if mode == "zero":
        return zero_frequencies(graph.n_nodes, cfg.n)
    if mode == "random":
        total = cfg.frequencies["total_norm"]
        if cfg.frequencies["units"] == "theorem_rhs":
            total = total * theorem_rhs(
                min_gain(graph), cfg.n, graph.n_nodes, factor=cfg.theorem_factor
            )
        if not math.isfinite(total * total):
            raise ConfigError(f"frequencies.total_norm resolves to {total!r}, "
                              "whose square overflows a double")
        return random_frequencies(rng, graph.n_nodes, cfg.n, total)
    mats = np.asarray(cfg.frequencies["matrices"], dtype=float)
    if mats.shape != (graph.n_nodes, cfg.n + 1, cfg.n + 1):
        raise ConfigError(
            f"frequencies.matrices must have shape ({graph.n_nodes}, {cfg.n + 1}, "
            f"{cfg.n + 1}), got {mats.shape}"
        )
    return mats


def build_init(cfg: ExperimentConfig, graph: CouplingGraph, rng) -> np.ndarray:
    mode = cfg.init["mode"]
    if mode == "random":
        return random_configuration(rng, graph.n_nodes, cfg.n)
    if mode == "twisted":
        return twisted_state(graph.n_nodes, cfg.init["q"], cfg.n)
    pts = np.asarray(cfg.init["points"], dtype=float)
    if pts.shape != (graph.n_nodes, cfg.n + 1):
        raise ConfigError(
            f"init.points must have shape ({graph.n_nodes}, {cfg.n + 1}), got {pts.shape}"
        )
    _check_unit_rows(pts, "init.points")
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _build_all(cfg: ExperimentConfig, seed, certify: bool = False):
    """Build cfg's system and start from seed; a config the library rejects is a ConfigError.

    The generator default_rng(seed) is made only when the frequencies or the start are
    random, so that other runs never load numpy.random; frequencies draw first. With
    certify, the total norm of explicit frequencies, which the certificate reports, must
    square to a double, as a random total norm must in every run.
    """
    draws = "random" in (cfg.frequencies["mode"], cfg.init["mode"])
    rng = np.random.default_rng(seed) if draws else None
    try:
        graph = build_graph(cfg.graph)
        omegas = build_frequencies(cfg, graph, rng)
        if certify and cfg.frequencies["mode"] == "explicit":
            with np.errstate(over="ignore"):  # it sums squares; inf means they overflow
                if not math.isfinite(frequency_total_norm(omegas)):
                    raise ConfigError("frequencies.matrices have a total norm whose square "
                                      "overflows a double")
        system = LoheSystem(graph=graph, omegas=omegas)
        return system, build_init(cfg, graph, rng)
    except ValueError as e:
        raise ConfigError(str(e))


def _require_certificate(configs) -> None:
    """Reject configs whose certificate is undefined or too large to linearize."""
    for c in configs:
        if c.n < 2:  # the frequency budget theorem_rhs is defined for n >= 2 only
            raise ConfigError(f"the instability certificate needs n >= 2, got n = {c.n}")
        m = c.graph["N"] * (c.n + 1)
        if m * m > MAX_DENSE_ELEMENTS:
            raise ConfigError(f"the linearization has {m * m} entries, "
                              f"more than {MAX_DENSE_ELEMENTS}")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """Integrate one trajectory, write CSV + final JSON, print a summary."""
    certify = cfg.analysis["linearize"] or cfg.analysis["verify_theorem"]
    if certify:
        _require_certificate([cfg])
    system, x0 = _build_all(cfg, cfg.seed, certify)
    traj = integrate(system, x0, **cfg.integrate)
    traj.write_csv(f"{cfg.out}_trajectory.csv")
    final = traj.final_json_dict()
    if certify:
        report = verify_theorem(system, traj.final_state, factor=cfg.theorem_factor)
        if cfg.analysis["linearize"]:
            final["linearization"] = report.linearization.to_json_dict()
        if cfg.analysis["verify_theorem"]:
            final["theorem"] = {
                "theorem_rhs": report.theorem_rhs,
                "omega_norm": report.linearization.omega_norm,
                "premise_holds": report.premise_holds,
                "conclusion_holds": report.conclusion_holds,
            }
    if cfg.analysis["dispersed"]:
        disp = report.dispersed if certify else is_dispersed(traj.final_state)
        final["dispersed"] = disp.dispersed
        final["hull_min_norm"] = disp.hull_min_norm
    _write_json(f"{cfg.out}_final.json", final)
    print(
        f"final V={final['disagreement']:.6g} "
        f"sync_radius={final['sync_radius']:.6g} "
        f"practically_synced={_fmt_bool(final['practically_synced'])}"
    )
    return 0


def _certify(cfg: ExperimentConfig, seed: int, max_time: float | None):
    """Build cfg from seed, refine its start for up to max_time of flow, and certify the point.

    max_time None certifies the start itself. Returns the BoundReport and the
    EquilibriumResult, which is None when the start is not refined.
    """
    system, x0 = _build_all(cfg, seed, certify=True)
    eq = None if max_time is None else find_equilibrium(system, x0, tol=1e-10, max_time=max_time)
    return verify_theorem(system, x0 if eq is None else eq.config, factor=cfg.theorem_factor), eq


def cmd_linearize(cfg: ExperimentConfig) -> int:
    """Refine an equilibrium, evaluate the certificate, write the report.

    Fixture-like starts (twisted or explicit init) are treated as
    candidate equilibria and refined locally by Newton polish alone;
    random starts get the full integrate-then-polish budget.
    """
    _require_certificate([cfg])
    local_start = cfg.init["mode"] in ("twisted", "explicit")
    report, eq = _certify(cfg, cfg.seed, 0.0 if local_start else 200.0)
    payload = {**report.to_json_dict(), "converged": eq.converged, "residual": eq.residual,
               "newton_iterations": eq.iterations}
    _write_json(f"{cfg.out}_report.json", payload)
    lin = report.linearization
    print(f"beta={lin.beta:.10g} alpha_re={lin.alpha_re:.10g} omega_norm={lin.omega_norm:.10g}")
    print(
        f"theorem_rhs={report.theorem_rhs:.10g} "
        f"premise_holds={_fmt_bool(report.premise_holds)} "
        f"conclusion_holds={_fmt_bool(report.conclusion_holds)} "
        f"dispersed={_fmt_bool(report.dispersed.dispersed)} "
        f"converged={_fmt_bool(eq.converged)}"
    )
    return 0 if eq.converged else 4


def _trial_seed(master: int, value_index: int, trial: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(value_index, trial))
    return int(ss.generate_state(1, np.uint64)[0])


def _cell_config(cfg: ExperimentConfig, var: str, value, units: str) -> ExperimentConfig:
    """cfg with the swept variable var set to value."""
    if var == "K" and cfg.graph["type"] == "edges":
        scale = value / min(e[2] for e in cfg.graph["edges"])
        edges = [[i, j, k * scale] for i, j, k in cfg.graph["edges"]]
        return replace(cfg, graph={**cfg.graph, "edges": edges})
    if var == "K":
        return replace(cfg, graph={**cfg.graph, "k": value})
    if var == "N":
        if cfg.graph["type"] == "edges":
            raise ConfigError("sweep over N requires a generated graph type")
        return replace(cfg, graph={**cfg.graph, "N": value})
    if var == "n":
        return replace(cfg, n=value)
    if cfg.frequencies["mode"] == "explicit":
        raise ConfigError("sweep over omega_total requires non-explicit frequencies")
    return replace(cfg, frequencies={"mode": "random", "total_norm": value, "units": units})


def _run_configs(cfg: ExperimentConfig) -> list:
    """[cfg] without a sweep, else one config per swept value, in value order."""
    sweep = cfg.sweep
    if sweep is None:
        return [cfg]
    # a cell's config carries no copy of the grid to its worker
    return [_cell_config(replace(cfg, sweep=None), sweep["var"], v, sweep["units"])
            for v in sweep["values"]]


def _sweep_point(cell: tuple):
    """Certify one (config, seed, max_time) sweep cell. Runs in worker processes."""
    return _certify(*cell)


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Evaluate the certificate across a parameter grid, one CSV row per trial.

    Every cell's config is resolved, checked and built before any cell runs. Cells that stop
    short of equilibrium are named on stderr in cell order; the CSV and the exit code do not
    change.
    """
    sweep = cfg.sweep
    if sweep is None:
        raise ConfigError("sweep command needs a sweep section in the config")
    configs = _run_configs(cfg)
    _require_certificate(configs)
    for config in configs:  # a value the library rejects exits 2 before any cell runs
        _build_all(config, 0, certify=True)
    max_time = 200.0 if sweep["equilibrate"] else None
    cells = [(config, _trial_seed(cfg.seed, vi, trial), max_time)
             for vi, config in enumerate(configs) for trial in range(sweep["trials"])]
    values = [value for value in sweep["values"] for _ in range(sweep["trials"])]
    # the fork start method launches every worker at the first submit, so
    # never ask for more workers than cells
    workers = min(cfg.workers, len(cells))
    if workers > 1:
        # imported here, so that simulate and linearize do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, cells))
    else:
        results = [_sweep_point(c) for c in cells]

    path = f"{cfg.out}_sweep.csv"
    with open(path, "w") as fh:
        fh.write("value,seed,beta,alpha_re,premise_holds,conclusion_holds,dispersed\n")
        for value, (_, seed, _), (rep, _) in zip(values, cells, results):
            lin = rep.linearization
            fh.write(f"{_fmt(value)},{seed},{_fmt(lin.beta)},{_fmt(lin.alpha_re)},"
                     f"{_fmt_bool(rep.premise_holds)},{_fmt_bool(rep.conclusion_holds)},"
                     f"{_fmt_bool(rep.dispersed.dispersed)}\n")
    for value, (_, seed, _), (_, eq) in zip(values, cells, results):
        if eq is not None and not eq.converged:
            print(f"warning: sweep cell value={_fmt(value)} seed={seed} found no "
                  f"equilibrium (residual {eq.residual:.3g}); certified at the best point",
                  file=sys.stderr)
    n_prem = sum(1 for rep, _ in results if rep.premise_holds)
    n_concl = sum(1 for rep, _ in results if rep.conclusion_holds)
    print(f"wrote {len(results)} rows to {path} "
          f"(premise_holds: {n_prem}, conclusion_holds: {n_concl})")
    return 0


def cmd_fixtures() -> int:
    """List the built-in fixtures and the config init section that selects each."""
    print("built-in fixtures (selected by the init section of a config):")
    print("  twisted:N=<int>,q=<int>")
    print('      config: "init": {"mode": "twisted", "q": <int>}, with N taken from graph.N')
    print("      N agents at phases 2*pi*q*i/N on a great circle;")
    print("      equilibrium of the homogeneous field on the cycle graph,")
    print("      dispersed for every winding 1 <= q < N")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lohesphere",
        description="Simulate and analyze sphere-valued oscillator networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "integrate one trajectory and write CSV + JSON"),
        ("linearize", "refine an equilibrium and write the certificate report"),
        ("sweep", "evaluate the certificate across a parameter grid"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to JSON config")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=None, help="override output path prefix")
        sp.add_argument("--workers", type=int, default=1, help="sweep worker processes")
        sp.add_argument(
            "--theorem-factor", type=int, choices=(1, 2), default=1, dest="theorem_factor",
            help="1 for the stated bound, 2 for the sharper optimized constant",
        )
    sub.add_parser("fixtures", help="list built-in equilibrium fixtures")
    args = parser.parse_args(argv)

    if args.command == "fixtures":
        return cmd_fixtures()

    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out)
        _require_out_dir(cfg.out)
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg.workers = args.workers
        cfg.theorem_factor = args.theorem_factor

        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "linearize":
            return cmd_linearize(cfg)
        return cmd_sweep(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except IntegrationDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
