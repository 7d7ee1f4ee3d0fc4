"""Command-line front end: config parsing, orchestration, result emission.

Subcommands: simulate, linearize, sweep, fixtures. Configs are strict
JSON; unknown keys at any level are rejected so typos cannot silently
change an experiment. All randomness flows from one 64-bit seed through
a counter-based split per sweep point and trial, so runs are
reproducible at any worker count.

Exit codes: 0 ok, 2 config error, 3 divergence, 4 equilibrium not found.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import LoheSystem, random_configuration, random_frequencies, zero_frequencies
from .network import CouplingGraph, complete_graph, cycle_graph, from_edge_list, min_gain, path_graph
from .simulate import IntegrationDiverged, find_equilibrium, integrate
from .stability import is_dispersed, theorem_rhs, twisted_state, verify_theorem


class ConfigError(ValueError):
    pass


_GRAPH_TYPES = ("path", "cycle", "complete", "edges")
_TOP_KEYS = {"graph", "n", "frequencies", "init", "integrate", "analysis", "seed", "out", "sweep"}
MAX_STEPS = 10**8  # largest RK4 step count t_end / dt that a config may ask for
MAX_DENSE_ELEMENTS = 10**8  # largest dense float64 array (800 MB) that a config may ask for
MAX_ITEMS = 10**6  # most graph edges, and most sweep cells, that a config may ask for


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _as_positive_number(val, name: str) -> float:
    if not _is_number(val) or not val > 0:
        raise ConfigError(f"{name} must be a number > 0, got {val!r}")
    return float(val)


def _as_int(val, name: str, minimum: int) -> int:
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {val!r}")
    return val


def _as_number_grid(val, name: str, depth: int):
    """Return val if it is a rectangular nesting of lists, depth deep, of numbers."""
    bad = ConfigError(f"{name} must be a rectangular array of numbers, {depth} lists deep")
    level = [val]
    for _ in range(depth):
        if not all(isinstance(v, list) and len(v) == len(level[0]) for v in level):
            raise bad
        level = [e for v in level for e in v]
    if not all(map(_is_number, level)):
        raise bad
    return val


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


def _validate_graph(section) -> dict:
    if not isinstance(section, dict):
        raise ConfigError("graph must be an object")
    if "type" not in section:
        raise ConfigError("graph needs a type")
    gtype = section["type"]
    if gtype not in _GRAPH_TYPES:
        raise ConfigError(f"graph type must be one of {_GRAPH_TYPES}, got {gtype!r}")
    if gtype == "edges":
        _require_keys(section, {"type", "N", "edges"}, "graph")
        out = {
            "type": gtype,
            "N": _as_int(section.get("N"), "graph.N", 1),
            "edges": section.get("edges"),
        }
        if not isinstance(out["edges"], list) or not out["edges"]:
            raise ConfigError("graph.edges must be a nonempty list of [i, j, k] triples")
        for e in out["edges"]:
            if not (isinstance(e, list) and len(e) == 3):
                raise ConfigError(f"bad edge entry {e!r}, expected [i, j, k]")
            _as_int(e[0], "graph.edges node index", 1)
            _as_int(e[1], "graph.edges node index", 1)
            _as_positive_number(e[2], "graph.edges gain")
        return out
    _require_keys(section, {"type", "N", "k"}, "graph")
    return {
        "type": gtype,
        "N": _as_int(section.get("N"), "graph.N", 1),
        "k": _as_positive_number(section.get("k", 1.0), "graph.k"),
    }


def _require_size(graph: dict, n: int) -> None:
    """Reject a graph and dimension whose arrays would not fit, before any is built."""
    N = graph["N"]
    edges = len(graph["edges"]) if graph["type"] == "edges" else {
        "path": N - 1, "cycle": N, "complete": N * (N - 1) // 2}[graph["type"]]
    if edges > MAX_ITEMS:
        raise ConfigError(f"graph has {edges} edges, more than {MAX_ITEMS}")
    for what, size in (("weight matrix", N * N), ("frequency array", N * (n + 1) ** 2)):
        if size > MAX_DENSE_ELEMENTS:
            raise ConfigError(f"the {what} has {size} entries, more than {MAX_DENSE_ELEMENTS}")


def _validate_frequencies(section) -> dict:
    if not isinstance(section, dict):
        raise ConfigError("frequencies must be an object")
    mode = section.get("mode", "zero")
    if mode == "zero":
        _require_keys(section, {"mode"}, "frequencies")
        return {"mode": "zero"}
    if mode == "random":
        _require_keys(section, {"mode", "total_norm", "units"}, "frequencies")
        if "total_norm" not in section:
            raise ConfigError("random frequencies need total_norm")
        total = section["total_norm"]
        if not _is_number(total) or total < 0:
            raise ConfigError(f"frequencies.total_norm must be a number >= 0, got {total!r}")
        units = section.get("units", "absolute")
        if units not in ("absolute", "theorem_rhs"):
            raise ConfigError(f"frequencies.units must be absolute or theorem_rhs, got {units!r}")
        return {"mode": "random", "total_norm": float(total), "units": units}
    if mode == "explicit":
        _require_keys(section, {"mode", "matrices"}, "frequencies")
        if "matrices" not in section:
            raise ConfigError("explicit frequencies need matrices")
        return {"mode": "explicit",
                "matrices": _as_number_grid(section["matrices"], "frequencies.matrices", 3)}
    raise ConfigError(f"frequencies.mode must be zero, random, or explicit, got {mode!r}")


def _validate_init(section) -> dict:
    if not isinstance(section, dict):
        raise ConfigError("init must be an object")
    mode = section.get("mode", "random")
    if mode == "random":
        _require_keys(section, {"mode"}, "init")
        return {"mode": "random"}
    if mode == "twisted":
        _require_keys(section, {"mode", "q"}, "init")
        return {"mode": "twisted", "q": _as_int(section.get("q", 1), "init.q", 1)}
    if mode == "explicit":
        _require_keys(section, {"mode", "points"}, "init")
        if "points" not in section:
            raise ConfigError("explicit init needs points")
        return {"mode": "explicit", "points": _as_number_grid(section["points"], "init.points", 2)}
    raise ConfigError(f"init.mode must be random, twisted, or explicit, got {mode!r}")


def _validate_sweep(section) -> dict:
    if not isinstance(section, dict):
        raise ConfigError("sweep must be an object")
    _require_keys(section, {"var", "values", "trials", "units", "equilibrate"}, "sweep")
    var = section.get("var")
    if var not in ("omega_total", "K", "N", "n"):
        raise ConfigError(f"sweep.var must be omega_total, K, N, or n, got {var!r}")
    values = section.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a nonempty list")
    clean = []
    for v in values:
        if not _is_number(v):
            raise ConfigError(f"sweep value {v!r} is not a number")
        if var in ("N", "n"):
            if int(v) != v:
                raise ConfigError(f"sweep over {var} needs integer values, got {v!r}")
            clean.append(int(v))
        else:
            if not v > 0:
                raise ConfigError(f"sweep value for {var} must be > 0, got {v!r}")
            clean.append(float(v))
    units = section.get("units", "absolute")
    if units not in ("absolute", "theorem_rhs"):
        raise ConfigError(f"sweep.units must be absolute or theorem_rhs, got {units!r}")
    if units == "theorem_rhs" and var != "omega_total":
        raise ConfigError("sweep.units theorem_rhs only applies to var omega_total")
    equilibrate = section.get("equilibrate", False)
    if not isinstance(equilibrate, bool):
        raise ConfigError("sweep.equilibrate must be a boolean")
    trials = _as_int(section.get("trials", 1), "sweep.trials", 1)
    if len(clean) * trials > MAX_ITEMS:
        raise ConfigError(f"sweep has {len(clean) * trials} cells, more than {MAX_ITEMS}")
    return {
        "var": var,
        "values": clean,
        "trials": trials,
        "units": units,
        "equilibrate": equilibrate,
    }


def validate_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON config and fill in every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "config")
    if "graph" not in raw:
        raise ConfigError("config missing graph")
    graph = _validate_graph(raw["graph"])
    n = _as_int(raw.get("n", 2), "n", 1)
    freqs = _validate_frequencies(raw.get("frequencies", {"mode": "zero"}))
    init = _validate_init(raw.get("init", {"mode": "random"}))

    integ = raw.get("integrate", {})
    if not isinstance(integ, dict):
        raise ConfigError("integrate must be an object")
    _require_keys(integ, {"dt", "t_end", "sample_every"}, "integrate")
    integ = {
        "dt": _as_positive_number(integ.get("dt", 1e-3), "integrate.dt"),
        "t_end": _as_positive_number(integ.get("t_end", 100.0), "integrate.t_end"),
        "sample_every": _as_int(integ.get("sample_every", 100), "integrate.sample_every", 1),
    }
    steps = integ["t_end"] / integ["dt"]
    if not steps <= MAX_STEPS:  # also rejects inf and nan
        raise ConfigError(f"integrate.t_end / integrate.dt must be finite and <= {MAX_STEPS}, "
                          f"got {steps!r}")

    analysis = raw.get("analysis", {})
    if not isinstance(analysis, dict):
        raise ConfigError("analysis must be an object")
    _require_keys(analysis, {"linearize", "verify_theorem", "dispersed"}, "analysis")
    analysis = {key: analysis.get(key, False)
                for key in ("linearize", "verify_theorem", "dispersed")}
    for key, got in analysis.items():
        if not isinstance(got, bool):
            raise ConfigError(f"analysis.{key} must be a boolean")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    out = raw.get("out", "run")
    if not isinstance(out, str) or not out:
        raise ConfigError("out must be a nonempty string")
    sweep = _validate_sweep(raw["sweep"]) if "sweep" in raw else None
    if sweep and sweep["var"] == "K" and graph["type"] == "edges":
        # each swept value gets its own scaled copy of the edge list
        copies = len(sweep["values"]) * len(graph["edges"])
        if copies > MAX_ITEMS:
            raise ConfigError(f"the K sweep scales {copies} edges, more than {MAX_ITEMS}")

    cfg = ExperimentConfig(
        graph=graph, n=n, frequencies=freqs, init=init, integrate=integ,
        analysis=analysis, seed=seed, out=out, sweep=sweep,
    )
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


def build_graph(spec: dict) -> CouplingGraph:
    if spec["type"] == "path":
        return path_graph(spec["N"], spec["k"])
    if spec["type"] == "cycle":
        return cycle_graph(spec["N"], spec["k"])
    if spec["type"] == "complete":
        return complete_graph(spec["N"], spec["k"])
    return from_edge_list(spec["N"], spec["edges"])


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
    norms = np.linalg.norm(pts, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ConfigError("init.points rows must be unit vectors (within 1e-9)")
    return pts / norms[:, None]


def _build_all(cfg: ExperimentConfig, rng):
    """Build cfg's system and start; a config the library rejects is a ConfigError."""
    try:
        graph = build_graph(cfg.graph)
        system = LoheSystem(graph=graph, omegas=build_frequencies(cfg, graph, rng))
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
    system, x0 = _build_all(cfg, np.random.default_rng(cfg.seed))
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
        disp = is_dispersed(traj.final_state)
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
    system, x0 = _build_all(cfg, np.random.default_rng(seed))
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

    Every cell's config is resolved and checked before any cell runs. Cells that stop short of
    equilibrium are named on stderr in cell order; the CSV and the exit code do not change.
    """
    sweep = cfg.sweep
    if sweep is None:
        raise ConfigError("sweep command needs a sweep section in the config")
    configs = _run_configs(cfg)
    _require_certificate(configs)
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
