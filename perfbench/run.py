"""Closed-loop benchmark of the lohesphere command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --workload NAME --seed N --profile 25

One client runs `PYTHONPATH=src python -m lohesphere.cli ...` on a config
generated from --seed, starting the next invocation only when the previous
one has exited, for --seconds. Every invocation's outputs are checked.
BENCHMARK.json gates sim-path10 and cert-ring600 at 60-second runs;
sim-cycle1000 and sweep-equil run the same way by name but are not gated,
because at the run length the time limit allows for four workloads, the
run-to-run spread on a shared 2-core host came too close to the bounds.

--trace 0 reports the end-to-end metrics over the run's invocations: the
mean wall time and mean user+sys CPU time (including sweep workers), the
median peak RSS, and the mean set-up time of a fresh process run after each
invocation, so that set-up samples the same machine phases.
Co-tenants of a shared host slow the CPU by up to 2x in phases that last
from seconds to minutes; a run's mean averages over those phases, and from
run to run it spread less than the median, the lower quartile or the
minimum did. Set-up is mostly the numpy import, which starts an OpenBLAS
helper thread that spin-waits, on the second core or on the importing
thread's own; which one changes in spells of ten minutes or more, and
moved the mean wall time and the whole-process CPU time of set-up by 28
to 32% between such spells. setup_s is therefore the CPU time of the
set-up process's main thread from its start to the built system, which
stayed within 8% whichever core the helper thread used. The
human-readable report also prints each timing's sample count, median and
maximum.

--trace 1 alternates plain and traced invocations (trace_cli.py) and
reports per-layer metrics as medians over the traced ones; the sweep is
traced at one worker because the hooks do not reach pool workers. The last
line of output is one JSON object. --profile N instead prints a cProfile
top-N of one invocation at one worker, run apart from the timed and traced
runs.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from trace_cli import HOOKS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INVOCATION_TIMEOUT_S = 60.0

# A fresh process that imports the package, loads the config and builds the
# system, and nothing else; it prints its main thread's CPU seconds so far.
SETUP_CODE = """
import sys
import time
import numpy as np
from lohesphere import cli
from lohesphere.dynamics import LoheSystem
cfg = cli.load_config(sys.argv[1])
rng = np.random.default_rng(cfg.seed)
graph = cli.build_graph(cfg.graph)
LoheSystem(graph=graph, omegas=cli.build_frequencies(cfg, graph, rng))
cli.build_init(cfg, graph, rng)
print(time.thread_time())
"""

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
HOOK_NAMES = list(dict.fromkeys(name for name, _, _ in HOOKS))
DERIVED = {
    "hull.iterations_per_call": "count",
    "dynamics.extended_rhs.bytes_computed": "B",
    "spectral.matrix_dim": "count",
    "spectral.eig_flops_computed": "flop",
    "simulate.flow_steps": "count",
    "simulate.newton.accepted": "count",
    "simulate.newton.accept_ratio": "fraction",
    "cli.sweep.parallel_eff": "fraction",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in HOOK_NAMES:
        total = "first_s" if name == "network.weight_matrix" else "total_s"
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.{total}": "s"})
    units.update(DERIVED)
    return units


def kill_group(pgid: int) -> None:
    """Kill a hung invocation together with any pool workers it started."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Client:
    """Runs child processes in the run's work directory and measures each one."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # Bytecode is cached as in a normal install; the first process of a
        # run writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv: list) -> tuple:
        """Return (exit code, wall s, user+sys CPU s, peak RSS MB)."""
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def stdout(self) -> str:
        return (self.work / "stdout.txt").read_text()

    def stderr(self) -> str:
        return (self.work / "stderr.txt").read_text()


def cli_args(wl: Workload, config: Path, prefix: str, workers: int) -> list:
    return [wl.command, "--config", str(config), "--out", prefix, "--workers", str(workers)]


def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers of one traced invocation; self = duration - children."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats = {name: [0, 0.0, 0.0, 0] for name in names}  # calls, self, total, notes
    flops = 0.0
    flow_steps = 0
    for k, (idx, t0, t1, parent, note) in enumerate(spans):
        name = names[idx]
        s = stats[name]
        s[0] += 1
        s[1] += t1 - t0 - child[k]
        s[2] += t1 - t0
        s[3] += note
        if name == "spectral.eigenvalues":
            flops += 10.0 * note**3
        elif name == "spectral.linearize":
            flops += 4.0 / 3.0 * note**3
        elif name == "simulate.rk4" and parent >= 0 \
                and names[spans[parent][0]] == "simulate.find_equilibrium":
            flow_steps += 1
    out = {}
    for name in HOOK_NAMES:
        if name in stats:
            calls, self_s, total, _ = stats[name]
            total_key = "first_s" if name == "network.weight_matrix" else "total_s"
            out.update({f"{name}.calls": calls, f"{name}.self_s": self_s,
                        f"{name}.{total_key}": total})

    def note(name):
        return stats[name][3]

    if "hull.min_norm_point" in stats:
        out["hull.iterations_per_call"] = note("hull.min_norm_point") / max(
            1, stats["hull.min_norm_point"][0])
    if "dynamics.extended_rhs" in stats:
        out["dynamics.extended_rhs.bytes_computed"] = note("dynamics.extended_rhs")
    if "spectral.eigenvalues" in stats:
        out["spectral.matrix_dim"] = note("spectral.eigenvalues") / max(
            1, stats["spectral.eigenvalues"][0])
        if "spectral.linearize" in stats:
            out["spectral.eig_flops_computed"] = flops
    if "simulate.find_equilibrium" in stats:
        accepted = note("simulate.find_equilibrium")
        out["simulate.newton.accepted"] = accepted
        if "simulate.rk4" in stats:
            out["simulate.flow_steps"] = flow_steps
        if "spectral.fd_jacobian" in stats:
            out["simulate.newton.accept_ratio"] = accepted / max(
                1, stats["spectral.fd_jacobian"][0])
    out["trace.self_sum_s"] = sum(s[1] for s in stats.values())
    return out


def prepare(client: Client, wl: Workload, seed: int, config: Path) -> dict:
    """Write the workload's config; return its references and the machine record."""
    rc, _, _, _ = client.run([sys.executable, str(HERE / "inputs.py"), wl.name, str(seed),
                              str(config)])
    if rc != 0:
        raise RuntimeError(f"inputs.py exited {rc}: " + client.stderr()[-500:])
    return json.loads(client.stdout())


def setup_time(client: Client, config: Path) -> float:
    """Main-thread CPU seconds of one fresh set-up process, up to the built system."""
    rc, _, _, _ = client.run([sys.executable, "-c", SETUP_CODE, str(config)])
    if rc != 0:
        raise RuntimeError(f"set-up process exited {rc}: " + client.stderr()[-500:])
    return float(client.stdout())


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    client = Client(work)
    config = work / "config.json"
    prepared = prepare(client, wl, seed, config)
    expected = prepared["expected"]

    # Plain invocations at the workload's worker count; traced ones at one
    # worker, with a plain one-worker baseline for the overhead if needed.
    variants = [wl.workers]
    if trace:
        variants = ["traced", 1] + ([wl.workers] if wl.workers > 1 else [])
    samples = {v: [] for v in variants}
    layers = []
    setup = []
    attempted = failed = 0
    setup_time(client, config)  # warms the file and bytecode caches
    deadline = time.perf_counter() + seconds
    longest = 0.0  # longest loop pass so far; none is started that would end past the deadline
    i = 0
    while i < len(variants) or time.perf_counter() + longest < deadline:
        started = time.perf_counter()
        variant = variants[i % len(variants)]
        prefix = f"out{i}"
        i += 1
        args = cli_args(wl, config, prefix, 1 if variant == "traced" else variant)
        if variant == "traced":
            spans = work / "spans.marshal"
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "lohesphere.cli", *args]
        rc, wall, cpu, rss = client.run(argv)
        a, f = wl.check(expected, str(work / prefix), rc)
        attempted += a
        failed += f
        samples[variant].append((wall, cpu, rss))
        if variant == "traced":
            with open(spans, "rb") as fh:
                layers.append(layer_metrics(marshal.load(fh)))
            layers[-1]["trace.wall_s"] = wall
            spans.unlink()
        for path in work.glob(f"{prefix}_*"):
            path.unlink()
        if not trace:
            # Interleaved so that set-up samples the same machine phases as
            # the invocations do.
            setup.append(setup_time(client, config))
        longest = max(longest, time.perf_counter() - started)

    def med(variant, col):
        return statistics.median(s[col] for s in samples[variant])

    spread = {}
    if not trace:
        timings = {"wall_s": [s[0] for s in samples[wl.workers]],
                   "cpu_s": [s[1] for s in samples[wl.workers]], "setup_s": setup}
        metrics = {k: statistics.fmean(v) for k, v in timings.items()}
        metrics["peak_rss_mb"] = med(wl.workers, 2)
        spread = {k: (len(v), statistics.median(v), max(v)) for k, v in timings.items()}
        units = END_TO_END
    else:
        units = per_layer_units()
        metrics = {k: statistics.median(m[k] for m in layers) for k in units if k in layers[0]}
        metrics["trace.remainder_s"] = statistics.median(
            m["trace.wall_s"] - m["trace.self_sum_s"] for m in layers)
        metrics["trace.overhead_s"] = med("traced", 0) - med(1, 0)
        cells = metrics.get("cli.sweep_point.total_s", 0.0)
        metrics["cli.sweep.parallel_eff"] = cells / (wl.workers * med(wl.workers, 0))
    return {
        "attempted": attempted,
        "failed": failed,
        "invocations": i,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "missing": sorted(set(units) - set(metrics)),
        "spread": spread,
        "machine": prepared["machine"],
    }


def profile(wl: Workload, seed: int, top: int, work: Path) -> None:
    import pstats

    client = Client(work)
    config = work / "config.json"
    prepare(client, wl, seed, config)
    prof = work / "profile.out"
    argv = [sys.executable, "-m", "cProfile", "-o", str(prof), "-m", "lohesphere.cli",
            *cli_args(wl, config, "prof", 1)]
    rc, wall, _, _ = client.run(argv)
    print(f"{wl.name} seed {seed}: one invocation at 1 worker, exit {rc}, {wall:.3f} s wall")
    for key in ("tottime", "cumulative"):
        pstats.Stats(str(prof), stream=sys.stdout).sort_stats(key).print_stats(top)


def report(name: str, res: dict) -> None:
    print(f"{name}: {res['invocations']} invocations, {res['attempted']} attempted, "
          f"{res['failed']} failed")
    for key, m in res["metrics"].items():
        line = f"  {key:42s} {m['value']:.6g} {m['unit']}"
        if key in res["spread"]:
            n, median, top = res["spread"][key]
            line += f"  (mean of {n}; median {median:.6g}, max {top:.6g})"
        print(line)
    print(f"  {'failed_frac':42s} {res['failed'] / max(1, res['attempted']):.6g} fraction")
    if res["missing"]:
        print(f"  missing (hooked function not found): {', '.join(res['missing'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="print a cProfile top-N of one invocation instead")
    args = parser.parse_args()
    if not (ROOT / "src" / "lohesphere" / "cli.py").is_file():
        print(f"no lohesphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.profile:
            for name in names:
                profile(WORKLOADS[name], args.seed, args.profile, work)
            return 0
        results = {}
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), work)
            report(name, results[name])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("machine:", json.dumps(results[names[0]]["machine"]))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
