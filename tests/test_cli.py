"""End-to-end tests of the command-line front end."""

import itertools
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from lohesphere import cli
from lohesphere.cli import ConfigError, main, validate_config
from lohesphere.simulate import IntegrationDiverged, integrate
from lohesphere.stability import theorem_rhs


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _base_cfg(**over):
    cfg = {
        "graph": {"type": "path", "N": 5, "k": 1.0},
        "n": 2,
        "seed": 42,
        "integrate": {"dt": 0.01, "t_end": 60.0, "sample_every": 100},
        "out": "run",
    }
    cfg.update(over)
    return cfg


def test_validate_config_fills_defaults():
    cfg = validate_config({"graph": {"type": "cycle", "N": 6}})
    assert cfg.n == 2
    assert cfg.frequencies == {"mode": "zero"}
    assert cfg.init == {"mode": "random"}
    assert cfg.integrate == {"dt": 1e-3, "t_end": 100.0, "sample_every": 100}
    assert cfg.seed == 0
    assert cfg.out == "run"
    assert cfg.sweep is None


def test_missing_graph_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, {"n": 2})
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_negative_dt_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _base_cfg(integrate={"dt": -1}))
    assert main(["simulate", "--config", path]) == 2
    assert "dt" in capsys.readouterr().err


def test_unknown_keys_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for bad in (
        _base_cfg(typo=1),
        _base_cfg(graph={"type": "path", "N": 5, "k": 1.0, "weights": []}),
        _base_cfg(analysis={"linearize": True, "spectra": True}),
        _base_cfg(integrate={"dt": 0.01, "tend": 1.0}),
    ):
        path = _write(tmp_path, bad)
        assert main(["simulate", "--config", path]) == 2
        assert "unknown key" in capsys.readouterr().err


def test_assorted_config_rejections(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rejects = [
        _base_cfg(graph={"type": "moebius", "N": 5}),
        _base_cfg(graph={"type": "path", "N": 5, "k": -2.0}),
        _base_cfg(n=0),
        _base_cfg(seed=-1),
        _base_cfg(frequencies={"mode": "random"}),
        _base_cfg(frequencies={"mode": "random", "total_norm": 1.0, "units": "percent"}),
        _base_cfg(init={"mode": "explicit", "points": [[2.0, 0.0, 0.0]] * 5}),
        _base_cfg(out=""),
    ]
    for bad in rejects:
        path = _write(tmp_path, bad)
        assert main(["simulate", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("flag, value", [
    ("--out", ""), ("--seed", "-1"), ("--seed", str(2**64)),
])
def test_flag_overrides_obey_the_config_rules(tmp_path, capsys, monkeypatch, flag, value):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _base_cfg(integrate={"dt": 0.01, "t_end": 0.1, "sample_every": 1}))
    assert main(["simulate", "--config", path, flag, value]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unreadable_and_malformed_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_non_finite_json_constants_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t_end_inf = json.dumps(_base_cfg()).replace('"t_end": 60.0', '"t_end": Infinity')
    nan_point = json.dumps(
        _base_cfg(init={"mode": "explicit", "points": [[1.0, 0.0, 0.0]] * 5})
    ).replace("[1.0, 0.0, 0.0]]", "[NaN, 0.0, 0.0]]", 1)
    for text in (t_end_inf, nan_point):
        assert "Infinity" in text or "NaN" in text
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "non-finite" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, over",
    [
        ("linearize", {"n": 1, "init": {"mode": "twisted", "q": 1}}),
        ("sweep", {"sweep": {"var": "n", "values": [2, 1]}}),
        ("simulate", {"n": 1, "analysis": {"verify_theorem": True}}),
    ],
)
def test_certificate_on_the_circle_exits_2(tmp_path, capsys, monkeypatch, command, over):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _base_cfg(**over))
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n >= 2" in err
    assert not list(tmp_path.glob("run_*"))


def test_unbounded_step_count_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for integ in ({"dt": 1e-3, "t_end": 1e308}, {"dt": 1e-300, "t_end": 1.0}):
        path = _write(tmp_path, _base_cfg(integrate=integ))
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "t_end / integrate.dt" in err


@pytest.mark.parametrize("raw", [
    {"graph": {"type": "complete", "N": 1415}},  # 1,000,405 edges
    {"graph": {"type": "path", "N": 10**4 + 1}},  # weight matrix
    {"graph": {"type": "cycle", "N": 10}, "n": 3200},  # frequency array
    {"graph": {"type": "cycle", "N": 10}, "sweep": {"var": "N", "values": [10, 20000]}},
    {"graph": {"type": "cycle", "N": 10}, "sweep": {"var": "n", "values": [2, 10**5]}},
    {"graph": {"type": "cycle", "N": 10}, "sweep": {"var": "K", "values": [1.0, 2.0],
                                                    "trials": 500_001}},
], ids=["edges", "weights", "frequencies", "swept-N", "swept-n", "cells"])
def test_oversized_configs_are_rejected(raw):
    with pytest.raises(ConfigError, match="more than"):
        validate_config(raw)


def test_size_limits_are_inclusive(monkeypatch):
    validate_config({"graph": {"type": "complete", "N": 1414}})  # 998,991 edges
    validate_config({"graph": {"type": "path", "N": 10**4}})
    validate_config({"graph": {"type": "cycle", "N": 5},
                     "sweep": {"var": "K", "values": [1.0, 2.0], "trials": 500_000}})
    edges = [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0], [4, 5, 1.0], [1, 5, 1.0]]
    monkeypatch.setattr(cli, "MAX_ITEMS", 5)
    validate_config({"graph": {"type": "edges", "N": 5, "edges": edges}})
    with pytest.raises(ConfigError, match="6 edges"):
        validate_config({"graph": {"type": "edges", "N": 6, "edges": edges + [[5, 6, 1.0]]}})


def test_k_sweep_on_edge_list_is_capped_before_cells_resolve(tmp_path, capsys, monkeypatch):
    edges = [[1, 2, 1.0], [2, 3, 2.0], [1, 3, 0.5]]
    monkeypatch.setattr(cli, "MAX_ITEMS", 6)
    validate_config({"graph": {"type": "edges", "N": 3, "edges": edges},
                     "sweep": {"var": "K", "values": [1.0, 2.0]}})  # 6 scaled edges
    cfg = {"graph": {"type": "edges", "N": 3, "edges": edges},
           "sweep": {"var": "K", "values": [1.0, 2.0, 3.0]}}
    monkeypatch.setattr(cli, "_run_configs", _refuse_call)
    with pytest.raises(ConfigError, match="K sweep scales 9 edges, more than 6"):
        validate_config(cfg)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", _write(tmp_path, cfg)]) == 2
    assert "K sweep scales 9 edges" in capsys.readouterr().err


def _refuse_call(*args):
    raise AssertionError("sweep cells resolved")


def test_importing_the_cli_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, lohesphere.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_oversized_linearization_is_rejected():
    cli._require_certificate([validate_config({"graph": {"type": "cycle", "N": 3333}})])
    with pytest.raises(ConfigError, match="linearization"):
        cli._require_certificate([validate_config({"graph": {"type": "cycle", "N": 3334}})])


@pytest.mark.parametrize("command, graph", [
    ("simulate", {"type": "complete", "N": 10**5, "k": 1.0}),
    ("linearize", {"type": "cycle", "N": 4000, "k": 1.0}),
])
def test_oversized_runs_exit_2_before_building(tmp_path, capsys, monkeypatch, command, graph):
    def refuse(*args):
        raise AssertionError("an oversized config reached _build_all")

    monkeypatch.setattr(cli, "_build_all", refuse)
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _base_cfg(graph=graph, init={"mode": "twisted", "q": 1}))
    assert main([command, "--config", path]) == 2
    assert "more than" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_homogeneous_path_syncs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _base_cfg())
    assert main(["simulate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "final V=" in out
    assert "practically_synced=true" in out
    final = json.loads((tmp_path / "run_final.json").read_text())
    assert final["disagreement"] < 1e-6
    assert final["practically_synced"] is True
    csv_lines = (tmp_path / "run_trajectory.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "t,V,sync_radius,min_edge_angle,max_edge_angle,norm_drift"
    assert len(csv_lines) > 10


def _cap_radius_oracle(x):
    """Least radius of the caps on S^2 that hold every row of x and have two
    rows on a diameter or three on the boundary circle (the cut of the
    plane through them)."""
    caps = [(x[i] + x[j], i) for i, j in itertools.combinations(range(len(x)), 2)]
    for i, j, k in itertools.combinations(range(len(x)), 3):
        n = np.cross(x[j] - x[i], x[k] - x[i])
        caps.append((n if n @ x[i] > 0 else -n, i))
    best = np.inf
    for c, i in caps:
        angles = np.arctan2(np.linalg.norm(np.cross(c, x), axis=1), x @ c)
        if angles.max() <= angles[i] * (1 + 1e-9):
            best = min(best, angles[i])
    return best


def test_simulate_sync_radius_matches_cap_oracle_near_synchrony():
    # at t = 26..28 the agents of the syncing path are within 1e-4 rad of
    # each other, where the Gram matrix of the hull support is nearly all ones
    cfg = validate_config(_base_cfg(integrate={"dt": 0.01, "t_end": 28.0, "sample_every": 100}))
    system, x0 = cli._build_all(cfg, np.random.default_rng(cfg.seed))
    traj = integrate(system, x0, **cfg.integrate)
    for t in (26, 27, 28):
        assert traj.times[t] == pytest.approx(t)
        oracle = _cap_radius_oracle(traj.states[t])
        assert abs(traj.sync_radius[t] - oracle) <= 1e-6 * oracle


def test_simulate_outputs_are_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _base_cfg(integrate={"dt": 0.01, "t_end": 5.0, "sample_every": 100})
    path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", "a"]) == 0
    assert main(["simulate", "--config", path, "--out", "b"]) == 0
    assert (tmp_path / "a_trajectory.csv").read_bytes() == (tmp_path / "b_trajectory.csv").read_bytes()
    assert (tmp_path / "a_final.json").read_bytes() == (tmp_path / "b_final.json").read_bytes()
    # a different seed changes the trajectory
    assert main(["simulate", "--config", path, "--out", "c", "--seed", "7"]) == 0
    assert (tmp_path / "a_trajectory.csv").read_bytes() != (tmp_path / "c_trajectory.csv").read_bytes()


def test_simulate_analysis_sections(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _base_cfg(
        graph={"type": "cycle", "N": 4, "k": 1.0},
        init={"mode": "twisted", "q": 1},
        integrate={"dt": 0.01, "t_end": 0.1, "sample_every": 10},
        analysis={"linearize": True, "verify_theorem": True, "dispersed": True},
    )
    path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 0
    final = json.loads((tmp_path / "run_final.json").read_text())
    assert "linearization" in final
    assert final["theorem"]["premise_holds"] is True
    assert final["dispersed"] is True
    assert final["hull_min_norm"] <= 1e-9


def test_simulate_dispersed_alone_runs_only_the_hull_test(tmp_path, monkeypatch):
    # the hemisphere test needs no certificate: n = 1 is fine, and the
    # certificate is never evaluated
    def refuse(*args, **kwargs):
        raise AssertionError("dispersed alone reached verify_theorem")

    monkeypatch.setattr(cli, "verify_theorem", refuse)
    monkeypatch.chdir(tmp_path)
    for n, points in ((1, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                      (2, [[1.0, 0.0, 0.0]] * 4)):
        cfg = _base_cfg(graph={"type": "cycle", "N": 4, "k": 1.0}, n=n,
                        init={"mode": "explicit", "points": points},
                        integrate={"dt": 0.01, "t_end": 0.01, "sample_every": 1},
                        analysis={"dispersed": True})
        assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 0
        final = json.loads((tmp_path / "run_final.json").read_text())
        assert final["dispersed"] is (n == 1)
        assert (final["hull_min_norm"] <= 1e-9) is (n == 1)
        assert "theorem" not in final and "linearization" not in final


def test_simulate_divergence_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    big = 1e160
    cfg = {
        "graph": {"type": "path", "N": 2, "k": 1.0},
        "n": 1,
        "frequencies": {
            "mode": "explicit",
            "matrices": [[[0.0, big], [-big, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        },
        "init": {"mode": "explicit", "points": [[1.0, 0.0], [0.0, 1.0]]},
        "integrate": {"dt": big, "t_end": 2 * big, "sample_every": 1},
        "seed": 0,
    }
    path = _write(tmp_path, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", path]) == 3
    assert "diverged" in capsys.readouterr().err


def test_collapsed_stage_norm_exits_3(tmp_path, capsys, monkeypatch):
    # One step of length dt from the points (1, 0) and (cos a, sin a),
    # a = 1.3626600819983512: the input of RK4 stage 4 has a row norm
    # below 1e-8, where the ambient extension of the field is undefined.
    monkeypatch.chdir(tmp_path)
    w = 0.6734296154702647
    dt = 2.4121854658376325
    cfg = {
        "graph": {"type": "path", "N": 2, "k": 1.0},
        "n": 1,
        "frequencies": {
            "mode": "explicit",
            "matrices": [[[0.0, -w], [w, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        },
        "init": {"mode": "explicit",
                 "points": [[1.0, 0.0], [0.20663672864359825, 0.9784177340867611]]},
        "integrate": {"dt": dt, "t_end": dt, "sample_every": 1},
        "seed": 0,
    }
    path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 3
    assert "agent norm collapsed" in capsys.readouterr().err


@pytest.mark.parametrize("over", [
    {"frequencies": {"mode": "explicit", "matrices": [[["a"]]]}},
    {"frequencies": {"mode": "explicit",
                     "matrices": [[[0.0, True, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]] * 5}},
    {"init": {"mode": "explicit", "points": [[1.0, 0.0, "0"]] * 5}},
    {"init": {"mode": "explicit", "points": [[1.0, 0.0, 0.0]] * 4 + [[1.0, 0.0]]}},
    {"graph": {"type": "edges", "N": 3, "edges": [[1, 2.5, 1], [2, 3, 1]]}},
    {"graph": {"type": "edges", "N": 3, "edges": [[1, 2, "1"], [2, 3, 1]]}},
], ids=["matrix-string", "matrix-bool", "points-string", "points-ragged",
        "edge-fractional-node", "edge-string-gain"])
def test_malformed_arrays_exit_2(tmp_path, capsys, monkeypatch, over):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _base_cfg(**over))
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "run_trajectory.csv").exists()


def test_linearize_twisted_cycle_homogeneous(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 6, "k": 1.0},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "seed": 1,
    }
    path = _write(tmp_path, cfg)
    assert main(["linearize", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "beta=" in out and "conclusion_holds=true" in out
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["beta"] > 0
    assert report["conclusion_holds"] is True
    assert report["converged"] is True
    assert report["newton_iterations"] == 0
    assert report["residual"] <= 1e-12
    assert report["violated_links"] == []


def test_readme_linearize_example(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 6, "k": 1.0},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "seed": 7,
        "out": "twisted6",
    }
    assert main(["linearize", "--config", _write(tmp_path, cfg, "twisted6.json")]) == 0
    assert capsys.readouterr().out == (
        "beta=1 alpha_re=1 omega_norm=0\n"
        "theorem_rhs=0.005983064144 premise_holds=true conclusion_holds=true "
        "dispersed=true converged=true\n")
    assert (tmp_path / "twisted6_report.json").exists()

    # random drift at 90% of the bound: the certificate holds, but the
    # refinement finds no exact equilibrium near the fixture
    cfg["frequencies"] = {"mode": "random", "total_norm": 0.9, "units": "theorem_rhs"}
    cfg["out"] = "drift"
    assert main(["linearize", "--config", _write(tmp_path, cfg, "drift.json")]) == 4
    assert "premise_holds=true conclusion_holds=true" in capsys.readouterr().out
    report = json.loads((tmp_path / "drift_report.json").read_text())
    assert report["converged"] is False


def test_linearize_phase_synced_has_zero_beta(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    e1 = [1.0, 0.0, 0.0]
    cfg = {
        "graph": {"type": "path", "N": 4, "k": 1.0},
        "n": 2,
        "init": {"mode": "explicit", "points": [e1, e1, e1, e1]},
        "seed": 3,
    }
    path = _write(tmp_path, cfg)
    assert main(["linearize", "--config", path]) == 0
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert abs(report["beta"]) <= 1e-10
    assert report["conclusion_holds"] is False
    assert report["dispersed"] is False


def test_linearize_frequencies_inside_budget(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 6, "k": 1.0},
        "n": 2,
        "frequencies": {"mode": "random", "total_norm": 0.5, "units": "theorem_rhs"},
        "init": {"mode": "twisted", "q": 1},
        "seed": 11,
    }
    path = _write(tmp_path, cfg)
    code = main(["linearize", "--config", path])
    assert code in (0, 4)
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["premise_holds"] is True
    assert report["conclusion_holds"] is True
    assert report["omega_norm"] == pytest.approx(0.5 * theorem_rhs(1.0, 2, 6), rel=1e-9)
    # exit 4 must coincide with converged=false in the report
    assert report["converged"] is (code == 0)


def test_linearize_theorem_factor_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 6, "k": 1.0},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "seed": 1,
    }
    path = _write(tmp_path, cfg)
    assert main(["linearize", "--config", path, "--out", "f1"]) == 0
    assert main(["linearize", "--config", path, "--out", "f2", "--theorem-factor", "2"]) == 0
    r1 = json.loads((tmp_path / "f1_report.json").read_text())
    r2 = json.loads((tmp_path / "f2_report.json").read_text())
    assert r1["factor"] == 1 and r2["factor"] == 2
    assert r2["theorem_rhs"] == pytest.approx(2 * r1["theorem_rhs"], rel=1e-12)


def test_sweep_over_frequency_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 6, "k": 1.0},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "seed": 5,
        "sweep": {
            "var": "omega_total",
            "values": [0.1, 0.5, 0.9, 1.5, 2.0],
            "trials": 2,
            "units": "theorem_rhs",
        },
    }
    path = _write(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    assert "wrote 10 rows" in capsys.readouterr().out
    lines = (tmp_path / "run_sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "value,seed,beta,alpha_re,premise_holds,conclusion_holds,dispersed"
    assert len(lines) == 11
    for ln in lines[1:]:
        value, seed, beta, alpha, prem, concl, disp = ln.split(",")
        assert disp == "true"
        if prem == "true":
            assert float(alpha) > 0
            assert concl == "true"
    # values below the budget must satisfy the premise
    prems = [ln.split(",")[4] for ln in lines[1:]]
    assert prems[:6] == ["true"] * 6


def test_sweep_deterministic_across_workers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 5, "k": 1.0},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "seed": 9,
        "sweep": {
            "var": "omega_total",
            "values": [0.2, 0.8],
            "trials": 3,
            "units": "theorem_rhs",
        },
    }
    path = _write(tmp_path, cfg)
    assert main(["sweep", "--config", path, "--out", "w1"]) == 0
    assert main(["sweep", "--config", path, "--out", "w2", "--workers", "2"]) == 0
    assert (tmp_path / "w1_sweep.csv").read_bytes() == (tmp_path / "w2_sweep.csv").read_bytes()


def test_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # a fake pool records max_workers and runs the cells in process, so a
    # large --workers starts no process at all
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 5, "k": 1.0},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "seed": 9,
        "sweep": {"var": "omega_total", "values": [0.2, 0.8], "trials": 2,
                  "units": "theorem_rhs"},
    }
    path = _write(tmp_path, cfg)
    assert main(["sweep", "--config", path, "--out", "w1"]) == 0
    assert main(["sweep", "--config", path, "--out", "wk", "--workers", "100000"]) == 0
    assert seen == [4]
    assert (tmp_path / "w1_sweep.csv").read_bytes() == (tmp_path / "wk_sweep.csv").read_bytes()
    cfg["sweep"]["values"], cfg["sweep"]["trials"] = [0.2], 1
    path = _write(tmp_path, cfg)
    assert main(["sweep", "--config", path, "--out", "w1c", "--workers", "8"]) == 0
    assert seen == [4]  # one cell runs in process


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched find_equilibrium reaches the workers only by fork")
def test_sweep_divergence_exits_3_at_every_worker_count(tmp_path, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise IntegrationDiverged(1.5, "agent norm collapsed")

    monkeypatch.setattr(cli, "find_equilibrium", diverge)
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 5, "k": 1.0},
        "init": {"mode": "twisted", "q": 1},
        "sweep": {"var": "K", "values": [1.0, 2.0], "equilibrate": True},
    }
    path = _write(tmp_path, cfg)
    errs = []
    for workers in ("1", "2"):
        assert main(["sweep", "--config", path, "--workers", workers]) == 3
        errs.append(capsys.readouterr().err)
    assert errs == ["error: integration diverged at t=1.5: agent norm collapsed\n"] * 2


def test_sweep_over_agent_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 4, "k": 1.0},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "seed": 2,
        "sweep": {"var": "N", "values": [4, 6, 8], "trials": 1},
    }
    path = _write(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    lines = (tmp_path / "run_sweep.csv").read_text().strip().split("\n")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["4", "6", "8"]
    # homogeneous twisted states stay unstable at every size
    assert all(float(ln.split(",")[2]) > 0 for ln in lines[1:])


def _sweep_rows(path):
    return [row.split(",") for row in path.read_text().strip().split("\n")[1:]]


def test_sweep_over_gain_scales_an_edge_list(tmp_path, monkeypatch):
    # beta is linear in the gains, and the sweep scales the smallest gain to K
    monkeypatch.chdir(tmp_path)
    edges = [[1, 2, 1.0], [2, 3, 2.0], [3, 4, 1.5], [4, 5, 1.0], [1, 5, 3.0]]
    cfg = {
        "graph": {"type": "edges", "N": 5, "edges": edges},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "sweep": {"var": "K", "values": [0.5, 2.0], "trials": 1},
    }
    assert main(["sweep", "--config", _write(tmp_path, cfg)]) == 0
    betas = [float(row[2]) for row in _sweep_rows(tmp_path / "run_sweep.csv")]
    assert betas[0] > 0
    assert betas[1] / betas[0] == pytest.approx(4.0, rel=1e-12)


def test_sweep_over_sphere_dimension(tmp_path, monkeypatch):
    # the twisted 6-ring has beta = 2 (1 - cos(pi / 3)) = 1 on every sphere
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 6, "k": 1.0},
        "init": {"mode": "twisted", "q": 1},
        "sweep": {"var": "n", "values": [2, 3, 4], "trials": 1},
    }
    assert main(["sweep", "--config", _write(tmp_path, cfg)]) == 0
    rows = _sweep_rows(tmp_path / "run_sweep.csv")
    assert [row[0] for row in rows] == ["2", "3", "4"]
    for row in rows:
        assert float(row[2]) == pytest.approx(1.0, rel=1e-12)


def test_sweep_over_agent_count_on_edge_list_exits_2_before_any_cell(tmp_path, capsys,
                                                                     monkeypatch):
    pools, built = [], []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: pools.append(max_workers))
    monkeypatch.setattr(cli, "_build_all", lambda *args: built.append(args))
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "edges", "N": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]]},
        "init": {"mode": "twisted", "q": 1},
        "sweep": {"var": "N", "values": [3, 4], "trials": 1},
    }
    for command in ("sweep", "simulate", "linearize"):
        assert main([command, "--config", _write(tmp_path, cfg), "--workers", "2"]) == 2
        assert "generated graph type" in capsys.readouterr().err
    assert pools == [] and built == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_sweep_names_unconverged_cells_on_stderr(tmp_path, capsys, monkeypatch):
    # Drift this far above the coupling leaves no equilibrium to find, so
    # both cells of this equilibrated sweep stop short (residual about 13).
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 6, "k": 1.0},
        "n": 3,
        "init": {"mode": "twisted", "q": 1},
        "frequencies": {"mode": "random", "total_norm": 60.0, "units": "absolute"},
        "sweep": {"var": "omega_total", "values": [60.0, 80.0], "trials": 1,
                  "units": "absolute", "equilibrate": True},
        "seed": 7,
    }
    path = _write(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    err = capsys.readouterr().err.strip().split("\n")
    rows = (tmp_path / "run_sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "value,seed,beta,alpha_re,premise_holds,conclusion_holds,dispersed"
    assert len(err) == len(rows) - 1 == 2
    for line, row in zip(err, rows[1:]):
        value, seed = row.split(",")[:2]
        assert line.startswith(f"warning: sweep cell value={value} seed={seed} ")
        assert float(line.split("(residual ")[1].split(")")[0]) > 1e-10

    cfg["sweep"]["equilibrate"] = False
    path = _write(tmp_path, cfg, "exact.json")
    assert main(["sweep", "--config", path, "--out", "exact"]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_equilibrates_twisted_ring_under_drift(tmp_path, capsys, monkeypatch):
    # Both cells have an equilibrium near the start, so the re-polish
    # converges and nothing is named on stderr.
    monkeypatch.chdir(tmp_path)
    cfg = {
        "graph": {"type": "cycle", "N": 12, "k": 1.0},
        "n": 2,
        "init": {"mode": "twisted", "q": 1},
        "frequencies": {"mode": "random", "total_norm": 0.3652, "units": "theorem_rhs"},
        "sweep": {"var": "omega_total", "values": [0.3652, 1.5454], "trials": 1,
                  "units": "theorem_rhs", "equilibrate": True},
        "seed": 7,
    }
    path = _write(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "run_sweep.csv").read_text().strip().split("\n")
    assert [row.split(",")[4:] for row in rows[1:]] == [
        ["true", "false", "false"], ["false", "false", "false"]]


def test_sweep_empty_values_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _base_cfg(sweep={"var": "K", "values": [], "trials": 1})
    path = _write(tmp_path, cfg)
    assert main(["sweep", "--config", path]) == 2
    assert "values" in capsys.readouterr().err


def test_sweep_without_section_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, _base_cfg())
    assert main(["sweep", "--config", path]) == 2
    assert "sweep" in capsys.readouterr().err


def test_fixtures_lists_twisted(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "twisted:N=" in out
    assert '"init": {"mode": "twisted", "q": <int>}' in out


def test_console_entry_point_installed(tmp_path):
    exe = shutil.which("lohesphere")
    assert exe is not None
    proc = subprocess.run([exe, "fixtures"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "twisted" in proc.stdout


def test_config_error_type_is_value_error():
    with pytest.raises(ConfigError):
        validate_config({"graph": {"type": "path", "N": 5}, "sweep": {"var": "bad", "values": [1]}})
    assert issubclass(ConfigError, ValueError)
