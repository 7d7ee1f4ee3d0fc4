"""Property test of the command line's exit-code contract over generated configs."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lohesphere.cli import main


_MALFORMED = st.sampled_from([None, "x", -1, 0, 2.5, True, [], {}])
_FIELDS = ["graph.type", "graph.N", "graph.k", "n", "total_norm", "units", "q", "dt", "t_end",
           "sample_every", "analysis", "seed", "sweep.var", "sweep.value", "trials"]


@st.composite
def _small_configs(draw):
    """Command-line flags and a small config; about half of them have one malformed value."""
    command = draw(st.sampled_from(["simulate", "linearize", "sweep"]))
    flags = [command]
    if command == "sweep":
        flags += ["--workers", draw(st.sampled_from(["1", "2"]))]
    flags += draw(st.sampled_from([[]] * 4 + [["--out", ""], ["--seed", "-1"],
                                              ["--seed", str(2**64)], ["--seed", "3"]]))
    broken = draw(st.sampled_from([None] * len(_FIELDS) + _FIELDS))

    def pick(field, good):
        return draw(_MALFORMED if field == broken else good)

    N, n = pick("graph.N", st.integers(3, 6)), pick("n", st.integers(1, 3))
    count, dim = (3 if broken == "graph.N" else N), (3 if broken == "n" else n + 1)
    graph = {"type": pick("graph.type", st.sampled_from(["path", "cycle", "complete", "edges"])),
             "N": N}
    if graph["type"] == "edges":
        pairs = [(i, i + 1) for i in range(1, count)] + [(1, count)] * draw(st.booleans())
        graph["edges"] = [[i, j, pick("graph.k", st.floats(0.1, 3))] for i, j in pairs]
    else:
        graph["k"] = pick("graph.k", st.floats(0.1, 3))

    square = st.lists(st.floats(-1, 1), min_size=dim * dim, max_size=dim * dim).map(
        lambda v: np.reshape(v, (dim, dim)))
    skew = square.map(lambda a: (a - a.T).tolist())
    unit = st.sampled_from(np.eye(dim).tolist())
    cfg = {
        "graph": graph,
        "n": n,
        "frequencies": draw(st.sampled_from(["zero", "random", "explicit"])),
        "init": draw(st.sampled_from(["random", "twisted", "explicit"])),
        "integrate": {"dt": pick("dt", st.floats(0.01, 0.25)),
                      "t_end": pick("t_end", st.floats(0.01, 0.5)),
                      "sample_every": pick("sample_every", st.integers(1, 10))},
        "analysis": draw(st.fixed_dictionaries({}, optional={
            key: st.booleans() for key in ("linearize", "verify_theorem", "dispersed")})),
        "seed": pick("seed", st.integers(0, 2**64 - 1)),
    }
    if broken == "analysis":
        cfg["analysis"]["dispersed"] = draw(_MALFORMED)
    cfg["frequencies"] = {
        "zero": {"mode": "zero"},
        "random": {"mode": "random", "total_norm": pick("total_norm", st.floats(0, 3)),
                   "units": pick("units", st.sampled_from(["absolute", "theorem_rhs"]))},
        "explicit": {"mode": "explicit", "matrices": [draw(skew) for _ in range(count)]},
    }[cfg["frequencies"]]
    cfg["init"] = {
        "random": {"mode": "random"},
        "twisted": {"mode": "twisted", "q": pick("q", st.integers(1, 3))},
        "explicit": {"mode": "explicit", "points": [draw(unit) for _ in range(count)]},
    }[cfg["init"]]
    if command == "sweep" or draw(st.booleans()):
        var = pick("sweep.var", st.sampled_from(["omega_total", "K", "N", "n"]))
        value = {"N": st.integers(3, 6), "n": st.integers(2, 3)}.get(str(var), st.floats(0.1, 3))
        values = draw(st.lists(value, min_size=1, max_size=3))
        if broken == "sweep.value":
            values.append(draw(_MALFORMED))
        units = ["absolute", "theorem_rhs"] if var == "omega_total" else ["absolute"]
        cfg["sweep"] = {"var": var, "values": values, "trials": pick("trials", st.integers(1, 2)),
                        "units": draw(st.sampled_from(units)), "equilibrate": False}
    if command == "linearize" and cfg["init"]["mode"] == "random":
        # a random start runs the full equilibrium flow, about 2 s per example
        cfg["init"] = {"mode": "twisted", "q": 1}
    return flags, cfg


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_small_configs())
def test_every_config_ends_in_a_documented_exit_code(case):
    flags, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg["out"] = os.path.join(tmp, "run")
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*flags, "--config", path])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
