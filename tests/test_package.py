"""The package namespace: names load their submodules on first use."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lohesphere

SRC = Path(lohesphere.__file__).parent.parent
README = SRC.parent / "README.md"


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_a_bare_import_loads_no_numpy():
    assert _run("import sys, lohesphere; print('numpy' in sys.modules)") == "False"


def test_every_exported_name_is_its_module_attribute():
    for name, module in lohesphere._EXPORTS.items():
        assert getattr(lohesphere, name) is getattr(
            importlib.import_module(f"lohesphere.{module}"), name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lohesphere.no_such_name


def test_submodules_import_by_name():
    assert _run("from lohesphere import cli, hull; print(cli.__name__, hull.__name__)") == (
        "lohesphere.cli lohesphere.hull")


def test_star_import_yields_every_exported_name():
    namespace = {}
    exec("from lohesphere import *", namespace)
    for name in lohesphere._EXPORTS:
        assert namespace[name] is getattr(lohesphere, name), name


def test_readme_library_example(capsys):
    # the first fenced block under "## Library", run as written
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(block, {})
    beta_line, disagreement_line = capsys.readouterr().out.splitlines()
    beta, _, conclusion = beta_line.split()
    assert float(beta) > 0 and conclusion == "True"
    start, end = map(float, disagreement_line.split())
    assert end < 1e-6 * start


def test_every_benchmark_trace_hook_resolves():
    # perfbench/trace_cli.py wraps functions by module and name after importing the CLI;
    # a hook that no longer resolves drops its metrics from every traced benchmark run
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent / 'perfbench')!r}); "
            "import trace_cli; rec = trace_cli.Recorder(); trace_cli.install(rec); "
            "print(sorted({h[0] for h in trace_cli.HOOKS} - set(rec.names)))")
    assert _run(code) == "[]"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((SRC / "lohesphere").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names if a.name != "*"]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []


def _package_trees():
    """(path, syntax tree) of every module of the package, and every name the package reads."""
    paths = sorted((SRC / "lohesphere").glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in paths]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return list(zip(paths, trees)), used


def test_every_private_top_level_name_is_used_in_the_package():
    # a top-level _name that no module of the package reads is dead code
    modules, used = _package_trees()
    unused = []
    for path, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in used]
    assert unused == []


def test_every_public_top_level_function_or_class_is_exported_read_or_hooked():
    # a public function or class that the package neither exports nor reads, and that no
    # benchmark trace hook names, runs in no command: a test-only oracle belongs in tests/
    modules, used = _package_trees()
    trace = ast.parse((SRC.parent / "perfbench" / "trace_cli.py").read_text())
    hooks = next(ast.literal_eval(node.value) for node in trace.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["HOOKS"])
    hooked = {(module, attr.split(".")[0]) for _, module, attr in hooks}
    exported = {(module, name) for name, module in lohesphere._EXPORTS.items()}
    orphans = []
    for path, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                key = (path.stem, node.name)
                if key not in exported and key not in hooked and node.name not in used:
                    orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert orphans == []
