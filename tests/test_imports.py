"""Module boundaries of the package: no module imports a sibling module's
private (underscore-prefixed) name, and the package exports each name of
``cohsets.__all__`` once. Importing the ``_accel`` module, or its public
names, is allowed. scipy is imported on first use only, so the paper's
examples run without it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohsets

PACKAGE = Path(cohsets.__file__).parent


def private_imports(path: Path) -> list[str]:
    """``file:line name`` for each private name ``path`` imports from a sibling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        # ``from .x import ...`` or ``from cohsets.x import ...``; ``from . import x``
        # imports the module x itself.
        sibling = node.module is not None and (
            node.level > 0 or node.module.startswith("cohsets.")
        )
        if sibling:
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_a_siblings_private_name():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in private_imports(path)]
    assert found == []


def test_every_exported_name_resolves_once():
    assert len(cohsets.__all__) == len(set(cohsets.__all__))
    assert [name for name in cohsets.__all__ if not hasattr(cohsets, name)] == []


def load_time_imports(path: Path) -> list[str]:
    """``file:line module`` for each module ``path`` imports when it is
    itself imported: every import outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(f"{path.name}:{child.lineno} {alias.name}" for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(f"{path.name}:{child.lineno} {child.module}")
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return found


def test_no_module_imports_scipy_at_load_time():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in load_time_imports(path)]
    assert [line for line in found if line.split()[1].split(".")[0] == "scipy"] == []


# Run in a fresh interpreter: prints the exit code, whether scipy was loaded,
# and the report's count storage when there is a report.
_PROBE = """
import json, os, sys
from cohsets.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
report = json.load(open("report.json")) if os.path.exists("report.json") else {}
print(json.dumps([code, "scipy" in sys.modules,
                  report.get("diagnostics", {}).get("count_storage")]))
"""
_GYRE = ["compare", "--example", "double-gyre", "--t1", "0.5", "--points-per-box", "2",
         "--runs", "2", "--no-images"]


def _probe(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1]), result.stderr


@pytest.mark.parametrize("argv", [
    [],
    ["compare", "--example", "three-coherent", "--epsilon", "3", "--runs", "5"],
    ["bounds", "--example", "interval-map", "--out", "bounds.json"],
    ["render", "--example", "three-coherent", "--out", "p.ppm"],
    ["generate", "--example", "interval-map", "--out", "pairs.csv"],
], ids=["import", "compare", "bounds", "render", "generate"])
def test_paper_examples_leave_out_scipy(tmp_path, argv):
    (code, loaded, _), stderr = _probe(tmp_path, argv)
    assert (code, loaded, stderr) == (0, False, "")


def test_sparse_storage_loads_scipy_and_logs_its_load_time(tmp_path):
    """The first sparse request imports scipy; only --verbose shows the cost."""
    (code, loaded, storage), stderr = _probe(tmp_path, _GYRE)
    assert (code, loaded, storage, stderr) == (0, True, "sparse", "")
    (code, loaded, _), stderr = _probe(tmp_path, ["--verbose", *_GYRE])
    assert (code, loaded) == (0, True)
    lines = [line for line in stderr.splitlines() if "loaded scipy" in line]
    assert len(lines) == 1
    assert lines[0].startswith("DEBUG cohsets.model: loaded scipy.sparse")
    assert float(lines[0].split(" in ")[-1].removesuffix(" s")) > 0.0
