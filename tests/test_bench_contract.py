"""The names the benchmark in bench/ depends on.

bench/workloads.py imports library functions by name, and bench/tracer.py
wraps the entry points listed in its TRACED table as attributes of their
modules; a traced name that is missing makes that layer's metrics null.
These tests keep the library's side of that contract, and run one traced
round of every workload as bench/run.py would.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("split-catalog", "omega-engine", "line-highdeg", "cli-session")


def _module_literal(path: Path, name: str):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {path}")


def test_workload_imports_resolve():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.startswith("scrollcohom") for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_traced_entry_points_exist():
    for module, names in _module_literal(BENCH / "tracer.py", "TRACED").items():
        mod = importlib.import_module(f"scrollcohom.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"scrollcohom.{module}.{name}"
    for module, name in _module_literal(BENCH / "tracer.py", "CACHES"):
        fn = getattr(importlib.import_module(f"scrollcohom.{module}"), name, None)
        assert hasattr(fn, "cache_info"), f"scrollcohom.{module}.{name}"
    complexes = importlib.import_module("scrollcohom.complexes")
    assert complexes.omega_cohom is importlib.import_module("scrollcohom.cohomology").omega_cohom
    assert callable(complexes._contributing_keys) and callable(complexes._profile_dims)
    assert isinstance(complexes._PROFILE_CACHE, dict)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_round(workload, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "SCROLLCOHOM_CACHE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "1",
                           "--round", "0", "--trace", "1", "--store", str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("ready ")
    result = json.loads(lines[-1])
    assert result["failed"] == 0, result["failures"]
    assert result["layers"]
    assert [name for name, (value, _) in result["layers"].items() if value is None] == []
