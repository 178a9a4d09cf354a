"""The production core loads no reference route.

``complexes`` and ``linalg`` (the hypercohomology of the two resolutions)
and ``verify`` (the checker) are the independent second route to the
closed forms; production must not depend on them, or the route stops being
independent.  No production module imports ``characters`` either; it loads
only with the package root, which re-exports ``character_cohom``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PRODUCTION = ("scroll", "cohomology", "sheaves", "windows", "regularity", "splitting", "sweep")
REFERENCE = ("complexes", "linalg", "verify")


def _imports(module) -> tuple[set[str], set[str]]:
    """Last components of the modules a module imports, and of the names it
    imports from them (``from . import linalg``): (top level, inside
    functions)."""
    tree = ast.parse(inspect.getsource(module))

    def names(nodes):
        out = set()
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out |= {alias.name.split(".")[-1] for alias in node.names}
            if isinstance(node, ast.ImportFrom) and node.module:
                out.add(node.module.split(".")[-1])
        return out

    top = names(tree.body)
    return top, names(ast.walk(tree)) - top


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_module_imports_no_reference_route(name):
    top, nested = _imports(importlib.import_module(f"scrollcohom.{name}"))
    assert not (top | nested) & set(REFERENCE)
    assert "characters" not in top | nested


def test_cli_imports_verify_only_inside_a_function():
    top, nested = _imports(importlib.import_module("scrollcohom.cli"))
    assert not top & set(REFERENCE)
    assert nested & set(REFERENCE) == {"verify"}


def test_cli_subcommands_leave_the_reference_route_unloaded(tmp_path):
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import scrollcohom
        from scrollcohom import cli
        from scrollcohom.splitting import THEOREM_IDS

        X = '{"m":1,"n":2,"a":[1,1,2]}'
        SPLIT = '{"split":[[0,0],[1,-1]]}'
        OMEGA = '{"omega":{"i":1,"twist":[2,-2]}}'
        runs = [["cohom", "--scroll", X, "--sheaf", OMEGA, "--twist=-1,1"],
                ["table", "--scroll", X, "--sheaf", SPLIT, "--pbox=-2:1", "--qbox=-1:1"],
                ["reg", "--scroll", X, "--sheaf", OMEGA],
                ["pqreg", "--scroll", X, "--sheaf", SPLIT, "--at", "1,0"],
                ["msreg", "--scroll", X, "--sheaf", OMEGA, "--at", "1,1"],
                ["compare", "--scroll", X, "--sheaf", SPLIT, "--pbox=-1:1", "--qbox=-1:1"]]
        runs += [["split", "--scroll", X, "--sheaf", sheaf, "--theorem", th]
                 for th in THEOREM_IDS for sheaf in (SPLIT, OMEGA)]
        runs.append(["sweep", "--family", '{"m":[1],"n":[1],"a_min":1,"a_max":2}',
                     "--ops", "reg,compare", "--pbox=-1:1", "--qbox=-1:1", "--out", sys.argv[1]])
        codes = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        loaded = sorted(m for m in sys.modules if m.split(".")[-1] in ("complexes", "linalg", "verify"))
        print(json.dumps({"codes": codes, "loaded": loaded}))
    """)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sweep")], cwd=tmp_path,
                          env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 19  # 6 subcommands, 6 theorems x 2 sheaves, sweep
    assert result["loaded"] == []
