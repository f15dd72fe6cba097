"""Imports: no module under src/ or tests/ imports a name it never uses, and
the exact commands of the CLI never load numpy.

A name bound by an import statement counts as used when the module reads it
anywhere (alone or as the base of an attribute) or lists it in ``__all__``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "import numpy as np\nfrom a.b import c, d\n__all__ = ['d']\n"
              "np.zeros(sys.maxsize)\n")
    assert unused_imports(source) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []



SAMPLING = ["numpy", "intgeo.montecarlo", "intgeo.bodies"]
EXACT_RUNS = [
    ["so", "kinematic", "--dim", "2"], ["so", "additive", "--dim", "2"],
    ["un", "kinematic", "--dim", "1"], ["un", "additive", "--dim", "1"],
    ["un", "tasaki-matrices", "--dim", "1"],
    ["un", "firstorder", "--dim", "1", "--deg-a", "1", "--deg-b", "1"],
    ["un", "verify", "--dim", "1"],
    ["spaceform", "real", "--dim", "1"], ["spaceform", "complex", "--dim", "1"],
    ["verify", "--max-dim", "1"],
]
MC_RUN = ["mc", "steiner", "--samples", "2", "--seed", "1"]

# Run in one fresh process: print, as one JSON list per line, which of
# SAMPLING are loaded after ``import intgeo.cli`` and after each run of argv.
PROBE = """
import contextlib, io, json, sys
import intgeo.cli
sampling, runs = json.loads(sys.argv[1])
print(json.dumps([m for m in sampling if m in sys.modules]))
for argv in runs:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = intgeo.cli.main(argv)
    print(json.dumps([m for m in sampling if m in sys.modules] if code == 0 else code))
"""


def test_exact_commands_never_load_numpy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([SAMPLING, EXACT_RUNS + [MC_RUN]])],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = [json.loads(line) for line in done.stdout.splitlines()]
    assert loaded == [[]] * (1 + len(EXACT_RUNS)) + [SAMPLING]
