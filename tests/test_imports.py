"""Imports and definitions: no module under src/ or tests/ imports a name it
never uses, every module-level definition under src/ has a reader, and the
exact commands of the CLI never load numpy.

A name bound by an import statement counts as used when the module reads it
anywhere (alone or as the base of an attribute) or lists it in ``__all__``.
A module-level def, class or assignment under src/, and a method of a class
there, counts as read when a module under src/, tests/ or perfbench/ names
it outside that definition: as a loaded name or attribute, or in a string (a
lookup by name); stores, imports and ``__all__`` do not count.  Dunder names
and the console-script entry points of ``pyproject.toml`` are exempt.
"""

import ast
import json
import os
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src").rglob("*.py"))
FILES = SRC + sorted((ROOT / "tests").rglob("*.py"))
READERS = FILES + sorted((ROOT / "perfbench").rglob("*.py"))


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


def _is_all(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _defined(stmt):
    """Names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and not _is_all(stmt):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _reads(node):
    """How often a node reads each name: loaded names, attributes, and the
    dotted parts of string constants."""
    out = Counter()
    if _is_all(node):
        return out
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def _definitions(tree):
    """(name, node) of each module-level definition, and ("Class.method",
    node) of each method of every class in the module."""
    for stmt in tree.body:
        for name in _defined(stmt):
            yield name, stmt
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{cls.name}.{stmt.name}", stmt


def unread_definitions(defining, reading, exempt=()):
    """(module, name) of each module-level definition and each method in the
    ``defining`` sources ({module: source}) that no module of ``defining`` or
    ``reading`` reads outside the definition itself."""
    trees = {label: ast.parse(source)
             for sources in (defining, reading) for label, source in sources.items()}
    reads = Counter()
    for tree in trees.values():
        for stmt in tree.body:
            reads.update(_reads(stmt))
    unread = []
    for label in defining:
        for name, node in _definitions(trees[label]):
            short = name.rpartition(".")[2]
            if (not (short.startswith("__") and short.endswith("__"))
                    and (label, name) not in exempt
                    and reads[short] == _reads(node)[short]):
                unread.append((label, name))
    return sorted(unread)


def test_checker_sees_unread_definitions():
    lib = ("import math\n__all__ = ['dead']\nX, Y = 1, 2\n__version__ = '1'\n"
           "def dead():\n    return dead()\n"
           "def used():\n    return X\n"
           "class Kept:\n"
           "    def __init__(self):\n        pass\n"
           "    def orphan(self):\n        return self.orphan()\n"
           "    def called(self):\n        return 1\n"
           "    def named(self):\n        return self.called()\n"
           "    def assigned(self):\n        return 2\n"
           "def main():\n    pass\n")
    user = ("from lib import dead, used\nused()\ngetattr(lib, 'lib.Kept.named')\n"
            "lib.Kept().assigned = None\n")
    assert unread_definitions({"lib": lib}, {"user": user}, {("lib", "main")}) \
        == [("lib", "Kept.assigned"), ("lib", "Kept.orphan"), ("lib", "Y"), ("lib", "dead")]


def test_every_src_definition_is_read():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    exempt = {tuple(target.split(":")) for target in scripts.values()}
    defining = {".".join(p.relative_to(ROOT / "src").with_suffix("").parts):
                p.read_text() for p in SRC}
    reading = {str(p): p.read_text() for p in READERS if p not in SRC}
    assert unread_definitions(defining, reading, exempt) == []



SAMPLING = ["numpy", "intgeo.montecarlo", "intgeo.bodies", "concurrent.futures"]
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
    # MC_RUN draws one chunk, which runs inline with no thread pool
    assert loaded == [[]] * (1 + len(EXACT_RUNS)) + [SAMPLING[:-1]]
