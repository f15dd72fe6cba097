"""Every flag of every command is read.

Each case names a base run (a command and table at a tiny size), the flag it
adds with a value other than the default -- zero, negative and edge values
included -- and what must happen: CHANGES (the run succeeds or fails its
checks, and its stdout differs from the base run's) or exit 2 (a usage
error, raised before any table is built or any sample is drawn).  NAMED is
exit 2 with an ``error:`` line that names the added flag: a run the program
would otherwise start and abandon, or serve with a meaningless z.  Every
option a command declares has at least one row.
"""

import contextlib
import io
import json
from functools import lru_cache

import pytest

from intgeo import cli

CHANGES = "changes"
NAMED = "named"

SO_KIN = ("so", "kinematic", "--dim", "2")
SO_ADD = ("so", "additive", "--dim", "2")
UN_KIN = ("un", "kinematic", "--dim", "2")
UN_ADD = ("un", "additive", "--dim", "2")
UN_TASAKI = ("un", "tasaki-matrices", "--dim", "2")
UN_FIRST = ("un", "firstorder", "--dim", "2", "--deg-a", "2", "--deg-b", "2")
UN_VERIFY = ("un", "verify", "--dim", "2")
SF_REAL = ("spaceform", "real", "--dim", "2")
SF_COMPLEX = ("spaceform", "complex", "--dim", "2")
SF_CONJECTURE = ("spaceform", "complex", "--dim", "2", "--check", "conjecture")
MC_KIN = ("mc", "kinematic", "--samples", "200", "--seed", "1")
MC_ADD = ("mc", "additive", "--samples", "200", "--seed", "1")
MC_CROFTON = ("mc", "crofton", "--dim", "3", "--samples", "200", "--seed", "1")
MC_CROFTON_2D = ("mc", "crofton", "--samples", "200", "--seed", "1")
MC_STEINER = ("mc", "steiner", "--samples", "200", "--seed", "1")
MC_CAUCHY = ("mc", "cauchy", "--samples", "200", "--seed", "1")
MC_SUITE = ("mc", "suite", "--samples", "200", "--seed", "1")
VERIFY = ("verify",)
VERIFY_MC = ("verify", "--max-dim", "1", "--mc-samples", "200")

BODIES = "BODIES"   # stands for a file of two boxes written by the test
BOX = "BOX"         # stands for a file of one box written by the test
ABC = "ABC"         # stands for a file of three boxes named A, B and C
AZ = "AZ"           # stands for a file of two boxes named A and Z
OUT = "OUT"         # stands for an output path in the test's directory

CASES = []
for base in (SO_KIN, SO_ADD):
    CASES += [(base, ("--dim", "3"), CHANGES), (base, ("--dim", "0"), CHANGES),
              (base, ("--dim", "-1"), 2),
              (base, ("--basis", "mu"), CHANGES), (base, ("--basis", "psi"), CHANGES),
              (base, ("--basis", "nijenhuis"), CHANGES),
              (base, ("--format", "csv"), CHANGES), (base, ("--format", "latex"), CHANGES),
              (base, ("--phi-degree", "1"), CHANGES), (base, ("--phi-degree", "-1"), 2),
              (base, ("--phi-degree", "3"), 2), (base, ("--out", OUT), CHANGES)]
CASES += [
    # --phi-degree 0 names the kinematic default, the Euler characteristic
    (SO_KIN, ("--phi-degree", "2"), CHANGES), (SO_ADD, ("--phi-degree", "0"), CHANGES),
    (SO_KIN, ("--normalization", "unit"), CHANGES),
    (SO_ADD, ("--normalization", "unit"), 2),
]
for base in (UN_KIN, UN_ADD):
    CASES += [(base, ("--dim", "1"), CHANGES), (base, ("--dim", "0"), CHANGES),
              (base, ("--dim", "-1"), 2),
              (base, ("--basis", "monomial"), CHANGES),
              (base, ("--basis", "hermitian"), CHANGES),
              (base, ("--format", "csv"), CHANGES), (base, ("--format", "latex"), CHANGES),
              (base, ("--space", "projective"), 2), (base, ("--deg-a", "1"), 2),
              (base, ("--deg-b", "1"), 2), (base, ("--out", OUT), CHANGES)]
for base in (UN_TASAKI, UN_VERIFY):
    CASES += [(base, ("--dim", "1"), CHANGES), (base, ("--dim", "-1"), 2),
              (base, ("--basis", "tasaki"), 2), (base, ("--format", "json"), 2),
              (base, ("--space", "euclidean"), 2), (base, ("--deg-a", "1"), 2),
              (base, ("--out", OUT), CHANGES)]
CASES += [
    (UN_FIRST, ("--dim", "1"), CHANGES), (UN_FIRST, ("--dim", "3"), 2),
    (UN_FIRST, ("--deg-a", "3"), CHANGES),
    (UN_FIRST, ("--deg-b", "4"), CHANGES), (UN_FIRST, ("--deg-a", "-1"), 2),
    (UN_FIRST, ("--space", "projective"), CHANGES),
    (UN_FIRST, ("--basis", "tasaki"), 2), (UN_FIRST, ("--format", "json"), 2),
    (UN_FIRST, ("--out", OUT), CHANGES),
]
for base in (SF_REAL, SF_COMPLEX):
    CASES += [(base, ("--dim", "3"), CHANGES), (base, ("--dim", "0"), CHANGES),
              (base, ("--dim", "-1"), 2), (base, ("--lambda-eval", "2"), 2),
              (base, ("--lambda-eval", "0"), 2), (base, ("--out", OUT), CHANGES)]
CASES += [
    (SF_REAL, ("--format", "csv"), CHANGES), (SF_REAL, ("--format", "latex"), CHANGES),
    (SF_REAL, ("--lambda-eval", "1"), CHANGES), (SF_REAL, ("--check", "bfs"), 2),
    (SF_COMPLEX, ("--check", "conjecture"), CHANGES),
    (SF_COMPLEX, ("--check", "chapoton"), CHANGES),
    (SF_COMPLEX, ("--format", "json"), 2), (SF_COMPLEX, ("--lambda-eval", "1"), 2),
    # every check over n = 1..dim would pass over an empty range
    (UN_VERIFY, ("--dim", "0"), NAMED), (SF_CONJECTURE, ("--dim", "0"), NAMED),
]
for base in (MC_KIN, MC_ADD, MC_CROFTON, MC_STEINER, MC_CAUCHY, MC_SUITE):
    CASES += [(base, ("--samples", "300"), CHANGES), (base, ("--samples", "1"), 2),
              (base, ("--samples", "0"), 2), (base, ("--samples", "-5"), 2),
              (base, ("--seed", "0"), CHANGES), (base, ("--seed", "2"), CHANGES),
              (base, ("--dim", "0"), 2), (base, ("--dim", "-1"), 2),
              (base, ("--out", OUT), CHANGES)]
for base in (MC_KIN, MC_ADD, MC_STEINER, MC_CAUCHY):
    CASES += [(base, ("--dim", "3"), CHANGES), (base, ("--k", "1"), 2)]
CASES += [(base, ("--bodies", BODIES), CHANGES) for base in (MC_KIN, MC_ADD)]
# a body file holds exactly the bodies its estimator takes
for base in (MC_CROFTON_2D, MC_STEINER, MC_CAUCHY):
    CASES += [(base, ("--bodies", BOX), CHANGES), (base, ("--bodies", BODIES), NAMED)]
# bodies are named A and B, and a file naming any other is refused
CASES += [(MC_KIN, ("--bodies", ABC), NAMED), (MC_ADD, ("--bodies", AZ), NAMED),
          (MC_STEINER, ("--bodies", AZ), NAMED)]
for base in (MC_KIN, MC_ADD, MC_CROFTON, MC_CAUCHY, MC_SUITE):
    CASES += [(base, ("--radius", "2"), 2)]
CASES += [
    (MC_KIN, ("--dim", "1"), CHANGES), (MC_ADD, ("--dim", "4"), 2),
    (MC_CROFTON, ("--dim", "2"), CHANGES), (MC_CROFTON, ("--k", "2"), CHANGES),
    (MC_CROFTON, ("--k", "0"), 2), (MC_CROFTON, ("--k", "3"), 2),
    (MC_CROFTON, ("--bodies", BODIES), 2),   # a body file fixes the base's --dim
    (MC_STEINER, ("--radius", "2"), CHANGES), (MC_STEINER, ("--radius", "0"), CHANGES),
    (MC_STEINER, ("--radius", "-1"), 2),
    (MC_SUITE, ("--k", "1"), 2), (MC_SUITE, ("--bodies", BODIES), 2),
    (VERIFY, ("--max-dim", "2"), CHANGES), (VERIFY, ("--max-dim", "1"), CHANGES),
    (VERIFY, ("--max-dim", "0"), 2), (VERIFY, ("--max-dim", "-1"), 2),
    (VERIFY, ("--mc-samples", "200"), CHANGES), (VERIFY, ("--mc-samples", "1"), 2),
    (VERIFY, ("--mc-samples", "0"), 2), (VERIFY, ("--seed", "3"), 2),
    (VERIFY, ("--out", OUT), CHANGES),
    (VERIFY_MC, ("--seed", "0"), CHANGES), (VERIFY_MC, ("--seed", "5"), CHANGES),
    (VERIFY_MC, ("--mc-samples", "300"), CHANGES),
]
# Philox keys lie in [0, 2**128); run i of the suite draws from seed + 7919 i
for base in (MC_KIN, MC_ADD, MC_CROFTON, MC_STEINER, MC_CAUCHY, MC_SUITE):
    CASES += [(base, ("--seed", "-1"), NAMED), (base, ("--seed", str(2 ** 128)), NAMED)]
CASES += [
    (MC_KIN, ("--seed", str(2 ** 128 - 1)), CHANGES),
    (MC_SUITE, ("--seed", str(2 ** 128 - 1 - 7919 * 11)), CHANGES),
    (MC_SUITE, ("--seed", str(2 ** 128 - 7919 * 11)), NAMED),
    (VERIFY_MC, ("--seed", "-5"), NAMED), (VERIFY_MC, ("--seed", str(2 ** 128 - 1)), NAMED),
]
# a sample-variance stderr needs 100 samples; hit-or-miss rows serve 2
CASES += [(base, ("--samples", "99"), NAMED) for base in (MC_ADD, MC_CAUCHY, MC_SUITE)]
CASES += [(base, ("--samples", "2"), CHANGES) for base in (MC_KIN, MC_CROFTON, MC_STEINER)]
CASES += [(VERIFY_MC, ("--mc-samples", "2"), NAMED),
          (VERIFY_MC, ("--mc-samples", "99"), NAMED),
          (VERIFY_MC, ("--mc-samples", "100"), CHANGES)]


def run(argv):
    """Exit code, stdout bytes and stderr text of one in-process ``intgeo``
    run; a usage error raised by the argument parser counts as its exit code."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    out.flush()
    return code, buf.getvalue(), err.getvalue()


base_run = lru_cache(maxsize=None)(run)


@pytest.fixture(scope="module")
def names(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flags")
    bodies = tmp / "bodies.json"
    bodies.write_text(json.dumps({
        "A": {"kind": "box", "min": ["0", "0", "0"], "max": ["1", "1", "2"]},
        "B": {"kind": "box", "min": ["0", "0", "0"], "max": ["1", "2", "1"]}}))
    spec = {"kind": "box", "min": ["0", "0", "0"], "max": ["1", "1", "2"]}
    box = tmp / "box.json"
    box.write_text(json.dumps({"A": spec}))
    files = {BODIES: str(bodies), BOX: str(box), OUT: str(tmp / "out")}
    for name in (ABC, AZ):  # one box under each letter of the name
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({key: spec for key in name}))
        files[name] = str(path)
    return files


@pytest.mark.parametrize("base,flag,expect", CASES,
                         ids=[f"{' '.join(b)} | {' '.join(f)}" for b, f, _ in CASES])
def test_flag_changes_stdout_or_exits_2(base, flag, expect, names):
    base_code, base_out, _ = base_run(base)
    assert base_code == 0
    code, out, err = run(base + tuple(names.get(a, a) for a in flag))
    if expect == NAMED:
        assert (code, out) == (2, b"")
        assert any(line.startswith("error: ") and flag[0] in line
                   for line in err.splitlines())
    elif expect == 2:
        assert (code, out) == (2, b"")
    else:
        assert code in (0, 1) and out != base_out


def test_every_flag_has_a_row():
    rows = {(base[0], flag[0]) for base, flag, _ in CASES}
    missing = [f"{name} {option}"
               for name, command in cli.build_parser().commands.items()
               for action in command._actions if action.dest != "help"
               for option in action.option_strings if (name, option) not in rows]
    assert missing == []


# a config key is refused where its flag would be
CONFIG_CASES = [(UN_VERIFY, "basis=tasaki"), (MC_KIN, "k=2")]


@pytest.mark.parametrize("base,line", CONFIG_CASES,
                         ids=[f"{' '.join(b)} | {line}" for b, line in CONFIG_CASES])
def test_config_key_without_effect_exits_2(base, line, tmp_path):
    cfg = tmp_path / "intgeo.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(("--config", str(cfg)) + base)
    assert (code, out) == (2, b"")
    assert "has no effect" in err.splitlines()[-1]


def _box(*sides):
    return {"kind": "box", "min": [0] * len(sides), "max": list(sides)}


def _ball(n):
    return {"kind": "ball", "center": [0] * n, "radius": 1}


# body files the mc estimators cannot serve: bodies of two dimensions, a
# count other than two, bodies named other than A and B, and documents that
# are not body specs
BAD_BODY_FILES = {
    "one ball": [_ball(2)],
    "three boxes": [_box(1, 2), _box(2, 1), _box(1, 1)],
    "3-D box, 2-D box": {"A": _box(1, 1, 2), "B": _box(1, 2)},
    "2-D box, 3-D box": {"A": _box(1, 2), "B": _box(1, 1, 2)},
    "2-D ball, 3-D ball": {"A": _ball(2), "B": _ball(3)},
    "2-D ball, 3-D box": [_ball(2), _box(1, 1, 2)],
    "ball without center": {"A": {"kind": "ball"}},
    "box without max": {"A": _box(1, 2), "B": {"kind": "box", "min": [0, 0]}},
    "spec without kind": [{"center": [0, 0], "radius": 1}, _box(1, 2)],
    "list of numbers": [1, 2],
    "box corner not a list": {"A": _box(1, 2), "B": {"kind": "box", "min": 0, "max": 1}},
    "bodies A, B and C": {"A": _ball(2), "B": _box(1, 2), "C": _ball(3)},
    "bodies A and Z": {"A": _ball(2), "Z": _box(1, 2)},
    "box with a radius": {"A": {**_box(1, 1), "radius": "5"}, "B": _box(1, 2)},
}


@pytest.mark.parametrize("test", ("kinematic", "additive"))
@pytest.mark.parametrize("doc", BAD_BODY_FILES.values(), ids=list(BAD_BODY_FILES))
def test_unservable_body_file_exits_2_before_sampling(test, doc, tmp_path, monkeypatch):
    from intgeo import montecarlo

    def refuse(*args):
        raise AssertionError("a sample chunk was drawn")

    monkeypatch.setattr(montecarlo, "rng_chunk", refuse)
    path = tmp_path / "bodies.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(("mc", test, "--bodies", str(path),
                          "--samples", "200", "--seed", "1"))
    assert (code, out) == (2, b"")
    assert err.splitlines()[-1].startswith("error: ")
