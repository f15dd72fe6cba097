import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from intgeo import cli, emitters, euclid, hermitian, spaceforms
from intgeo.graded import TensorTable
from intgeo.scalars import Scalar
from oracles import sorted_items, table_bytes, table_document

GOLDEN = Path(__file__).parent / "golden"


def test_scalar_string_and_json():
    s = Scalar.pi_power(-1, 2)
    assert emitters.scalar_to_string(s) == "2*pi^-1"
    assert emitters.scalar_to_json(s) == {
        "terms": [{"pi_pow": -1, "num": "2", "den": "1"}]}
    # a curvature entry {lam_pow: Scalar}, as the space-form tables hold them
    lam = {0: Scalar.one(), 2: Scalar.pi_power(1)}
    assert emitters.scalar_to_string(lam) == "(1) + (1*pi^1)*lam^2"


def test_latex_rendering():
    labels = {0: ["a"], 1: ["b"]}
    table = TensorTable("SO", 1, "standard", "t", labels, {
        ((0, 0), (0, 0)): Scalar.pi_power(2, Fraction(1, 8)),
        ((0, 0), (1, 0)): Scalar.from_rational(3),
        ((1, 0), (1, 0)): {0: Scalar.one(), 2: Scalar.pi_power(1)}})
    rows = emitters.emit_table(table, "latex").decode().splitlines()[3:-1]
    assert rows == ["a & a & \\tfrac{1}{8}\\,\\pi^{2} \\\\",
                    "a & b & 3 \\\\",
                    "b & b & \\left(1\\right) + \\left(1\\,\\pi\\right)\\lambda^{2} \\\\"]


def test_table_document_round_trip():
    table = euclid.kinematic_so(2, basis="mu")
    doc = table_document(table)
    assert doc["normalization"] == "standard"
    assert doc["basis"] == "mu"
    assert [t["coefficient"] for t in doc["terms"]] \
        == [emitters.scalar_to_json(c) for _, c in sorted_items(table)]
    assert json.loads(emitters.emit_table(table, "json").decode()) == doc


def test_emitters_deterministic():
    table = euclid.kinematic_so(3, basis="mu")
    for fmt in ("json", "csv", "latex"):
        assert emitters.emit_table(table, fmt) == emitters.emit_table(table, fmt)


def test_empty_table_valid():
    empty = TensorTable("SO", 2, "standard", "t", basis_labels={0: ["t_0"]})
    doc = table_document(empty)
    assert doc["terms"] == []
    assert json.loads(emitters.emit_table(empty, "json").decode()) == doc
    for fmt in ("json", "csv", "latex"):
        assert emitters.emit_table(empty, fmt) == table_bytes(empty, fmt), fmt


SO_BASES = ("t", "mu", "psi", "nijenhuis")
UN_BASES = ("monomial", "tasaki", "hermitian")


def _same_bytes(table, formats=("json", "csv", "latex")):
    """The cell writers against the old route: the JSON document built as one
    dict per term and dumped by ``emit_json``, CSV and LaTeX formatted from
    the sorted Scalar entries."""
    for fmt in formats:
        assert emitters.emit_table(table, fmt) == table_bytes(table, fmt), fmt


def test_cell_writers_match_document_route_on_golden_grid():
    """Every table of the golden grid in the formats it pins: SO n <= 3 in
    every basis and format, U(n) in every basis as JSON for n <= 10 and as
    CSV and LaTeX for n <= 5, and the real space forms n <= 12 in every
    format."""
    for n in range(4):
        for basis in SO_BASES:
            _same_bytes(euclid.kinematic_so(n, basis=basis))
            _same_bytes(euclid.additive_so(n, basis=basis))
    for n in range(11):
        for build in (hermitian.kinematic_un, hermitian.additive_un):
            table = build(n)
            for basis in UN_BASES:
                _same_bytes(hermitian.convert_un_table(table, n, basis),
                            ("json", "csv", "latex") if n <= 5 else ("json",))
    for n in range(1, 13):
        _same_bytes(spaceforms.real_space_form(n).kinematic())


@pytest.mark.parametrize("n", (6, 8, 10))
def test_cell_json_matches_document_route_on_warm_queries(n):
    """The JSON of every U(n) query the exact-warm benchmark draws from: each
    basis element, both tables, every basis."""
    alg = hermitian.un_model(n).alg
    for k in range(2 * n + 1):
        for i in range(alg.dimension(k)):
            phi = alg.basis_element(k, i)
            for build in (hermitian.kinematic_un, hermitian.additive_un):
                table = build(n, phi)
                for basis in UN_BASES:
                    _same_bytes(hermitian.convert_un_table(table, n, basis), ("json",))


def test_cell_writers_match_document_route_on_so_tables():
    """SO tables n <= 16, every basis and normalization, chi or the volume
    and the basis valuation of degree n // 2, in every format."""
    for n in range(17):
        for basis in SO_BASES:
            for phi in (None, euclid.SOValuation.from_coeffs(n, {n // 2: Scalar.one()}, basis)):
                for norm in ("standard", "unit"):
                    _same_bytes(euclid.kinematic_so(n, phi, basis, norm))
                _same_bytes(euclid.additive_so(n, phi, basis))


def test_cell_writers_match_document_route_on_lam_cells_and_escapes():
    """Cells holding two powers of lam, and a hand-built table whose tags and
    labels need JSON and CSV escaping, with a zero Scalar, rationals and an
    empty curvature entry among its coefficients."""
    v = spaceforms.real_space_form(4)
    psi = v.element({i: Fraction(i + 1) for i in range(5)})
    rho = v.element({i: Fraction(2 - i) for i in range(5)})
    table = v.kinematic(psi * rho)
    assert sum(len(c) > 1 for c in table.entries.values()) == 6
    _same_bytes(table)
    labels = {0: ['say "hi"', "back\\slash"], 1: ["\u03c8_1,\u00e9", "tab\tnew\nline"]}
    table = TensorTable('U"\\', 2, "st\u00e4ndard", "b,\\", labels, {
        ((1, 1), (0, 0)): Scalar.pi_power(-3, Fraction(-7, 12)),
        ((0, 1), (1, 0)): Scalar.zero(),
        ((0, 0), (1, 1)): Fraction(5, 2),
        ((0, 0), (0, 1)): -4,
        ((1, 0), (0, 1)): {},
        ((1, 0), (1, 0)): {3: Scalar.pi_power(1, -1), 0: Scalar.from_rational(2)}})
    _same_bytes(table)
    assert json.loads(emitters.emit_table(table, "json").decode()) == table_document(table)


def test_golden_so3_byte_equality():
    table = euclid.kinematic_so(3, basis="mu")
    assert emitters.emit_table(table, "json") == (GOLDEN / "so3_chi_mu.json").read_bytes()


def test_golden_tasaki_n2_byte_equality():
    mats = hermitian.tasaki_matrices(2)
    doc = {
        "group": "U", "dimension": 2, "normalization": "standard",
        "basis": "tasaki x fourier-tasaki",
        "matrices": {str(k): [[emitters.scalar_to_json(c) for c in row] for row in m]
                     for k, m in sorted(mats.items())},
    }
    assert emitters.emit_json(doc) == (GOLDEN / "tasaki_n2.json").read_bytes()


def test_cli_unit_table_all_ones(capsys):
    rc = cli.main(["so", "kinematic", "--dim", "3", "--basis", "t",
                   "--normalization", "unit", "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(r[-1] == "1" for r in rows)


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["so", "kinematic", "--dim", "3", "--no-such-flag"])
    assert exc.value.code == 2


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["un", "firstorder", "--dim", "2"])
    assert exc.value.code == 2


def test_cli_first_order_out_of_range_exits_2(capsys):
    assert cli.main(["un", "firstorder", "--dim", "2", "--deg-a", "5", "--deg-b", "1"]) == 2
    assert "first-order bidegrees" in capsys.readouterr().err


def test_cli_verify_small(tmp_path, capsys):
    out = tmp_path / "report.txt"
    rc = cli.main(["verify", "--max-dim", "2", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "ALL CHECKS PASSED" in text
    assert "FAIL" not in text


def test_cli_mc_csv(tmp_path):
    out = tmp_path / "results.csv"
    rc = cli.main(["mc", "kinematic", "--dim", "2", "--samples", "20000",
                   "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "test,seed,samples,estimate,stderr,prediction,z"
    assert len(lines) == 2


def test_cli_mc_bodies_file(tmp_path):
    spec = {"A": {"kind": "ball", "center": ["0", "0"], "radius": "1"},
            "B": {"kind": "box", "min": ["-1/2", "-1/2"], "max": ["1/2", "1/2"]}}
    bodies = tmp_path / "bodies.json"
    bodies.write_text(json.dumps(spec))
    out = tmp_path / "results.csv"
    rc = cli.main(["mc", "kinematic", "--bodies", str(bodies),
                   "--samples", "20000", "--seed", "7", "--out", str(out)])
    assert rc == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(3.141592653589793 + 5)


def test_cli_config_and_outdir(tmp_path, monkeypatch):
    cfg = tmp_path / "intgeo.cfg"
    cfg.write_text("samples=15000\nseed=3\n")
    monkeypatch.setenv("INTGEO_OUT_DIR", str(tmp_path))
    rc = cli.main(["--config", str(cfg), "mc", "kinematic", "--dim", "2",
                   "--out", "rel.csv"])
    assert rc == 0
    lines = (tmp_path / "rel.csv").read_text().splitlines()
    assert lines[1].split(",")[2] == "15000"


def test_cli_config_beats_defaults_and_loses_to_the_command_line(tmp_path, capsys):
    cfg = tmp_path / "intgeo.cfg"
    cfg.write_text("format=csv\nbasis=mu\n")
    assert cli.main(["--config", str(cfg), "so", "kinematic", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("group,dimension,normalization,basis,")
    assert out.splitlines()[1].startswith("SO,2,standard,mu,")
    assert cli.main(["--config", str(cfg), "so", "kinematic", "--dim", "2",
                     "--format", "json", "--basis", "t"]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == "t"


def test_cli_config_supplies_required_flag(tmp_path, capsys):
    cfg = tmp_path / "intgeo.cfg"
    cfg.write_text("dim=2\n")
    assert cli.main(["--config", str(cfg), "so", "kinematic"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2
    assert cli.main(["--config", str(cfg), "so", "kinematic", "--dim", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 3


@pytest.mark.parametrize("line,message", [
    ("max_dim=3", "unknown key max_dim"),   # a flag of another command
    ("jobs=2", "unknown key jobs"),
    ("format=xml", "format must be one of json, csv, latex"),
])
def test_cli_config_key_without_flag_exits_2(tmp_path, capsys, line, message):
    cfg = tmp_path / "intgeo.cfg"
    cfg.write_text(f"dim=2\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "so", "kinematic"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {cfg}: {message}"
    assert captured.out == ""


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(missing), "so", "kinematic", "--dim", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {missing}: No such file or directory"
    assert captured.out == ""


def test_cli_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "intgeo.cfg"
    cfg.write_text("# defaults\nseed=3\nbogus line\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "so", "kinematic", "--dim", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {cfg}:3: expected key=value"
    assert captured.out == ""


def test_cli_lambda_eval_other_than_one_exits_2(capsys):
    for argv in (["spaceform", "real", "--dim", "2", "--lambda-eval", "2"],
                 ["spaceform", "complex", "--dim", "2", "--lambda-eval", "1"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: --lambda-eval")


def test_cli_spaceform_checks(capsys):
    assert cli.main(["spaceform", "complex", "--dim", "2", "--check", "bfs"]) == 0
    assert cli.main(["spaceform", "complex", "--dim", "2", "--check",
                     "chapoton"]) == 0
    assert cli.main(["spaceform", "real", "--dim", "2", "--lambda-eval", "1"]) == 0
    capsys.readouterr()


def test_cli_un_verify(capsys):
    assert cli.main(["un", "verify", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in out
    assert "mu_1,0 / f_1" in out


def test_console_script_installed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "intgeo.cli", "so",
                           "kinematic", "--dim", "2", "--format", "json"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_document_json_round_trip_lossless():
    table = hermitian.convert_un_table(hermitian.kinematic_un(2), 2, "tasaki")
    doc = table_document(table)
    assert json.loads(emitters.emit_json(doc).decode()) == doc
    assert json.loads(emitters.emit_table(table, "json").decode()) == doc


def test_cli_flags_without_effect_exit_2(capsys):
    for argv, flag in ((["un", "tasaki-matrices", "--dim", "2", "--format", "csv"], "--format"),
                       (["un", "firstorder", "--dim", "2", "--deg-a", "2", "--deg-b", "2",
                         "--format", "json"], "--format"),
                       (["spaceform", "complex", "--dim", "2", "--format", "csv"], "--format"),
                       (["spaceform", "real", "--dim", "2", "--check", "conjecture"], "--check")):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(f"error: {flag} has no effect")
    # without the flag, the defaults still apply
    assert cli.main(["un", "tasaki-matrices", "--dim", "2"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "tasaki_n2.json").read_bytes()


@pytest.mark.parametrize("argv,flag", [
    (["un", "tasaki-matrices", "--dim", "2", "--basis", "monomial"], "--basis"),
    (["un", "firstorder", "--dim", "2", "--deg-a", "2", "--deg-b", "2",
      "--basis", "tasaki"], "--basis"),
    (["un", "verify", "--dim", "2", "--basis", "hermitian"], "--basis"),
    (["mc", "kinematic", "--samples", "2000", "--k", "2"], "--k"),
    (["mc", "steiner", "--samples", "2000", "--k", "1"], "--k"),
    (["mc", "kinematic", "--samples", "2000", "--radius", "5"], "--radius"),
    (["mc", "crofton", "--samples", "2000", "--radius", "5"], "--radius"),
    (["mc", "kinematic", "--samples", "2000", "--dim", "3", "--bodies", "b.json"],
     "--dim"),
    (["mc", "suite", "--samples", "2000", "--dim", "3"], "--dim"),
    (["mc", "suite", "--samples", "2000", "--bodies", "b.json"], "--bodies"),
    (["un", "kinematic", "--dim", "2", "--space", "projective"], "--space"),
    (["un", "additive", "--dim", "2", "--space", "euclidean"], "--space"),
    (["un", "kinematic", "--dim", "2", "--deg-a", "1"], "--deg-a"),
    (["un", "tasaki-matrices", "--dim", "2", "--deg-b", "1"], "--deg-b"),
    (["un", "verify", "--dim", "2", "--deg-a", "1", "--deg-b", "1"], "--deg-a"),
    (["verify", "--max-dim", "2", "--seed", "5"], "--seed"),
])
def test_cli_unread_flags_exit_2(capsys, argv, flag):
    # rejected before any body file is read or any sample is drawn
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"error: {flag} has no effect")


@pytest.mark.parametrize("argv", [["--jobs", "2", "so", "kinematic", "--dim", "2"],
                                  ["verify", "--all", "--max-dim", "2"]])
def test_cli_removed_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


POLYTOPE_PAIRS = {
    "polygons": {"A": {"kind": "polytope",
                       "vertices": [["1", "0"], ["3/10", "19/20"], ["-4/5", "3/5"],
                                    ["-4/5", "-3/5"], ["3/10", "-19/20"]]},
                 "B": {"kind": "polytope",
                       "vertices": [["0", "0"], ["1", "0"], ["3/2", "1"], ["0", "7/10"]]}},
    "space": {"A": {"kind": "polytope",
                    "vertices": [["1", "1", "1"], ["1", "-1", "-1"], ["-1", "1", "-1"],
                                 ["-1", "-1", "1"]]},
              "B": {"kind": "polytope",
                    "vertices": [["1", "0", "0"], ["-1", "0", "0"], ["0", "1/2", "0"],
                                 ["0", "-1/2", "0"], ["0", "0", "3/4"], ["0", "0", "-3/4"]]}},
}


@pytest.mark.parametrize("pair", sorted(POLYTOPE_PAIRS))
@pytest.mark.parametrize("test", ["kinematic", "additive"])
def test_cli_mc_polytope_pairs(tmp_path, pair, test):
    bodies = tmp_path / "bodies.json"
    bodies.write_text(json.dumps(POLYTOPE_PAIRS[pair]))
    out = tmp_path / "results.csv"
    rc = cli.main(["mc", test, "--bodies", str(bodies), "--samples", "20000",
                   "--seed", "5", "--out", str(out)])
    assert rc == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[5] != "" and abs(float(row[6])) <= 4


def test_cli_mc_box_pair_in_4d_fails_before_sampling(tmp_path, capsys):
    spec = {"A": {"kind": "box", "min": ["0"] * 4, "max": ["1"] * 4},
            "B": {"kind": "box", "min": ["0"] * 4, "max": ["1"] * 4}}
    bodies = tmp_path / "bodies.json"
    bodies.write_text(json.dumps(spec))
    start = time.perf_counter()
    rc = cli.main(["mc", "kinematic", "--bodies", str(bodies), "--samples", "200000"])
    assert time.perf_counter() - start < 0.5
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")
