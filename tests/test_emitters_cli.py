import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from intgeo import cli, emitters, euclid, hermitian
from intgeo.graded import TensorTable
from intgeo.scalars import Scalar

GOLDEN = Path(__file__).parent / "golden"


def test_scalar_string_and_json():
    s = Scalar.pi_power(-1, 2)
    assert emitters.scalar_to_string(s) == "2*pi^-1"
    assert emitters.scalar_to_json(s) == {
        "terms": [{"pi_pow": -1, "num": "2", "den": "1"}]}
    # a curvature entry {lam_pow: Scalar}, as the space-form tables hold them
    lam = {0: Scalar.one(), 2: Scalar.pi_power(1)}
    assert emitters.scalar_to_string(lam) == "(1) + (1*pi^1)*lam^2"
    assert emitters.scalar_to_latex(lam) \
        == "\\left(1\\right) + \\left(1\\,\\pi\\right)\\lambda^{2}"


def test_latex_rendering():
    assert emitters.scalar_to_latex(Scalar.pi_power(2, Fraction(1, 8))) \
        == "\\tfrac{1}{8}\\,\\pi^{2}"
    assert emitters.scalar_to_latex(Scalar.from_rational(3)) == "3"


def test_table_document_round_trip():
    table = euclid.kinematic_so(2, basis="mu")
    doc = emitters.table_document(table)
    assert doc["normalization"] == "standard"
    assert doc["basis"] == "mu"
    assert [t["coefficient"] for t in doc["terms"]] \
        == [emitters.scalar_to_json(c) for _, c in table.sorted_items()]


def test_emitters_deterministic():
    table = euclid.kinematic_so(3, basis="mu")
    for fmt in ("json", "csv", "latex"):
        assert emitters.emit_table(table, fmt) == emitters.emit_table(table, fmt)


def test_empty_table_valid():
    empty = TensorTable("SO", 2, "standard", "t", basis_labels={0: ["t_0"]})
    doc = emitters.table_document(empty)
    assert doc["terms"] == []
    json.loads(emitters.emit_json(doc).decode())


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
    doc = emitters.table_document(table)
    assert json.loads(emitters.emit_json(doc).decode()) == doc


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
