"""Frozen digests of the euclidean and U(n) tables in every text format.

``tests/golden/table_formats.json`` holds the SHA-256 and exit code of
``so kinematic|additive --dim n --basis b --format f`` for n <= 3, every
basis and every format, and of ``un kinematic|additive --dim n --basis b
--format f`` for n <= 5, every basis and the csv and latex formats (the
json bytes of the U(n) tables are pinned in ``un_tables.json``): 168 runs.
The file was written while CSV and LaTeX were still formatted from the
coefficients parsed back out of the JSON document, and must never be
regenerated from the code it checks.

    PYTHONPATH=src python3 tests/test_golden_formats.py > tests/golden/table_formats.json
"""

import hashlib
import json
import sys
from pathlib import Path

from test_golden_reports import run_report

GOLDEN = Path(__file__).parent / "golden" / "table_formats.json"
SO_BASES = ("t", "mu", "psi", "nijenhuis")
UN_BASES = ("monomial", "tasaki", "hermitian")


def format_argvs():
    for table in ("kinematic", "additive"):
        for n in range(4):
            for basis in SO_BASES:
                for fmt in ("json", "csv", "latex"):
                    yield ["so", table, "--dim", str(n), "--basis", basis,
                           "--format", fmt]
        for n in range(6):
            for basis in UN_BASES:
                for fmt in ("csv", "latex"):
                    yield ["un", table, "--dim", str(n), "--basis", basis,
                           "--format", fmt]


def format_digests():
    out = {}
    for argv in format_argvs():
        code, data = run_report(argv)
        out[" ".join(argv)] = {"exit": code,
                               "sha256": hashlib.sha256(data).hexdigest()}
    return out


def test_table_formats_match_frozen_digests():
    assert format_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(format_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
