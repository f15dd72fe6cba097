"""Frozen digests of the real space-form tables the command line prints.

``tests/golden/real_tables.json`` holds the SHA-256 and exit code of
``spaceform real --dim n --format f`` for n <= 12 and every format, with and
without ``--lambda-eval 1``: 72 runs.  The file was written while lam was
still a polynomial variable over a coefficient ring, before it became a
grading, and must never be regenerated from the code it checks.

    PYTHONPATH=src python3 tests/test_golden_real.py > tests/golden/real_tables.json
"""

import hashlib
import json
import sys
from pathlib import Path

from test_golden_reports import run_report

GOLDEN = Path(__file__).parent / "golden" / "real_tables.json"


def real_argvs():
    for n in range(1, 13):
        for fmt in ("json", "csv", "latex"):
            argv = ["spaceform", "real", "--dim", str(n), "--format", fmt]
            yield argv
            yield argv + ["--lambda-eval", "1"]


def real_digests():
    out = {}
    for argv in real_argvs():
        code, data = run_report(argv)
        out[" ".join(argv)] = {"exit": code,
                               "sha256": hashlib.sha256(data).hexdigest()}
    return out


def test_real_tables_match_frozen_digests():
    assert real_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(real_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
