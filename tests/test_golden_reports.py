"""Frozen digests of the check reports the command line prints.

``tests/golden/reports.json`` holds the SHA-256 of the stdout of
``verify --max-dim n`` (n <= 6), ``un verify --dim n`` (n <= 8) and
``spaceform complex --dim n --check c`` for each check c (n <= 8).  The file
was written by the battery as it stood before the check registry, and must
never be regenerated from the code it checks.

    PYTHONPATH=src python3 tests/test_golden_reports.py > tests/golden/reports.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from intgeo import cli

GOLDEN = Path(__file__).parent / "golden" / "reports.json"


def report_argvs():
    for n in range(1, 7):
        yield ["verify", "--max-dim", str(n)]
    for n in range(1, 9):
        yield ["un", "verify", "--dim", str(n)]
    for check in ("bfs", "conjecture", "chapoton"):
        for n in range(1, 9):
            yield ["spaceform", "complex", "--dim", str(n), "--check", check]


def run_report(argv):
    """Exit code and stdout bytes of one in-process ``intgeo`` run."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    out.flush()
    return code, buf.getvalue()


def report_digests():
    out = {}
    for argv in report_argvs():
        code, data = run_report(argv)
        assert code == 0, argv
        out[" ".join(argv)] = hashlib.sha256(data).hexdigest()
    return out


def test_reports_match_frozen_digests():
    assert report_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(report_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
