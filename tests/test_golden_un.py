"""Frozen digests of the U(n) tables and Tasaki-matrix documents, n <= 10.

``tests/golden/un_tables.json`` holds the SHA-256 of the emitted JSON of
``kinematic_un(n)`` and ``additive_un(n)`` in the monomial, tasaki and
hermitian bases, and of the ``un tasaki-matrices`` document.  The file was
written by the Laurent-polynomial (Bareiss over Q[pi, pi^-1]) assembly and
must never be regenerated from the code it checks.

    PYTHONPATH=src python3 tests/test_golden_un.py > tests/golden/un_tables.json
"""

import hashlib
import json
import sys
from pathlib import Path

from intgeo import emitters, hermitian

GOLDEN = Path(__file__).parent / "golden" / "un_tables.json"
MAX_DIM = 10
BASES = ("monomial", "tasaki", "hermitian")


def tasaki_document(n):
    """The document ``intgeo un tasaki-matrices --dim n`` prints."""
    doc = {
        "group": "U", "dimension": n, "normalization": "standard",
        "basis": "tasaki x fourier-tasaki",
        "matrices": {str(k): [[emitters.scalar_to_json(c) for c in row] for row in m]
                     for k, m in sorted(hermitian.tasaki_matrices(n).items())},
    }
    return emitters.emit_json(doc)


def un_digests(max_dim=MAX_DIM):
    out = {}
    for n in range(1, max_dim + 1):
        for name, build in (("kinematic", hermitian.kinematic_un),
                            ("additive", hermitian.additive_un)):
            table = build(n)
            for basis in BASES:
                data = emitters.emit_table(
                    hermitian.convert_un_table(table, n, basis), "json")
                out[f"{name} {basis} {n}"] = hashlib.sha256(data).hexdigest()
        out[f"tasaki-matrices {n}"] = hashlib.sha256(tasaki_document(n)).hexdigest()
    return out


def test_un_tables_match_frozen_digests():
    assert un_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(un_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
