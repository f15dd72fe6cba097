"""Frozen bits of the Monte Carlo rows for boxes with non-dyadic corners.

The corners of every box in ``tests/golden/mc_rows.json`` are dyadic, so the
float side lengths there come out the same however they are rounded.  Here
the corners are thirds, fifths and sevenths: ``float(hi - lo)`` of the exact
corners and ``float(hi) - float(lo)`` differ in the last bit for some of
these sides, and the predictions and shadow weights must use the first.
``tests/golden/mc_nondyadic.json`` holds ``float.hex`` of the estimate,
stderr and prediction of each run, with its exit code.  The file was written
before the body model and the chunk loop of ``montecarlo`` were rewritten,
and must never be regenerated from the code it checks.  Its crofton and
kinematic rows were rewritten once, when SO(2) and SO(3) moved from
Gram-Schmidt to the circle and quaternion samplers, which draw other
normals: by running this script on the code before that change with
``montecarlo.random_rotations`` replaced by ``oracles.random_rotations``.
The cauchy and steiner rows did not change.  Its cauchy rows were rewritten
once more, when a chunk's sum of squares moved from a BLAS dot product,
whose rounding follows the BLAS thread setting, to numpy's pairwise sum: by
running this script on the code before that change with
``montecarlo._chunk_sums`` replaced by ``oracles.chunk_sums``; only their
stderr moved.

    PYTHONPATH=src python3 tests/test_golden_nondyadic.py > tests/golden/mc_nondyadic.json
"""

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

from test_golden_reports import run_report

GOLDEN = Path(__file__).parent / "golden" / "mc_nondyadic.json"
SAMPLES = "3000"

SQUARE = {"kind": "box", "min": ["-1/3", "-2/7"], "max": ["1/2", "5/7"]}
CUBE = {"kind": "box", "min": ["-1/3", "-2/7", "-3/5"], "max": ["1/2", "5/7", "1/3"]}


def _ball(center, radius):
    return {"kind": "ball", "center": center, "radius": radius}


# name -> (argv words, bodies)
RUNS = {
    "cauchy-2d": (["cauchy"], {"A": SQUARE}),
    "cauchy-3d": (["cauchy"], {"A": CUBE}),
    "steiner-2d": (["steiner", "--radius", "2/3"], {"A": SQUARE}),
    "steiner-3d": (["steiner", "--radius", "2/3"], {"A": CUBE}),
    "crofton-k1-2d": (["crofton", "--k", "1"], {"A": SQUARE}),
    "crofton-k1-3d": (["crofton", "--k", "1"], {"A": CUBE}),
    "kinematic-2d-box-ball": (["kinematic"], {"A": SQUARE,
                                              "B": _ball(["1/3", "0"], "3/5")}),
    "kinematic-3d-box-ball": (["kinematic"], {"A": CUBE,
                                              "B": _ball(["0", "1/7", "0"], "2/3")}),
}


def nondyadic_hex():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (words, bodies) in RUNS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(bodies))
            code, data = run_report(["mc"] + words + ["--samples", SAMPLES,
                                                      "--seed", "5",
                                                      "--bodies", str(path)])
            (row,) = csv.DictReader(io.StringIO(data.decode()))
            out[name] = {"exit": code, **{key: float(row[key]).hex() for key in
                                          ("estimate", "stderr", "prediction")}}
    return out


def test_nondyadic_rows_match_frozen_hex():
    assert nondyadic_hex() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(nondyadic_hex(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
