"""Frozen digests of the Monte Carlo rows the command line prints.

``tests/golden/mc_rows.json`` holds the SHA-256 and exit code of the CSV
stdout of a fixed set of ``mc`` runs: every estimator, each body kind the
kernels treat differently, and the suite.  Runs that draw rotations use
``CHUNK + 1000`` samples, so each spans two chunks and the second is ragged.
The three kinds whose kernels loop over small blocks (a polygon pair and a
point in the kinematic formula, a box pair in space in the additive one) and
the suite run ``SMALL`` samples, one ragged chunk, to keep the test short.
The file was written before the rotation sampler and the planar additive
kernel were rewritten over per-entry sample vectors, and must never be
regenerated from the code it checks.  Its rows that draw rotations were
rewritten once, when SO(2) and SO(3) moved from Gram-Schmidt to the circle
and quaternion samplers, which draw other normals: by running this script
on the code before that change with ``montecarlo.random_rotations``
replaced by ``oracles.random_rotations``.  The cauchy and steiner rows did
not change.  Its cauchy, additive and suite rows were rewritten once more,
when a chunk's sum of squares moved from a BLAS dot product, whose rounding
follows the BLAS thread setting, to numpy's pairwise sum: by running this
script on the code before that change with ``montecarlo._chunk_sums``
replaced by ``oracles.chunk_sums``.

    PYTHONPATH=src python3 tests/test_golden_mc.py > tests/golden/mc_rows.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from test_golden_reports import run_report

GOLDEN = Path(__file__).parent / "golden" / "mc_rows.json"
SAMPLES = str((1 << 17) + 1000)
SMALL = "3000"


def _ball(center, radius):
    return {"kind": "ball", "center": center, "radius": radius}


def _box(lo, hi):
    return {"kind": "box", "min": lo, "max": hi}


def _poly(vertices):
    return {"kind": "polytope", "vertices": vertices}


HEXAGON = [["1", "0"], ["1/2", "7/8"], ["-1/2", "7/8"], ["-1", "0"],
           ["-1/2", "-7/8"], ["1/2", "-7/8"]]
TRIANGLE = [["3/5", "4/5"], ["-4/5", "3/5"], ["0", "-1"]]
SQUARE = _box(["-1/2", "-1/2"], ["1/2", "1/2"])
CUBE = _box(["-1/2", "-3/8", "-1/4"], ["1/2", "5/8", "1"])

# name -> (argv words, bodies or None, samples)
RUNS = {
    "kinematic-2d-ball-box": (["kinematic"], {"A": _ball(["1/8", "0"], "3/4"),
                                              "B": SQUARE}, SAMPLES),
    "kinematic-3d-ball-box": (["kinematic"], {"A": CUBE,
                                              "B": _ball(["0", "1/4", "0"], "1")},
                              SAMPLES),
    "kinematic-polygon": (["kinematic"], {"A": _poly(HEXAGON), "B": _poly(TRIANGLE)},
                          SMALL),
    "kinematic-3d-box-point": (["kinematic"], {"A": CUBE,
                                               "B": _poly([["1/4", "0", "-1/8"]])},
                               SMALL),
    "crofton-k1-2d": (["crofton", "--k", "1"], {"A": SQUARE}, SAMPLES),
    "crofton-k1-3d": (["crofton", "--k", "1"], {"A": _ball(["0", "0", "1/4"], "5/4")},
                      SAMPLES),
    "crofton-k2": (["crofton", "--k", "2"], {"A": CUBE}, SAMPLES),
    "cauchy": (["cauchy"], {"A": CUBE}, SAMPLES),
    "steiner": (["steiner", "--radius", "3/4"], {"A": CUBE}, SAMPLES),
    "additive-2d-box": (["additive"], {"A": SQUARE,
                                       "B": _box(["0", "-1"], ["3/2", "1/4"])}, SAMPLES),
    "additive-polygon": (["additive"], {"A": _poly(HEXAGON), "B": _poly(TRIANGLE)},
                         SAMPLES),
    "additive-3d-box": (["additive"], {"A": CUBE,
                                       "B": _box(["0", "0", "0"], ["1", "1/2", "3/4"])},
                        SMALL),
    "suite": (["suite"], None, SMALL),
}


def mc_digests():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (words, bodies, samples) in RUNS.items():
            argv = ["mc"] + words + ["--samples", samples, "--seed", "17"]
            if bodies is not None:
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(bodies))
                argv += ["--bodies", str(path)]
            code, data = run_report(argv)
            out[name] = {"exit": code, "sha256": hashlib.sha256(data).hexdigest()}
    return out


def test_mc_rows_match_frozen_digests():
    assert mc_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(mc_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
