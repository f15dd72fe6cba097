"""Frozen bits of the exact Monte Carlo predictions for balls, boxes and points.

``tests/golden/predictions.json`` maps each pair of a grid of bodies with
exact intrinsic volumes (balls, boxes, a point; n = 2..4, both orders of
every mixed pair) to ``float.hex`` of its principal kinematic and additive
volume predictions.
The predictions sum exact table pairings before the one cast to float, so
the order of that sum is part of the bits.  No sampling runs.  The file was
written before ``Scalar`` became a single monomial, and must never be
regenerated from the code it checks.

    PYTHONPATH=src python3 tests/test_golden_predictions.py > tests/golden/predictions.json
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from intgeo import montecarlo as MC
from intgeo.bodies import ConvexBody

GOLDEN = Path(__file__).parent / "golden" / "predictions.json"
RADII = ["1/2", "1", "2"]
SIDES = {
    2: [["1", "1"], ["1/2", "3"], ["2", "5/4"]],
    3: [["1", "1", "1"], ["1/2", "1", "2"], ["3", "1/3", "5/4"]],
    4: [["1", "1", "1", "1"], ["1/2", "1", "2", "3"], ["2", "2", "1/4", "7/5"]],
}


def _bodies(n):
    """name -> body for the grid in R^n."""
    out = {f"ball({r})": ConvexBody.ball([0] * n, Fraction(r)) for r in RADII}
    for sides in SIDES[n]:
        out[f"box({','.join(sides)})"] = ConvexBody.box(
            [0] * n, [Fraction(s) for s in sides])
    out["point"] = ConvexBody.polytope([[Fraction(1, 3)] * n])
    return out


def _kind(name):
    return name.split("(")[0]


PAIRS = {("ball", "ball"), ("ball", "box"), ("box", "ball"), ("box", "box"),
         ("box", "point"), ("point", "box")}


def predictions():
    out = {}
    for n in SIDES:
        bodies = _bodies(n)
        for na, a in bodies.items():
            for nb, b in bodies.items():
                if (_kind(na), _kind(nb)) not in PAIRS:
                    continue
                out[f"n={n} {na}/{nb}"] = {
                    "kinematic": MC.scalar_float(
                        MC.principal_kinematic_prediction(a, b)).hex(),
                    "additive": MC.scalar_float(
                        MC.additive_volume_prediction(a, b)).hex(),
                }
    return out


def test_predictions_match_frozen_bits():
    assert predictions() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(predictions(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
