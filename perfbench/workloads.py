"""Seeded op plans for the three workloads.

A plan is a list of ops.  Every op is a plain dict that the worker can run
without further choices:

* exact-cold: ``{"kind", "key", "argv"}``; ``key`` is the reference key.
* exact-warm: ``{"kind", "key", "query"}``.
* mc: ``{"kind", "key", "argv", "bodies"}``; ``bodies`` is written to the
  file that ``argv`` names.

Work per run is a whole number of decks.  A deck is a fixed composition of op
kinds; the seed draws the grid point for each slot and the order.  Fixing the
composition keeps the cost of a run nearly independent of the seed, so two
seeds measure the same mix and differ only in which grid points fill it.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("exact-cold", "exact-warm", "mc")

# Seconds one deck takes at the seed commit on a 2-core Xeon; used only to
# turn --seconds into a deck count, so the work done by a run is fixed by
# (seed, seconds) and does not grow when the program gets faster.
NOMINAL_DECK_S = {"exact-cold": 45.0, "exact-warm": 0.375, "mc": 6.0}


def deck_count(workload, seconds):
    n = max(1, round(seconds / NOMINAL_DECK_S[workload]))
    if workload == "exact-cold":
        return min(n, COLD_STRATUM)
    if workload == "exact-warm":
        return min(n, warm_max_decks())
    # whole Latin squares (see mc_plan) once a run has room for two decks
    return n if n < 2 else MC_LADDER * max(1, round(n / MC_LADDER))


def plan(workload, seed, seconds):
    """The ops of one run, in order; each op carries the index of its deck."""
    rng = random.Random(f"{workload}:{seed}")
    build = {"exact-cold": cold_plan, "exact-warm": warm_plan, "mc": mc_plan}[workload]
    ops = []
    for d, deck in enumerate(build(rng, deck_count(workload, seconds))):
        for op in deck:
            op["deck"] = d
            ops.append(op)
    return ops


# -- exact-cold ----------------------------------------------------------------

FORMATS = ("json", "csv", "latex")
UN_BASES = ("monomial", "tasaki", "hermitian")
SO_BASES = ("t", "mu", "psi", "nijenhuis")
SO_BANDS = ((3, 6), (7, 10), (11, 13), (14, 16))
REAL_BANDS = ((4, 6), (7, 9), (10, 12))


def _firstorder_pairs(n):
    return [(k, l) for k in range(2 * n + 1) for l in range(2 * n + 1)
            if k + l >= 2 * n]


def _dims(lo, hi):
    return range(lo, hi + 1)


def cold_cells():
    """(kind, label, cost_s, grid) for every cell; grid lists argv tuples.

    A cell is one command at one dimension (or one band of dimensions for the
    commands that take milliseconds).  cost_s is the op time measured at the
    seed commit; it only balances the decks.
    """
    # U(n) tables: the display basis costs up to 2x, so each cell fixes it,
    # in turn over the dimensions; every run still shows every basis.
    un_kin = {6: .08, 7: .16, 8: .31, 9: .38, 10: .82, 11: 1.52, 12: .89,
              13: 1.66, 14: 2.91}
    un_add = {6: .11, 7: .21, 8: .30, 9: .57, 10: 1.08, 11: 1.13, 12: 1.69,
              13: 2.53, 14: 2.65}
    tasaki = {2: .01, 8: .30, 9: .46, 10: .68, 11: .99, 12: 1.37, 13: 1.88,
              14: 2.55}
    first = {4: .04, 5: .055, 6: .12, 7: .21, 8: .37}
    un_verify = {4: .08, 5: .17, 6: .36, 7: .70, 8: 1.34, 9: 2.49, 10: 4.29}
    bfs = {4: .07, 5: .22, 6: .52, 7: 1.18, 8: 2.38, 9: 4.52}
    conj = {4: .045, 5: .12, 6: .30, 7: .66, 8: 1.30, 9: 2.35}
    verify = {3: .14, 4: .31, 5: .54}

    cells = []
    for shift, (table, costs) in enumerate((("kinematic", un_kin),
                                            ("additive", un_add))):
        for n, cost in costs.items():
            b = UN_BASES[(n + shift) % len(UN_BASES)]
            grid = [("un", table, "--dim", str(n), "--basis", b, "--format", f)
                    for f in FORMATS]
            cells.append((f"un-{table}", f"n={n} {b}", cost, grid))
    for n, cost in tasaki.items():
        cells.append(("un-tasaki-matrices", f"n={n}", cost,
                      [("un", "tasaki-matrices", "--dim", str(n))]))
    for n, cost in first.items():
        grid = [("un", "firstorder", "--dim", str(n), "--deg-a", str(k),
                 "--deg-b", str(l), "--space", s)
                for k, l in _firstorder_pairs(n)
                for s in ("euclidean", "projective")]
        cells.append(("un-firstorder", f"n={n}", cost, grid))
    for n, cost in un_verify.items():
        cells.append(("un-verify", f"n={n}", cost,
                      [("un", "verify", "--dim", str(n))]))
    for check, costs in (("bfs", bfs), ("conjecture", conj)):
        for n, cost in costs.items():
            cells.append((f"spaceform-complex-{check}", f"n={n}", cost,
                          [("spaceform", "complex", "--dim", str(n),
                            "--check", check)]))
    for lo, hi in REAL_BANDS:
        grid = []
        for n in _dims(lo, hi):
            for f in FORMATS:
                grid.append(("spaceform", "real", "--dim", str(n), "--format", f))
                grid.append(("spaceform", "real", "--dim", str(n), "--format", f,
                             "--lambda-eval", "1"))
        cells.append(("spaceform-real", f"n={lo}-{hi}", .01, grid))
    for lo, hi in SO_BANDS:
        kin = [("so", "kinematic", "--dim", str(n), "--basis", b,
                "--normalization", z, "--format", f)
               for n in _dims(lo, hi) for b in SO_BASES
               for z in ("standard", "unit") for f in FORMATS]
        add = [("so", "additive", "--dim", str(n), "--basis", b, "--format", f)
               for n in _dims(lo, hi) for b in SO_BASES for f in FORMATS]
        cells.append(("so-kinematic", f"n={lo}-{hi}", .005, kin))
        cells.append(("so-additive", f"n={lo}-{hi}", .005, add))
    for n, cost in verify.items():
        cells.append(("verify", f"n={n}", cost,
                      [("verify", "--max-dim", str(n))]))
    return cells


# A cold deck takes all but one of every COLD_STRATUM cells that are
# neighbours in cost rank; COLD_STRATUM decks leave out each cell once.
COLD_STRATUM = 3

# Byte-for-byte anchors against the committed golden documents.
ANCHORS = (
    (("un", "tasaki-matrices", "--dim", "2"), "tests/golden/tasaki_n2.json"),
    (("so", "kinematic", "--dim", "3", "--basis", "mu"),
     "tests/golden/so3_chi_mu.json"),
)


def cold_strata():
    """The cells ranked by cost and cut into groups of COLD_STRATUM neighbours.

    Taking the same share of every group keeps a deck's cost quantiles close
    to those of the whole grid, whichever cells the seed picks.
    """
    cells = sorted(cold_cells(), key=lambda c: (-c[2], c[0], c[1]))
    return [cells[i:i + COLD_STRATUM] for i in range(0, len(cells), COLD_STRATUM)]


def cold_key(argv):
    return " ".join(argv)


def cold_plan(rng, decks):
    """Deck d leaves out cell (offset + d) mod COLD_STRATUM of each full group."""
    strata = cold_strata()
    offsets = [rng.randrange(COLD_STRATUM) for _ in strata]
    decks_out = []
    for d in range(decks):
        deck = []
        for group, offset in zip(strata, offsets):
            skip = (offset + d) % COLD_STRATUM
            for i, (kind, _, _, grid) in enumerate(group):
                if i == skip and len(group) == COLD_STRATUM:
                    continue
                argv = list(rng.choice(grid))
                deck.append({"kind": kind, "key": cold_key(argv), "argv": argv})
        rng.shuffle(deck)
        decks_out.append(deck)
    return decks_out


def cold_grid():
    """Every argv of the exact-cold grid, for the reference digests.  The
    U(n) tables are listed in every basis, though a cell fixes one."""
    grid = [list(argv) for _, _, _, cell_grid in cold_cells() for argv in cell_grid
            if argv[:2] not in (("un", "kinematic"), ("un", "additive"))]
    grid += [["un", t, "--dim", str(n), "--basis", b, "--format", f]
             for t in ("kinematic", "additive") for n in range(6, 15)
             for b in UN_BASES for f in FORMATS]
    return grid


# -- exact-warm ----------------------------------------------------------------

WARM_DIMS = (6, 8, 10)
SO_WARM_DIMS = range(2, 17)


def _hilbert(n):
    """Dimensions of the U(n) valuation algebra by degree (the closed form
    of hermitian.poincare_series_coefficients, kept here so plans need no
    import of the program)."""
    num = {0: 1, n + 1: -1, n + 2: -1, 2 * n + 3: 1}
    return [sum(num.get(d - e, 0) * (e // 2 + 1) for e in range(d + 1))
            for d in range(2 * n + 1)]


def warm_groups():
    """{group: [subgroup, ...]}, each subgroup a list of queries.

    A deck draws WARM_SLOTS[group] queries from each group, taking the
    subgroups of a group in turn, so every run holds the same number of
    queries of each table, basis and space.
    """
    groups = {}
    for n in WARM_DIMS:
        groups[f"un-n{n}"] = [
            [{"q": "un", "n": n, "table": t, "basis": b, "k": k, "i": i}
             for k, dim in enumerate(_hilbert(n)) for i in range(dim)]
            for t in ("kinematic", "additive") for b in UN_BASES]
        groups[f"firstorder-n{n}"] = [
            [{"q": "firstorder", "n": n, "k": k, "l": l, "space": s}
             for k, l in _firstorder_pairs(n)]
            for s in ("euclidean", "projective")]
    groups["so"] = [[{"q": "so", "n": n, "table": t, "basis": b, "k": k}
                     for n in SO_WARM_DIMS for k in range(n + 1) for b in SO_BASES]
                    for t in ("kinematic", "additive")]
    return groups


WARM_SLOTS = {"un-n6": 1, "un-n8": 2, "un-n10": 2, "firstorder-n6": 1,
              "firstorder-n8": 2, "firstorder-n10": 3, "so": 7}


def warm_key(query):
    return " ".join(f"{k}={query[k]}" for k in sorted(query))


def warm_kind(query):
    if query["q"] == "un":
        return f"un-{query['table']}"
    if query["q"] == "so":
        return f"so-{query['table']}"
    return "un-firstorder"


def warm_max_decks():
    """Decks a run can draw before some subgroup runs out."""
    return min(min(len(sub) for sub in subs) * len(subs) // WARM_SLOTS[g]
               for g, subs in warm_groups().items())


def warm_plan(rng, decks):
    """Draw without replacement: each subgroup is shuffled once and dealt out."""
    pools = {}
    for g, subs in warm_groups().items():
        pools[g] = []
        for sub in subs:
            pool = list(sub)
            rng.shuffle(pool)
            pools[g].append(pool)
        rng.shuffle(pools[g])
    decks_out = []
    turn = {g: 0 for g in pools}
    for _ in range(decks):
        deck = []
        for g, slots in WARM_SLOTS.items():
            for _ in range(slots):
                q = pools[g][turn[g] % len(pools[g])].pop()
                turn[g] += 1
                deck.append({"kind": warm_kind(q), "key": warm_key(q), "query": q})
        rng.shuffle(deck)
        decks_out.append(deck)
    return decks_out


def warm_grid():
    return [q for subs in warm_groups().values() for sub in subs for q in sub]


# -- mc ------------------------------------------------------------------------

# Sample-count ladders: step i draws a count from the range ladder[i].  The
# ranges keep op times spread out, with no gaps for the median to jump over.
CHUNK = 1 << 17
MC_LADDER = 4
VECTOR_SAMPLES = tuple((int(c * CHUNK), int((c + 0.5) * CHUNK))
                       for c in (2, 3.5, 5.5, 7.5))   # 2^18 .. 2^20: 2-8 chunks
LOOP_SAMPLES = ((1000, 1600), (1800, 2400), (2600, 3200), (3400, 4000))
SUITE_SAMPLES = ((2 * CHUNK, 2 * CHUNK + CHUNK // 2),)

# Rational points on the unit circle; any subset is in convex position.
_CIRCLE = sorted({(sx * Fraction(a, c), sy * Fraction(b, c))
                  for a, b, c in ((3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13),
                                  (8, 15, 17), (15, 8, 17), (0, 1, 1), (1, 0, 1))
                  for sx in (1, -1) for sy in (1, -1)})


def _q(rng, lo, hi, den=8):
    """A random rational in [lo, hi] with denominator den."""
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def _s(x):
    return str(Fraction(x))


def _ball(rng, n):
    return {"kind": "ball",
            "center": [_s(_q(rng, -Fraction(1, 4), Fraction(1, 4))) for _ in range(n)],
            "radius": _s(_q(rng, Fraction(1, 2), Fraction(3, 2)))}


def _box(rng, n):
    lo = [_q(rng, -1, 0) for _ in range(n)]
    side = [_q(rng, Fraction(1, 2), Fraction(3, 2)) for _ in range(n)]
    return {"kind": "box", "min": [_s(x) for x in lo],
            "max": [_s(x + s) for x, s in zip(lo, side)]}


def _point(rng, n):
    return {"kind": "polytope",
            "vertices": [[_s(_q(rng, -Fraction(1, 2), Fraction(1, 2)))
                          for _ in range(n)]]}


def _polygon(rng, m):
    r = _q(rng, Fraction(1, 2), Fraction(3, 2))
    pts = rng.sample(_CIRCLE, m)
    return {"kind": "polytope", "vertices": [[_s(r * x), _s(r * y)] for x, y in pts]}


def _ball_box(rng, n, ball_first):
    pair = [_ball(rng, n), _box(rng, n)]
    return {"A": pair[0], "B": pair[1]} if ball_first else {"A": pair[1], "B": pair[0]}


def _one(spec):
    return {"A": spec}


_SHAPES = {"ball": _ball, "box": _box}
_POLYGON_SIZES = ((3, 6), (4, 5), (5, 4), (6, 3))

# kind -> (sample ladder, variants, build(rng, variant) -> (argv words, bodies)).
# Step i of a kind's ladder always runs with variant i, so a run of whole
# Latin squares holds the same (samples, variant) pairs for every seed; the
# seed draws sizes, positions, estimator seeds and the deck order.
MC_KINDS = {
    "kinematic-2d-ball-box": (VECTOR_SAMPLES, (True, False, True, False),
                              lambda rng, v: (["kinematic"], _ball_box(rng, 2, v))),
    "kinematic-3d-ball-box": (VECTOR_SAMPLES, (True, False, True, False),
                              lambda rng, v: (["kinematic"], _ball_box(rng, 3, v))),
    "crofton-k1": (VECTOR_SAMPLES, (("ball", 2), ("box", 2), ("ball", 3), ("box", 3)),
                   lambda rng, v: (["crofton", "--k", "1"],
                                   _one(_SHAPES[v[0]](rng, v[1])))),
    "crofton-k2": (VECTOR_SAMPLES, ("ball", "box", "ball", "box"),
                   lambda rng, v: (["crofton", "--k", "2"], _one(_SHAPES[v](rng, 3)))),
    "cauchy": (VECTOR_SAMPLES, (2, 3, 4, 3),
               lambda rng, v: (["cauchy"], _one(_box(rng, v)))),
    "steiner": (VECTOR_SAMPLES, (2, 3, 2, 3),
                lambda rng, v: (["steiner", "--radius", _s(_q(rng, Fraction(1, 4), 1))],
                                _one(_box(rng, v)))),
    "additive-2d-box": (VECTOR_SAMPLES, (2, 2, 2, 2),
                        lambda rng, v: (["additive"], {"A": _box(rng, v), "B": _box(rng, v)})),
    "suite": (SUITE_SAMPLES, (None,), lambda rng, v: (["suite"], None)),
    "kinematic-box-point": (LOOP_SAMPLES, (2, 3, 2, 3),
                            lambda rng, v: (["kinematic"],
                                            {"A": _box(rng, v), "B": _point(rng, v)})),
    "additive-3d-box": (LOOP_SAMPLES, (3, 3, 3, 3),
                        lambda rng, v: (["additive"], {"A": _box(rng, v), "B": _box(rng, v)})),
    "kinematic-polygon": (LOOP_SAMPLES, _POLYGON_SIZES,
                          lambda rng, v: (["kinematic"], {"A": _polygon(rng, v[0]),
                                                          "B": _polygon(rng, v[1])})),
    "additive-polygon": (VECTOR_SAMPLES, _POLYGON_SIZES,
                         lambda rng, v: (["additive"], {"A": _polygon(rng, v[0]),
                                                        "B": _polygon(rng, v[1])})),
}


def mc_plan(rng, decks):
    """Latin-square decks: kind j runs at ladder step (offset_j + deck) mod L,
    so MC_LADDER decks use every sample count of every kind exactly once."""
    offsets = {kind: rng.randrange(MC_LADDER) for kind in MC_KINDS}
    decks_out = []
    for d in range(decks):
        deck = []
        for kind, (ladder, variants, build) in MC_KINDS.items():
            step = (offsets[kind] + d) % len(ladder)
            words, bodies = build(rng, variants[step])
            argv = ["mc"] + words + ["--samples", str(rng.randint(*ladder[step])),
                                     "--seed", str(rng.randrange(1, 2 ** 31))]
            deck.append({"kind": kind, "argv": argv, "bodies": bodies})
        rng.shuffle(deck)
        for i, op in enumerate(deck):
            if op["bodies"] is not None:
                op["argv"] += ["--bodies", f"bodies-{d}-{i}.json"]
            op["key"] = cold_key(op["argv"])
        decks_out.append(deck)
    return decks_out
