"""Deterministic documents: JSON, CSV and LaTeX for formula tables, and the
Monte Carlo CSV log.  Check reports are ``checks.Report``.

Every emitted table embeds its group, dimension, normalization tag and basis
tag; coefficients are exact (rationals as strings, pi powers explicit, and a
space-form entry {lam_pow: Scalar} as its list of lam powers).  Every format
is written from one stream, the table's ``cells``: sorted (left degree, left
index, right degree, right index, coefficient) tuples whose coefficient is
(num, den, pi power) or {lam power: (num, den, pi power)}, with the labels
every table carries for every degree.  JSON is written as text, byte for
byte what ``emit_json`` writes for the same document (sorted keys, no
spaces), with labels and tags quoted by ``json.dumps``; CSV goes through
``csv.writer``.  Identical inputs produce identical bytes, and no float
enters a formula document.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .scalars import Scalar, cell_coefficient


def _text(c):
    """A cell coefficient as CSV and report text."""
    if isinstance(c, dict):
        return " + ".join(f"({_text(x)})" + ("" if j == 0 else f"*lam^{j}")
                          for j, x in sorted(c.items())) or "0"
    num, den, p = c
    frac = str(num) if den == 1 else f"{num}/{den}"
    return frac if p == 0 else f"{frac}*pi^{p}"


def scalar_to_string(s):
    """A rational, a Scalar, or a curvature entry {lam_pow: Scalar}."""
    return _text(cell_coefficient(s))


def scalar_to_json(s):
    if isinstance(s, (int, Fraction)):
        s = Scalar.from_rational(s)
    if isinstance(s, dict):
        return {"lam_terms": [{"lam_pow": j, "scalar": scalar_to_json(c)}
                              for j, c in sorted(s.items())]}
    return s.to_json()


def _json(c):
    """A cell coefficient as the JSON text of ``scalar_to_json``."""
    if isinstance(c, dict):
        return '{"lam_terms":[' + ",".join(
            f'{{"lam_pow":{j},"scalar":{_json(x)}}}' for j, x in sorted(c.items())) + "]}"
    num, den, p = c
    return f'{{"terms":[{{"den":"{den}","num":"{num}","pi_pow":{p}}}]}}' if num \
        else '{"terms":[]}'


def _latex(c):
    """A cell coefficient as LaTeX."""
    if isinstance(c, dict):
        return " + ".join(
            f"\\left({_latex(x)}\\right)"
            + ("" if j == 0 else "\\lambda" if j == 1 else f"\\lambda^{{{j}}}")
            for j, x in sorted(c.items())) or "0"
    num, den, p = c
    frac = str(num) if den == 1 else \
        f"{'-' if num < 0 else ''}\\tfrac{{{abs(num)}}}{{{den}}}"
    if p == 0:
        return frac
    return f"{frac}\\,\\pi" if p == 1 else f"{frac}\\,\\pi^{{{p}}}"


def emit_json(doc):
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _table_json(table):
    """The table's document (FormulaTableDocument) as the bytes ``emit_json``
    writes for it: its tags, then one term per cell."""
    labels = table.json_labels()
    terms = ",".join(
        f'{{"coefficient":{_json(c)},"left_degree":{ld},"left_index":{li},'
        f'"left_label":{labels[ld][li]},"right_degree":{rd},"right_index":{ri},'
        f'"right_label":{labels[rd][ri]}}}'
        for ld, li, rd, ri, c in table.cells())
    tags = [json.dumps(t) for t in (table.basis, table.dim, table.group,
                                    table.normalization)]
    return ('{{"basis":{},"dimension":{},"group":{},"normalization":{},"terms":['
            .format(*tags) + terms + "]}\n").encode()


def _table_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "dimension", "normalization", "basis",
                     "left_degree", "left_index", "left_label",
                     "right_degree", "right_index", "right_label", "coefficient"])
    tags = [table.group, table.dim, table.normalization, table.basis]
    labels = table.basis_labels
    writer.writerows(tags + [ld, li, labels[ld][li], rd, ri, labels[rd][ri], _text(c)]
                     for ld, li, rd, ri, c in table.cells())
    return buf.getvalue().encode()


def _table_latex(table):
    labels = table.basis_labels
    lines = [
        f"% group {table.group}, dimension {table.dim}, "
        f"normalization {table.normalization}, basis {table.basis}",
        "\\begin{array}{lll}",
        "\\text{left} & \\text{right} & \\text{coefficient} \\\\",
    ]
    lines.extend(f"{labels[ld][li]} & {labels[rd][ri]} & {_latex(c)} \\\\"
                 for ld, li, rd, ri, c in table.cells())
    lines.append("\\end{array}")
    return ("\n".join(lines) + "\n").encode()


def emit_table(table, fmt):
    if fmt == "json":
        return _table_json(table)
    if fmt == "csv":
        return _table_csv(table)
    if fmt == "latex":
        return _table_latex(table)
    raise ValueError(f"unknown format {fmt!r}")


def emit_mc_csv(estimates):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["test", "seed", "samples", "estimate", "stderr",
                     "prediction", "z"])
    for e in estimates:
        row = e.row()
        writer.writerow([row["test"], row["seed"], row["samples"],
                         row["estimate"], row["stderr"], row["prediction"],
                         row["z"]])
    return buf.getvalue().encode()
