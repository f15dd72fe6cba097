"""Deterministic documents: JSON, CSV and LaTeX for formula tables, and the
Monte Carlo CSV log.  Check reports are ``checks.Report``.

Every emitted table embeds its group, dimension, normalization tag and basis
tag; coefficients are exact (rationals as strings, pi powers explicit, and a
space-form entry {lam_pow: Scalar} as its list of lam powers).  Each format
is written from the table itself: ``table_rows`` yields its entries with the
labels every table carries for every degree, JSON turns each coefficient
into data, and CSV and LaTeX format the table's own coefficients as text.
Identical inputs produce identical bytes: keys are sorted, terms are sorted
by bidegree and index, and no floats enter a formula document.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .scalars import Scalar


def scalar_to_string(s):
    """A rational, a Scalar, or a curvature entry {lam_pow: Scalar}."""
    if isinstance(s, (int, Fraction)):
        s = Scalar.from_rational(s)
    if isinstance(s, dict):
        return " + ".join(
            f"({scalar_to_string(c)})" + ("" if j == 0 else f"*lam^{j}")
            for j, c in sorted(s.items())) or "0"
    c, p = s.coeff, s.pi_pow
    frac = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return frac if p == 0 else f"{frac}*pi^{p}"


def scalar_to_json(s):
    if isinstance(s, (int, Fraction)):
        s = Scalar.from_rational(s)
    if isinstance(s, dict):
        return {"lam_terms": [{"lam_pow": j, "scalar": scalar_to_json(c)}
                              for j, c in sorted(s.items())]}
    return s.to_json()


def _latex_frac(c):
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c.numerator < 0 else ""
    return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def scalar_to_latex(s):
    if isinstance(s, (int, Fraction)):
        s = Scalar.from_rational(s)
    if isinstance(s, dict):
        bits = []
        for j, c in sorted(s.items()):
            lam = "" if j == 0 else ("\\lambda" if j == 1 else f"\\lambda^{{{j}}}")
            bits.append(f"\\left({scalar_to_latex(c)}\\right){lam}")
        return " + ".join(bits) or "0"
    frac, p = _latex_frac(s.coeff), s.pi_pow
    if p == 0:
        return frac
    return f"{frac}\\,\\pi" if p == 1 else f"{frac}\\,\\pi^{{{p}}}"


def table_rows(table):
    """The entries sorted by bidegree and index, each as (left degree, left
    index, left label, right degree, right index, right label, coefficient)."""
    labels = table.basis_labels
    for ((ld, li), (rd, ri)), c in table.sorted_items():
        yield ld, li, labels[ld][li], rd, ri, labels[rd][ri], c


def table_document(table):
    """FormulaTableDocument: a pure-data view of a coefficient table."""
    return {
        "group": table.group,
        "dimension": table.dim,
        "normalization": table.normalization,
        "basis": table.basis,
        "terms": [{"left_degree": ld, "left_index": li, "left_label": ll,
                   "right_degree": rd, "right_index": ri, "right_label": rl,
                   "coefficient": scalar_to_json(c)}
                  for ld, li, ll, rd, ri, rl, c in table_rows(table)],
    }


def emit_json(doc):
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def emit_table_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "dimension", "normalization", "basis",
                     "left_degree", "left_index", "left_label",
                     "right_degree", "right_index", "right_label", "coefficient"])
    tags = [table.group, table.dim, table.normalization, table.basis]
    for *legs, c in table_rows(table):
        writer.writerow(tags + legs + [scalar_to_string(c)])
    return buf.getvalue().encode()


def emit_table_latex(table):
    lines = [
        f"% group {table.group}, dimension {table.dim}, "
        f"normalization {table.normalization}, basis {table.basis}",
        "\\begin{array}{lll}",
        "\\text{left} & \\text{right} & \\text{coefficient} \\\\",
    ]
    for _, _, left, _, _, right, c in table_rows(table):
        lines.append(f"{left} & {right} & {scalar_to_latex(c)} \\\\")
    lines.append("\\end{array}")
    return ("\n".join(lines) + "\n").encode()


def emit_table(table, fmt):
    if fmt == "json":
        return emit_json(table_document(table))
    if fmt == "csv":
        return emit_table_csv(table)
    if fmt == "latex":
        return emit_table_latex(table)
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
