"""Deterministic documents: JSON, CSV and LaTeX for formula tables, and the
Monte Carlo CSV log.  Check reports are ``checks.Report``.

Every emitted table embeds its group, dimension, normalization tag and basis
tag; coefficients are exact (rationals as strings, pi powers explicit, and a
space-form entry {lam_pow: Scalar} as its list of lam powers).
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


def scalar_from_json(doc):
    if "lam_terms" in doc:
        return {t["lam_pow"]: Scalar.from_json(t["scalar"])
                for t in doc["lam_terms"]}
    return Scalar.from_json(doc)


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


def table_document(table):
    """FormulaTableDocument: a pure-data view of a coefficient table."""
    terms = []
    for ((ld, li), (rd, ri)), c in table.sorted_items():
        labels = table.basis_labels
        terms.append({
            "left_degree": ld, "left_index": li,
            "left_label": labels.get(ld, [None] * (li + 1))[li] if labels else None,
            "right_degree": rd, "right_index": ri,
            "right_label": labels.get(rd, [None] * (ri + 1))[ri] if labels else None,
            "coefficient": scalar_to_json(c),
        })
    return {
        "group": table.group,
        "dimension": table.dim,
        "normalization": table.normalization,
        "basis": table.basis,
        "terms": terms,
    }


def emit_json(doc):
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def emit_table_csv(doc):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "dimension", "normalization", "basis",
                     "left_degree", "left_index", "left_label",
                     "right_degree", "right_index", "right_label", "coefficient"])
    for t in doc["terms"]:
        writer.writerow([doc["group"], doc["dimension"], doc["normalization"],
                         doc["basis"], t["left_degree"], t["left_index"],
                         t["left_label"], t["right_degree"], t["right_index"],
                         t["right_label"],
                         scalar_to_string(scalar_from_json(t["coefficient"]))])
    return buf.getvalue().encode()


def emit_table_latex(doc):
    lines = [
        f"% group {doc['group']}, dimension {doc['dimension']}, "
        f"normalization {doc['normalization']}, basis {doc['basis']}",
        "\\begin{array}{lll}",
        "\\text{left} & \\text{right} & \\text{coefficient} \\\\",
    ]
    for t in doc["terms"]:
        left = t["left_label"] or f"({t['left_degree']},{t['left_index']})"
        right = t["right_label"] or f"({t['right_degree']},{t['right_index']})"
        coeff = scalar_to_latex(scalar_from_json(t["coefficient"]))
        lines.append(f"{left} & {right} & {coeff} \\\\")
    lines.append("\\end{array}")
    return ("\n".join(lines) + "\n").encode()


def emit_table(table, fmt):
    doc = table_document(table)
    if fmt == "json":
        return emit_json(doc)
    if fmt == "csv":
        return emit_table_csv(doc)
    if fmt == "latex":
        return emit_table_latex(doc)
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
