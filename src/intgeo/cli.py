"""Command-line front end.

Subcommands: ``so`` (euclidean tables), ``un`` (hermitian tables), ``spaceform``
(curvature families), ``mc`` (Monte Carlo estimators), ``verify`` (the full
exact check battery plus a statistical gate).

Exit codes: 0 success, 1 verification failure (an exact check failed or some
|z| > 4), 2 usage error.  Every run logs its resolved configuration to
stderr.  A config file of key=value lines supplies defaults for the chosen
command's long flags, required ones included; the command line wins.  The
INTGEO_OUT_DIR environment variable prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import emitters, euclid, hermitian, montecarlo, spaceforms
from .bodies import ConvexBody, body_from_spec
from .scalars import Scalar, omega


def _load_config(path):
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2)
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            print(f"error: {path}:{lineno}: expected key=value", file=sys.stderr)
            raise SystemExit(2)
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(command_parser, path):
    """Make each key of the config file the default of the flag it names, so
    the command line still wins and a required flag may come from the file."""
    flags = {a.dest: a for a in command_parser._actions
             if a.option_strings and a.dest != "help"}
    for key, value in _load_config(path).items():
        if key not in flags:
            print(f"error: {path}: unknown key {key}", file=sys.stderr)
            raise SystemExit(2)
        if flags[key].choices is not None and value not in flags[key].choices:
            print(f"error: {path}: {key} must be one of "
                  f"{', '.join(flags[key].choices)}", file=sys.stderr)
            raise SystemExit(2)
        flags[key].default = value
        flags[key].required = False


def _write_output(data, out):
    if out:
        base = os.environ.get("INTGEO_OUT_DIR", "")
        if base and not os.path.isabs(out):
            out = os.path.join(base, out)
        with open(out, "wb") as fh:
            fh.write(data)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(data)


def _log_config(args):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {resolved}", file=sys.stderr)


def _unused_flag(flag, where):
    print(f"error: {flag} has no effect on {where}", file=sys.stderr)
    return 2


# -- so ------------------------------------------------------------------------

def cmd_so(args):
    _log_config(args)
    n = args.dim
    phi = None
    if args.phi_degree is not None:
        phi = euclid.SOValuation.from_coeffs(
            n, {args.phi_degree: Scalar.one()}, basis=args.basis)
    if args.table == "kinematic":
        table = euclid.kinematic_so(n, phi, basis=args.basis,
                                    normalization=args.normalization)
    else:
        table = euclid.additive_so(n, phi, basis=args.basis)
    _write_output(emitters.emit_table(table, args.format), args.out)
    return 0


# -- un ------------------------------------------------------------------------

def cmd_un(args):
    _log_config(args)
    n = args.dim
    fmt = args.format or "json"
    basis = args.basis or "tasaki"
    if args.table not in ("kinematic", "additive"):
        if args.format is not None:
            return _unused_flag("--format", f"un {args.table}, which has one output form")
        if args.basis is not None:
            return _unused_flag("--basis", f"un {args.table}, which has one basis")
    if args.table != "firstorder":
        for flag, value in (("--space", args.space), ("--deg-a", args.deg_a),
                            ("--deg-b", args.deg_b)):
            if value is not None:
                return _unused_flag(flag, f"un {args.table}; only un firstorder "
                                    "reads it")
    if args.table == "kinematic":
        table = hermitian.convert_un_table(hermitian.kinematic_un(n), n, basis)
        _write_output(emitters.emit_table(table, fmt), args.out)
        return 0
    if args.table == "additive":
        table = hermitian.convert_un_table(hermitian.additive_un(n), n, basis)
        _write_output(emitters.emit_table(table, fmt), args.out)
        return 0
    if args.table == "tasaki-matrices":
        mats = hermitian.tasaki_matrices(n)
        doc = {
            "group": "U", "dimension": n, "normalization": "standard",
            "basis": "tasaki x fourier-tasaki",
            "matrices": {
                str(k): [[emitters.scalar_to_json(c) for c in row] for row in m]
                for k, m in sorted(mats.items())
            },
        }
        _write_output(emitters.emit_json(doc), args.out)
        return 0
    if args.table == "firstorder":
        space = args.space or "euclidean"
        ker = hermitian.first_order_formula(n, args.deg_a, args.deg_b, space=space)
        doc = {
            "group": "U", "dimension": n, "space": space,
            "degrees": [ker.k, ker.l],
            "left_perp": ker.left_perp, "right_perp": ker.right_perp,
            "coefficients": [
                {"q_left": ql, "q_right": qr,
                 "value": emitters.scalar_to_json(c)}
                for (ql, qr), c in sorted(ker.coeffs.items())
            ],
        }
        _write_output(emitters.emit_json(doc), args.out)
        return 0
    if args.table == "verify":
        lines, failures = hermitian_checks(n)
        for k in range(1, n + 1):
            c = hermitian.mu_k0_fk_ratio(n, k)
            lines.append(f"INFO mu_{k},0 / f_{k} = {emitters.scalar_to_string(c)}")
        for l in range(1, n + 1):
            c = hermitian.complex_flat_constant(l)
            lines.append(f"INFO complex-flat average constant for degree {l} = "
                         f"{emitters.scalar_to_string(c)}")
        _write_output(emitters.emit_report(lines, failures), args.out)
        return 0 if not failures else 1
    raise SystemExit(2)


# -- spaceform -------------------------------------------------------------------

def cmd_spaceform(args):
    _log_config(args)
    n = args.dim
    if args.lambda_eval is not None and (args.family != "real"
                                         or Fraction(args.lambda_eval) != 1):
        print("error: --lambda-eval takes only the value 1, and only for the "
              "real family (sphere values at unit curvature)", file=sys.stderr)
        return 2
    if args.family == "real" and args.check is not None:
        return _unused_flag("--check", "spaceform real; the checks are for "
                            "the complex family")
    if args.family == "complex" and args.format is not None:
        return _unused_flag("--format", "spaceform complex, which prints a "
                            "check report")
    if args.family == "real":
        algebra = spaceforms.real_space_form(n)
        table = algebra.kinematic()
        lines = []
        if args.lambda_eval is not None:
            for j in range(n + 1):
                vals = [emitters.scalar_to_string(
                    algebra.sphere_value(algebra.tau(i), j)) for i in range(n + 1)]
                lines.append(f"INFO sphere S^{j}: tau values {vals}")
        data = emitters.emit_table(table, args.format or "json")
        if lines:
            data += emitters.emit_report(lines, [])
        _write_output(data, args.out)
        return 0
    # complex family checks
    check = args.check or "bfs"
    lines = []
    failures = []
    if check == "bfs":
        ok, dims = spaceforms.curved_ideal_matches_projective_kernel(n)
        line = (f"{'PASS' if ok else 'FAIL'} curved ideal at lam=1 equals the "
                f"projective evaluation kernel (initial dims {dims})")
        lines.append(line)
        if not ok:
            failures.append(line)
    elif check == "conjecture":
        res = spaceforms.fbar_relations_check(n)
        for i, good in sorted(res.items()):
            line = f"{'PASS' if good else 'FAIL'} relation component {i} reduces to 0"
            lines.append(line)
            if not good:
                failures.append(line)
    elif check == "chapoton":
        ok, f, g = spaceforms.chapoton_check(12)
        line = (f"{'PASS' if ok else 'FAIL'} functional equations reproduce the "
                f"closed-form coefficients up to order 12")
        lines.append(line)
        if not ok:
            failures.append(line)
    else:
        raise SystemExit(2)
    _write_output(emitters.emit_report(lines, failures), args.out)
    return 0 if not failures else 1


# -- mc -------------------------------------------------------------------------

def _default_bodies(n, test):
    if test == "additive":
        return (ConvexBody.cube(n, 1), ConvexBody.cube(n, 1))
    return (ConvexBody.ball([0] * n, 1), ConvexBody.cube(n, 1))


def _load_bodies(args, need=2):
    if args.bodies:
        with open(args.bodies) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "A" in doc:
            bodies = [body_from_spec(doc["A"])]
            if "B" in doc:
                bodies.append(body_from_spec(doc["B"]))
        elif isinstance(doc, list):
            bodies = [body_from_spec(d) for d in doc]
        else:
            bodies = [body_from_spec(doc)]
    else:
        bodies = list(_default_bodies(args.dim or 2, args.test))
    if len(bodies) < need:
        raise SystemExit(2)
    return bodies


def cmd_mc(args):
    _log_config(args)
    samples = args.samples or 10 ** 6
    seed = args.seed if args.seed is not None else 20260809
    where = f"mc {args.test}"
    if args.k is not None and args.test != "crofton":
        return _unused_flag("--k", where)
    if args.radius is not None and args.test != "steiner":
        return _unused_flag("--radius", where)
    if args.test == "suite" and args.bodies:
        return _unused_flag("--bodies", "mc suite, which has its own bodies")
    if args.dim is not None and (args.test == "suite" or args.bodies):
        return _unused_flag("--dim", "mc suite or mc with --bodies, whose "
                            "bodies fix the dimension")
    if args.test == "suite":
        runs = montecarlo.default_suite(samples=samples, seed=seed)
    else:
        bodies = _load_bodies(args, need=2 if args.test in ("kinematic", "additive") else 1)
        a = bodies[0]
        if args.test == "kinematic":
            runs = [montecarlo.estimate_principal_kinematic(a, bodies[1], samples, seed)]
        elif args.test == "additive":
            runs = [montecarlo.estimate_additive(a, bodies[1], samples, seed)]
        elif args.test == "crofton":
            runs = [montecarlo.estimate_crofton(a, args.k or 1, samples, seed)]
        else:
            box = next((body for body in bodies if body.kind == "box"), None)
            if box is None:
                print("error: this estimator needs a box body", file=sys.stderr)
                return 2
            if args.test == "steiner":
                runs = [montecarlo.steiner_mc(box, Fraction(args.radius or "1"),
                                              samples, seed)]
            else:  # cauchy
                sides = [hi - lo for lo, hi in zip(box.lo, box.hi)]
                runs = [montecarlo.cauchy_projection_check(sides, samples, seed)]
    _write_output(emitters.emit_mc_csv(runs), args.out)
    bad = [r for r in runs if abs(r.z) > 4]
    for r in runs:
        print(f"{r.name}: estimate {r.mean:.6f} prediction "
              f"{r.prediction if r.prediction is not None else 'n/a'} z {r.z:.3f}",
              file=sys.stderr)
    return 1 if bad else 0


# -- verify -----------------------------------------------------------------------

def scalar_checks():
    lines, failures = [], []

    def record(ok, text):
        line = f"{'PASS' if ok else 'FAIL'} {text}"
        lines.append(line)
        if not ok:
            failures.append(line)

    import math
    ok = all(omega(n) * omega(n + 1)
             == Scalar.pi_power(n, Fraction(2 ** (n + 1), math.factorial(n + 1)))
             for n in range(51))
    record(ok, "ball-volume product identity, n <= 50")
    ok = all(omega(n) / omega(n - 2) == Scalar.pi_power(1, Fraction(2, n))
             for n in range(2, 51))
    record(ok, "ball-volume ratio identity, n <= 50")
    return lines, failures


def euclid_checks(max_dim):
    lines, failures = [], []

    def record(ok, text):
        line = f"{'PASS' if ok else 'FAIL'} {text}"
        lines.append(line)
        if not ok:
            failures.append(line)

    ok = all(euclid.kinematic_via_pairing(n).entries == euclid.kinematic_so(n).entries
             for n in range(1, max_dim + 1))
    record(ok, f"kinematic table equals pairing inversion, n <= {max_dim}")

    ok = True
    for n in range(1, max_dim + 1):
        info = euclid.nijenhuis_constants(n)
        ok = ok and info["kinematic_all_ones"] and info["additive_all_ones"]
    record(ok, f"unit-coefficient presentations of both coproducts, n <= {max_dim}")

    ok = all(euclid.kinematic_so(n, basis="psi").entries
             == euclid.additive_so(n).entries for n in range(1, max_dim + 1))
    record(ok, f"chi kinematic table equals volume additive table, n <= {max_dim}")

    ok = True
    for n in range(1, max_dim + 1):
        def leg_hat(leg, nn=n):
            d = leg[0]
            h = euclid.t_mu_coefficient(d) * euclid.t_mu_coefficient(nn - d).inverse()
            return {(nn - d, 0): h}
        for k in range(n + 1):
            phi = euclid.SOValuation.from_coeffs(n, {k: Scalar.one()}, basis="psi")
            conj = euclid.kinematic_so(n, euclid.fourier_so(n, phi)).map_legs(
                leg_hat, leg_hat)
            if conj.entries != euclid.additive_so(n, phi, basis="t").entries:
                ok = False
    record(ok, f"additive operator equals Fourier-conjugated kinematic, n <= {max_dim}")

    ok = all(euclid.mu_product_coefficient(n, i, j)
             == euclid.mu_product_coefficient_via_t(n, i, j)
             for n in range(1, max_dim + 1)
             for i in range(n + 1) for j in range(n + 1 - i))
    record(ok, f"intrinsic-volume product coefficients by two routes, n <= {max_dim}")

    ok = all(_coassoc_so(n) for n in range(1, max_dim + 1))
    record(ok, f"kinematic coproduct coassociative and cocommutative, n <= {max_dim}")

    ok = True
    for n in range(1, max_dim + 1):
        ball = euclid.TemplateBody.ball(Fraction(3, 2))
        poly = euclid.steiner_polynomial(ball, n)
        from .scalars import binomial
        expect = {n - i: omega(n) * Fraction(binomial(n, i) * Fraction(3, 2) ** i)
                  for i in range(n + 1)}
        if poly != expect:
            ok = False
    record(ok, f"tube polynomial of a ball matches the binomial expansion, n <= {max_dim}")
    return lines, failures


def _coassoc_so(n):
    table = euclid.kinematic_so(n)
    if not table.is_swap_symmetric():
        return False
    left = {}
    right = {}
    for ((a, _), (b, _)), c in table.entries.items():
        for ((x, _), (y, _)), c2 in euclid.kinematic_so(
                n, euclid.SOValuation.from_coeffs(n, {a: Scalar.one()})).entries.items():
            key = (x, y, b)
            left[key] = left.get(key, Scalar.zero()) + c * c2
        for ((x, _), (y, _)), c2 in euclid.kinematic_so(
                n, euclid.SOValuation.from_coeffs(n, {b: Scalar.one()})).entries.items():
            key = (a, x, y)
            right[key] = right.get(key, Scalar.zero()) + c * c2
    left = {k: v for k, v in left.items() if not v.is_zero()}
    right = {k: v for k, v in right.items() if not v.is_zero()}
    return left == right


def hermitian_checks(max_dim):
    lines, failures = [], []

    def record(ok, text):
        line = f"{'PASS' if ok else 'FAIL'} {text}"
        lines.append(line)
        if not ok:
            failures.append(line)

    ok = True
    for n in range(1, max_dim + 1):
        try:
            hermitian.un_algebra(n, "evaluation-kernel")
        except hermitian.PresentationMismatch:
            ok = False
    record(ok, f"relation and evaluation-kernel presentations agree, n <= {max_dim}")

    ok = all(hermitian.un_algebra(n).hilbert_series()
             == hermitian.poincare_series_coefficients(n)
             for n in range(1, max_dim + 1))
    record(ok, f"Hilbert function matches the rational generating function, n <= {max_dim}")

    ok = True
    for n in range(1, max_dim + 1):
        model = hermitian.un_model(n)
        for k in range(2 * n + 1):
            for i in range(model.alg.dimension(k)):
                e = model.alg.basis_element(k, i)
                if model.fourier(model.fourier(e)) != e:
                    ok = False
    record(ok, f"Fourier transform is an involution, n <= {max_dim}")

    ok = True
    for n in range(1, max_dim + 1):
        model = hermitian.un_model(n)
        for l in range(1, n + 1):
            for i in range(model.alg.dimension(2 * l)):
                e = model.alg.basis_element(2 * l, i)
                if model.fourier(model.iota(e)) != model.iota(model.fourier(e)):
                    ok = False
    record(ok, f"iota commutes with the Fourier transform, n <= {max_dim}")

    ok = True
    for n in range(1, max_dim + 1):
        mats = hermitian.tasaki_matrices(n)
        for k, m in mats.items():
            for i in range(len(m)):
                for j in range(len(m)):
                    if m[i][j] != m[j][i]:
                        ok = False
            if k % 2 == 0 and k <= n:
                l = k // 2
                for i in range(l + 1):
                    for j in range(l + 1):
                        if m[i][j] != m[l - i][l - j]:
                            ok = False
    record(ok, f"Tasaki matrices symmetric and palindromic, n <= {max_dim}")
    return lines, failures


def spaceform_checks(max_dim):
    lines, failures = [], []

    def record(ok, text):
        line = f"{'PASS' if ok else 'FAIL'} {text}"
        lines.append(line)
        if not ok:
            failures.append(line)

    ok = True
    for n in range(1, max_dim + 1):
        v = spaceforms.real_space_form(n)
        for j in range(1, n + 1):
            for i in range(0, n - j + 1):
                if v.phi(j) * v.tau(i) != v.tau(i + j):
                    ok = False
    record(ok, f"reproductive property of the transfer basis, n <= {max_dim}")

    ok = True
    for n in range(2, max_dim + 1):
        v = spaceforms.real_space_form(n)
        from .scalars import LambdaScalar
        if v.chi() != v.tau(0) + v.phi(2).scale(LambdaScalar.lam_power(1, Fraction(1, 4))):
            ok = False
    record(ok, f"Euler characteristic decomposes through the hyperplane square, n <= {max_dim}")

    ok = True
    for n in range(1, max_dim + 1):
        v = spaceforms.real_space_form(n)
        try:
            v.kinematic()
        except AssertionError:
            ok = False
        if not v.kinematic_matches_flat():
            ok = False
    record(ok, f"curved kinematic routes agree and specialize to flat, n <= {max_dim}")

    ok = all(spaceforms.curved_ideal_matches_projective_kernel(n)[0]
             for n in range(1, min(max_dim, 5) + 1))
    record(ok, f"curved ideal equals projective kernel at lam=1, n <= {min(max_dim, 5)}")

    ok, _, _ = spaceforms.chapoton_check(12)
    record(ok, "functional equations reproduce the conjecture coefficients")
    return lines, failures


def cmd_verify(args):
    _log_config(args)
    if args.seed is not None and not args.mc_samples:
        return _unused_flag("--seed", "verify without --mc-samples, which "
                            "draws no samples")
    max_dim = args.max_dim or 4
    lines, failures = [], []
    for name, fn in [("scalars", scalar_checks),
                     ("euclidean", lambda: euclid_checks(max_dim)),
                     ("hermitian", lambda: hermitian_checks(max_dim)),
                     ("space forms", lambda: spaceform_checks(max_dim))]:
        sub_lines, sub_failures = fn()
        lines.extend(f"[{name}] {l}" for l in sub_lines)
        failures.extend(sub_failures)
    if args.mc_samples:
        runs = montecarlo.default_suite(samples=args.mc_samples,
                                        seed=args.seed or 20260809)
        for r in runs:
            ok = abs(r.z) <= 4
            line = f"[monte carlo] {'PASS' if ok else 'FAIL'} {r.name} z={r.z:.3f}"
            lines.append(line)
            if not ok:
                failures.append(line)
    _write_output(emitters.emit_report(lines, failures), args.out)
    return 0 if not failures else 1


# -- parser ------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="intgeo",
        description="exact kinematic formulas with Monte Carlo verification")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    so = sub.add_parser("so", help="euclidean rotation-group tables")
    so.add_argument("table", choices=["kinematic", "additive"])
    so.add_argument("--dim", type=int, required=True)
    so.add_argument("--basis", default="t",
                    choices=["t", "mu", "psi", "nijenhuis"])
    so.add_argument("--normalization", default="standard",
                    choices=["standard", "unit"])
    so.add_argument("--phi-degree", type=int, default=None)
    so.add_argument("--format", default="json", choices=["json", "csv", "latex"])
    so.add_argument("--out")
    so.set_defaults(func=cmd_so)

    un = sub.add_parser("un", help="hermitian unitary-group tables")
    un.add_argument("table", choices=["kinematic", "additive", "tasaki-matrices",
                                      "firstorder", "verify"])
    un.add_argument("--dim", type=int, required=True)
    un.add_argument("--basis", choices=["monomial", "tasaki", "hermitian"],
                    help="kinematic and additive tables only (default tasaki)")
    un.add_argument("--deg-a", type=int, default=None, help="firstorder only")
    un.add_argument("--deg-b", type=int, default=None, help="firstorder only")
    un.add_argument("--space", choices=["euclidean", "projective"],
                    help="firstorder only (default euclidean)")
    un.add_argument("--format", choices=["json", "csv", "latex"],
                    help="kinematic and additive tables only (default json)")
    un.add_argument("--out")
    un.set_defaults(func=cmd_un)

    sf = sub.add_parser("spaceform", help="constant-curvature families")
    sf.add_argument("family", choices=["real", "complex"])
    sf.add_argument("--dim", type=int, required=True)
    sf.add_argument("--check", choices=["bfs", "conjecture", "chapoton"],
                    help="complex family only (default bfs)")
    sf.add_argument("--lambda-eval", default=None)
    sf.add_argument("--format", choices=["json", "csv", "latex"],
                    help="real family only (default json)")
    sf.add_argument("--out")
    sf.set_defaults(func=cmd_spaceform)

    mc = sub.add_parser("mc", help="Monte Carlo estimators")
    mc.add_argument("test", choices=["kinematic", "crofton", "cauchy",
                                     "steiner", "additive", "suite"])
    mc.add_argument("--dim", type=int,
                    help="dimension of the default bodies (default 2)")
    mc.add_argument("--bodies", help="JSON body specification file")
    mc.add_argument("--samples", type=int, default=None)
    mc.add_argument("--seed", type=int, default=None)
    mc.add_argument("--k", type=int, default=None, help="crofton only (default 1)")
    mc.add_argument("--radius", default=None, help="steiner only (default 1)")
    mc.add_argument("--out")
    mc.set_defaults(func=cmd_mc)

    ver = sub.add_parser("verify", help="run the exact check battery")
    ver.add_argument("--max-dim", type=int, default=None)
    ver.add_argument("--mc-samples", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None,
                     help="with --mc-samples only")
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    pre = argparse.ArgumentParser(prog="intgeo", add_help=False)
    pre.add_argument("--config")
    pre.add_argument("command", nargs="?")
    known, _ = pre.parse_known_args(argv)
    if known.config and known.command in parser.commands:
        _apply_config(parser.commands[known.command], known.config)
    args = parser.parse_args(argv)
    if args.command == "un" and args.table == "firstorder":
        if args.deg_a is None or args.deg_b is None:
            parser.error("firstorder needs --deg-a and --deg-b")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
