"""Command-line front end.

Subcommands: ``so`` (euclidean tables), ``un`` (hermitian tables), ``spaceform``
(curvature families), ``mc`` (Monte Carlo estimators), ``verify`` (every
check of ``checks.REGISTRY`` plus a statistical gate).  ``un verify`` runs
the registry's hermitian checks; every check report is a ``checks.Report``.

Exit codes: 0 success, 1 verification failure (an exact check failed or some
|z| > 4), 2 usage error.  Every run logs its resolved configuration to
stderr.  A config file of key=value lines supplies defaults for the chosen
command's long flags, required ones included; the command line wins.  The
INTGEO_OUT_DIR environment variable prefixes relative output paths.

Exact commands never load numpy: ``montecarlo`` and ``bodies`` are imported
inside ``cmd_mc`` and the ``--mc-samples`` branch of ``cmd_verify``, so only
``mc`` and ``verify --mc-samples`` pay for numpy, on first use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import checks, emitters, euclid, hermitian, spaceforms
from .scalars import Scalar


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


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _unused_flag(flag, where):
    return _usage_error(f"{flag} has no effect on {where}")


def _unservable_run(samples, seed, samples_flag, suite=False, variance=False):
    """Exit 2, before any work, for a sampling run no estimator can serve, else
    None.  Every Philox key must lie in [0, 2**128); the suite draws from
    seed + SUITE_SEED_STEP * i for each of its runs.  The suite, and an
    estimator whose stderr is a sample variance (``variance``), need at least
    MIN_VARIANCE_SAMPLES samples."""
    from .montecarlo import MIN_VARIANCE_SAMPLES, SUITE_RUNS, SUITE_SEED_STEP
    top = (1 << 128) - 1 - (SUITE_SEED_STEP * (SUITE_RUNS - 1) if suite else 0)
    if not 0 <= seed <= top:
        return _usage_error(f"--seed must lie in 0..{top}, got {seed}")
    if (suite or variance) and samples < MIN_VARIANCE_SAMPLES:
        return _usage_error(f"{samples_flag} must be at least "
                            f"{MIN_VARIANCE_SAMPLES} for estimators that take "
                            f"their stderr from the sample variance, got {samples}")
    return None


def _at_least(low):
    """argparse type: an int no smaller than ``low``, else a usage error."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


# -- so ------------------------------------------------------------------------

def cmd_so(args):
    _log_config(args)
    n = args.dim
    if args.table == "additive" and args.normalization != "standard":
        return _unused_flag("--normalization", "so additive, which always uses "
                            "the probability rotation measure")
    if args.phi_degree is not None and not 0 <= args.phi_degree <= n:
        print(f"error: --phi-degree must lie in 0..{n}", file=sys.stderr)
        return 2
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
    if args.table in ("kinematic", "additive"):
        build = {"kinematic": hermitian.kinematic_un,
                 "additive": hermitian.additive_un}[args.table]
        table = hermitian.convert_un_table(build(n), n, basis)
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
    # verify
    report = checks.Report()
    for check in checks.REGISTRY:
        if check.group == "hermitian":
            report.add(*check.verdict(n))
    for k in range(1, n + 1):
        c = hermitian.mu_k0_fk_ratio(n, k)
        report.lines.append(f"INFO mu_{k},0 / f_{k} = {emitters.scalar_to_string(c)}")
    for l in range(1, n + 1):
        c = hermitian.complex_flat_constant(l)
        report.lines.append(f"INFO complex-flat average constant for degree {l} = "
                            f"{emitters.scalar_to_string(c)}")
    _write_output(report.emit(), args.out)
    return 1 if report.failed else 0


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
        data = emitters.emit_table(table, args.format or "json")
        if args.lambda_eval is not None:
            report = checks.Report()
            for j in range(n + 1):
                vals = [emitters.scalar_to_string(
                    algebra.sphere_value(algebra.tau(i), j)) for i in range(n + 1)]
                report.lines.append(f"INFO sphere S^{j}: tau values {vals}")
            data += report.emit()
        _write_output(data, args.out)
        return 0
    report = checks.Report()
    if args.check in (None, "bfs"):
        report.add(spaceforms.curved_ideal_matches_projective_kernel(n),
                   "curved ideal at lam=1 equals the projective evaluation "
                   f"kernel (initial dims {spaceforms.curved_ideal_dims(n)})")
    elif args.check == "conjecture":
        for i, good in sorted(spaceforms.fbar_relations_check(n).items()):
            report.add(good, f"relation component {i} reduces to 0")
    else:
        report.add(spaceforms.chapoton_check(12)[0], "functional equations "
                   "reproduce the closed-form coefficients up to order 12")
    _write_output(report.emit(), args.out)
    return 1 if report.failed else 0


# -- mc -------------------------------------------------------------------------

def _load_bodies(args, need=2):
    from .bodies import ConvexBody, body_from_spec
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
        n = 2 if args.dim is None else args.dim
        first = (ConvexBody.cube(n, 1) if args.test == "additive"
                 else ConvexBody.ball([0] * n, 1))
        bodies = [first, ConvexBody.cube(n, 1)]
    if len(bodies) < need:
        print(f"error: mc {args.test} needs {need} bodies, {args.bodies} has "
              f"{len(bodies)}", file=sys.stderr)
        raise SystemExit(2)
    return bodies


def cmd_mc(args):
    _log_config(args)
    samples = 10 ** 6 if args.samples is None else args.samples
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
    error = _unservable_run(samples, seed, "--samples", suite=args.test == "suite",
                            variance=args.test in ("cauchy", "additive"))
    if error:
        return error
    from . import montecarlo
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
            k = 1 if args.k is None else args.k
            runs = [montecarlo.estimate_crofton(a, k, samples, seed)]
        else:
            box = next((body for body in bodies if body.kind == "box"), None)
            if box is None:
                print("error: this estimator needs a box body", file=sys.stderr)
                return 2
            if args.test == "steiner":
                radius = Fraction("1" if args.radius is None else args.radius)
                if radius < 0:
                    print("error: --radius must be at least 0", file=sys.stderr)
                    return 2
                runs = [montecarlo.steiner_mc(box, radius, samples, seed)]
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

def cmd_verify(args):
    _log_config(args)
    if args.seed is not None and args.mc_samples is None:
        return _unused_flag("--seed", "verify without --mc-samples, which "
                            "draws no samples")
    seed = 20260809 if args.seed is None else args.seed
    if args.mc_samples is not None:
        error = _unservable_run(args.mc_samples, seed, "--mc-samples", suite=True)
        if error:
            return error
    max_dim = 4 if args.max_dim is None else args.max_dim
    report = checks.Report()
    for check in checks.REGISTRY:
        report.add(*check.verdict(max_dim), group=check.group)
    if args.mc_samples is not None:
        from . import montecarlo
        for r in montecarlo.default_suite(samples=args.mc_samples, seed=seed):
            report.add(abs(r.z) <= 4, f"{r.name} z={r.z:.3f}", group="monte carlo")
    _write_output(report.emit(), args.out)
    return 1 if report.failed else 0


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
    so.add_argument("--dim", type=_at_least(0), required=True)
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
    un.add_argument("--dim", type=_at_least(0), required=True)
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
    sf.add_argument("--dim", type=_at_least(0), required=True)
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
    mc.add_argument("--dim", type=_at_least(1),
                    help="dimension of the default bodies (default 2)")
    mc.add_argument("--bodies", help="JSON body specification file")
    mc.add_argument("--samples", type=_at_least(2), default=None)
    mc.add_argument("--seed", type=int, default=None)
    mc.add_argument("--k", type=int, default=None, help="crofton only (default 1)")
    mc.add_argument("--radius", default=None, help="steiner only (default 1)")
    mc.add_argument("--out")
    mc.set_defaults(func=cmd_mc)

    ver = sub.add_parser("verify", help="run the exact check battery")
    ver.add_argument("--max-dim", type=_at_least(1), default=None)
    ver.add_argument("--mc-samples", type=_at_least(2), default=None)
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
