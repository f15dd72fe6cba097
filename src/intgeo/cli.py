"""Command-line front end.

Subcommands: ``so`` (euclidean tables), ``un`` (hermitian tables), ``spaceform``
(curvature families), ``mc`` (Monte Carlo estimators), ``verify`` (every
check of ``checks.REGISTRY`` plus a statistical gate).  ``un verify`` runs
the registry's hermitian checks; every check report is a ``checks.Report``.

Exit codes: 0 success, 1 verification failure (an exact check failed or some
|z| > 4), 2 usage error.  Every run logs its resolved configuration to
stderr.  A config file of key=value lines supplies defaults for the chosen
command's long flags, required ones included; the command line wins.  Each
flag is declared once, with the tables that read it and its default (see
``_flag``); a flag or config key given to any other table exits 2.  The
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
    n = args.dim
    if args.phi_degree is not None and not 0 <= args.phi_degree <= n:
        return _usage_error(f"--phi-degree must lie in 0..{n}")
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
    n = args.dim
    if args.table == "verify" and n < 1:
        return _usage_error(f"--dim must be at least 1 for un verify, got {n}")
    if args.table in ("kinematic", "additive"):
        build = {"kinematic": hermitian.kinematic_un,
                 "additive": hermitian.additive_un}[args.table]
        table = hermitian.convert_un_table(build(n), n, args.basis)
        _write_output(emitters.emit_table(table, args.format), args.out)
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
        ker = hermitian.first_order_formula(n, args.deg_a, args.deg_b, space=args.space)
        doc = {
            "group": "U", "dimension": n, "space": args.space,
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
    n = args.dim
    if args.table == "complex" and args.check == "conjecture" and n < 1:
        return _usage_error(f"--dim must be at least 1 for --check conjecture, got {n}")
    if args.lambda_eval is not None and Fraction(args.lambda_eval) != 1:
        return _usage_error("--lambda-eval takes only the value 1 (sphere values "
                            "at unit curvature)")
    if args.table == "real":
        algebra = spaceforms.real_space_form(n)
        table = algebra.kinematic()
        data = emitters.emit_table(table, args.format)
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
    if args.check == "bfs":
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

# The bodies each estimator takes: a --bodies file holds that many, and
# without one the estimator runs on these, in dimension --dim.
DEFAULT_BODIES = {"kinematic": ("ball", "cube"), "additive": ("cube", "cube"),
                  "crofton": ("ball",), "steiner": ("cube",), "cauchy": ("cube",)}


def _load_bodies(args):
    from .bodies import ConvexBody, body_from_spec
    kinds = DEFAULT_BODIES[args.table]
    if not args.bodies:
        make = {"ball": lambda: ConvexBody.ball([0] * args.dim, 1),
                "cube": lambda: ConvexBody.cube(args.dim, 1)}
        return [make[kind]() for kind in kinds]
    with open(args.bodies) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "A" in doc:
        unnamed = sorted(set(doc) - {"A", "B"})
        if unnamed:
            raise ValueError(f"--bodies {args.bodies} names a body {unnamed[0]!r}; "
                             f"its bodies are named A and B")
        doc = [doc[key] for key in ("A", "B") if key in doc]
    elif not isinstance(doc, list):
        doc = [doc]
    if len(doc) != len(kinds):
        raise ValueError(f"--bodies {args.bodies} holds {len(doc)} bodies; "
                         f"mc {args.table} takes {len(kinds)}")
    return [body_from_spec(spec) for spec in doc]


def cmd_mc(args):
    samples, seed = args.samples, args.seed
    error = _unservable_run(samples, seed, "--samples", suite=args.table == "suite",
                            variance=args.table in ("cauchy", "additive"))
    if error:
        return error
    from . import montecarlo
    if args.table == "suite":
        runs = montecarlo.default_suite(samples=samples, seed=seed)
    else:
        bodies = _load_bodies(args)
        a = bodies[0]
        if args.table == "kinematic":
            runs = [montecarlo.estimate_principal_kinematic(a, bodies[1], samples, seed)]
        elif args.table == "additive":
            runs = [montecarlo.estimate_additive(a, bodies[1], samples, seed)]
        elif args.table == "crofton":
            runs = [montecarlo.estimate_crofton(a, args.k, samples, seed)]
        elif args.table == "steiner":
            radius = Fraction(args.radius)
            if radius < 0:
                return _usage_error("--radius must be at least 0")
            runs = [montecarlo.steiner_mc(a, radius, samples, seed)]
        else:  # cauchy
            runs = [montecarlo.cauchy_projection_check(a, samples, seed)]
    _write_output(emitters.emit_mc_csv(runs), args.out)
    bad = [r for r in runs if abs(r.z) > 4]
    for r in runs:
        print(f"{r.name}: estimate {r.mean:.6f} prediction "
              f"{r.prediction if r.prediction is not None else 'n/a'} z {r.z:.3f}",
              file=sys.stderr)
    return 1 if bad else 0


# -- verify -----------------------------------------------------------------------

def cmd_verify(args):
    if args.mc_samples is not None:
        error = _unservable_run(args.mc_samples, args.seed, "--mc-samples", suite=True)
        if error:
            return error
    report = checks.Report()
    for check in checks.REGISTRY:
        report.add(*check.verdict(args.max_dim), group=check.group)
    if args.mc_samples is not None:
        from . import montecarlo
        for r in montecarlo.default_suite(samples=args.mc_samples, seed=args.seed):
            report.add(abs(r.z) <= 4, f"{r.name} z={r.z:.3f}", group="monte carlo")
    _write_output(report.emit(), args.out)
    return 1 if report.failed else 0


# -- parser ------------------------------------------------------------------------

SEED = 20260809  # the default --seed of mc and of verify --mc-samples


def _flag(parser, option, *tables, default=None, help=None, **kwargs):
    """Add ``option`` to a command, read by the named tables (by all when none
    are named) and set to ``default`` when left out.  argparse's own default
    stays None, so main tells a given flag or config key from a left-out one:
    it refuses the first on a table that does not read it, and fills in the
    second.  The flag's help names its tables and default."""
    notes = [help] if help else []
    if tables:
        notes.append(f"read by {', '.join(tables)}")
    if default is not None:
        notes.append(f"default {default}")
    action = parser.add_argument(option, help="; ".join(notes) or None, **kwargs)
    parser.flags[action.dest] = (option, tables, default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="intgeo",
        description="exact kinematic formulas with Monte Carlo verification")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    formats = ["json", "csv", "latex"]

    def command(name, func, help, tables=None):
        cmd = sub.add_parser(name, help=help)
        cmd.flags = {}
        if tables:
            cmd.add_argument("table", choices=tables)
        cmd.add_argument("--out")
        cmd.set_defaults(func=func)
        return cmd

    so = command("so", cmd_so, "euclidean rotation-group tables",
                 ["kinematic", "additive"])
    so.add_argument("--dim", type=_at_least(0), required=True)
    _flag(so, "--basis", default="t", choices=["t", "mu", "psi", "nijenhuis"])
    _flag(so, "--normalization", "kinematic", default="standard",
          choices=["standard", "unit"])
    so.add_argument("--phi-degree", type=int)
    _flag(so, "--format", default="json", choices=formats)

    un = command("un", cmd_un, "hermitian unitary-group tables",
                 ["kinematic", "additive", "tasaki-matrices", "firstorder", "verify"])
    un.add_argument("--dim", type=_at_least(0), required=True)
    _flag(un, "--basis", "kinematic", "additive", default="tasaki",
          choices=["monomial", "tasaki", "hermitian"])
    _flag(un, "--deg-a", "firstorder", type=int)
    _flag(un, "--deg-b", "firstorder", type=int)
    _flag(un, "--space", "firstorder", default="euclidean",
          choices=["euclidean", "projective"])
    _flag(un, "--format", "kinematic", "additive", default="json", choices=formats)

    sf = command("spaceform", cmd_spaceform, "constant-curvature families",
                 ["real", "complex"])
    sf.add_argument("--dim", type=_at_least(0), required=True)
    _flag(sf, "--check", "complex", default="bfs",
          choices=["bfs", "conjecture", "chapoton"])
    _flag(sf, "--lambda-eval", "real")
    _flag(sf, "--format", "real", default="json", choices=formats)

    mc = command("mc", cmd_mc, "Monte Carlo estimators", [*DEFAULT_BODIES, "suite"])
    _flag(mc, "--dim", *DEFAULT_BODIES, default=2, type=_at_least(1),
          help="dimension of the default bodies, not with --bodies")
    _flag(mc, "--bodies", *DEFAULT_BODIES, help="JSON body specification file")
    _flag(mc, "--samples", default=10 ** 6, type=_at_least(2))
    _flag(mc, "--seed", default=SEED, type=int)
    _flag(mc, "--k", "crofton", default=1, type=int)
    _flag(mc, "--radius", "steiner", default="1")

    ver = command("verify", cmd_verify, "run the exact check battery")
    _flag(ver, "--max-dim", default=4, type=_at_least(1))
    ver.add_argument("--mc-samples", type=_at_least(2))
    _flag(ver, "--seed", default=SEED, type=int, help="with --mc-samples only")
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
    # whether these two flags are read depends on another flag; they are
    # checked before the loop below hides whether they were given
    if args.command == "mc" and args.bodies and args.dim is not None:
        return _unused_flag("--dim", "mc with --bodies, whose bodies fix the dimension")
    if args.command == "verify" and args.seed is not None and args.mc_samples is None:
        return _unused_flag("--seed", "verify without --mc-samples")
    for dest, (option, tables, default) in parser.commands[args.command].flags.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif tables and args.table not in tables:
            return _unused_flag(option, f"{args.command} {args.table}")
    _log_config(args)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
