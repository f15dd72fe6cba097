"""Layer tracing from outside the program.

``install()`` replaces public functions and methods of intgeo with wrappers
that record spans (calls, self time, a few counts) or only count calls.  A
function is replaced at every intgeo module that binds it, so a call through
``from .linalg import rref`` in another module is traced too.  Nothing under
``src/`` changes; wrappers return what the wrapped call returns.

Self time is a span's duration minus the durations of the spans it encloses.
Time spent in this module's own bookkeeping is excluded from every self time.
Arithmetic methods of the coefficient rings are counted, never timed: they run
millions of times, and their time shows as self time of the calling span.
"""

import importlib
import pkgutil
import time

_perf = time.perf_counter
_stack = []
_stats = {}
_absent = {}
_errors = {}

# (module, attribute, span name, stat hooks); the attribute may be
# "Class.method".  Several attributes may share one span name.
SPANS = [
    ("linalg", "rref", "linalg.rref", "rref"),
    ("linalg", "kernel_basis", "linalg.kernel_basis", None),
    ("linalg", "invert_exact", "linalg.invert_exact", "invert"),
    ("graded", "QuotientAlgebra.__init__", "graded.QuotientAlgebra.init", "columns"),
    ("graded", "QuotientAlgebra.normal_form_raw",
     "graded.QuotientAlgebra.normal_form_raw", None),
    ("graded", "TensorTable.map_legs", "graded.TensorTable.map_legs", None),
    ("hermitian", "un_algebra", "hermitian.un_algebra", None),
    ("hermitian", "un_model", "hermitian.un_model", None),
    ("hermitian", "kinematic_un", "hermitian.kinematic_un", None),
    ("hermitian", "additive_un", "hermitian.additive_un", None),
    ("hermitian", "tasaki_matrices", "hermitian.tasaki_matrices", None),
    ("hermitian", "monomial_to_sigma", "hermitian.monomial_to_sigma", None),
    ("hermitian", "convert_un_table", "hermitian.convert_un_table", None),
    ("hermitian", "first_order_formula", "hermitian.first_order_formula", None),
    ("spaceforms", "complex_space_form", "spaceforms.complex_space_form", None),
    ("spaceforms", "cp_evaluation_kernel", "spaceforms.cp_evaluation_kernel", None),
    ("spaceforms", "fbar_relations_check", "spaceforms.fbar_relations_check", None),
    ("spaceforms", "real_space_form", "spaceforms.real_space_form", None),
    ("euclid", "kinematic_so", "euclid.kinematic_so", None),
    ("euclid", "additive_so", "euclid.additive_so", None),
    ("emitters", "emit_table", "emitters.emit_table", "bytes"),
    ("cli", "main", "cli.main", None),
    ("montecarlo", "rng_chunk", "montecarlo.rng_chunk", None),
    ("montecarlo", "random_rotations", "montecarlo.random_rotations", "matrices"),
    ("montecarlo", "estimate_principal_kinematic", "montecarlo.estimator", "estimate"),
    ("montecarlo", "estimate_crofton", "montecarlo.estimator", "estimate"),
    ("montecarlo", "cauchy_projection_check", "montecarlo.estimator", "estimate"),
    ("montecarlo", "steiner_mc", "montecarlo.estimator", "estimate"),
    ("montecarlo", "estimate_additive", "montecarlo.estimator", "estimate"),
    ("montecarlo", "principal_kinematic_prediction", "montecarlo.prediction", None),
    ("montecarlo", "additive_volume_prediction", "montecarlo.prediction", None),
    ("bodies", "gjk_intersects", "bodies.gjk_intersects", None),
    ("bodies", "minkowski_sum_volume", "bodies.minkowski_sum_volume", None),
]

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "exact_div", "inverse")

# (module, class, methods, counter name)
COUNTERS = [
    ("scalars", "Scalar", _ARITH, "scalars.Scalar.ops"),
    ("scalars", "LambdaScalar", _ARITH, "scalars.LambdaScalar.ops"),
    ("spaceforms", "RatFunc", _ARITH + ("__truediv__",), "spaceforms.RatFunc.ops"),
    ("bodies", "ConvexBody", ("center_f", "lo_f", "hi_f", "vertices_f"),
     "bodies.float_view.calls"),
]


def _stat(name):
    return _stats.setdefault(name, {"calls": 0, "self_s": 0.0})


def _add(st, key, value):
    st[key] = st.get(key, 0) + value


# -- stat hooks: (before call, after call); each gets the call's arguments ----

def _nonzero_rows(rows):
    from intgeo import linalg
    is_zero = getattr(linalg, "_is_zero", None) or (lambda x: x == 0)
    return sum(1 for r in rows if any(not is_zero(x) for x in r))


def _rref_pre(st, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    _add(st, "cells", len(rows) * ncols)
    _add(st, "nonzero_rows", _nonzero_rows(rows))


def _rref_post(st, args, kwargs, out):
    _add(st, "pivots", len(out[1]))


def _invert_pre(st, args, kwargs):
    st["dim_max"] = max(st.get("dim_max", 0), len(args[0] if args else kwargs["m"]))


def _columns_post(st, args, kwargs, out):
    _add(st, "columns", len(args[0].columns))


def _bytes_post(st, args, kwargs, out):
    _add(st, "bytes", len(out))


def _matrices_pre(st, args, kwargs):
    _add(st, "matrices", args[2] if len(args) > 2 else kwargs["count"])


def _estimate_post(st, args, kwargs, out):
    _add(st, "samples", out.samples)
    rate = out.extra.get("hit_rate")
    if rate is not None:
        _add(st, "hit_samples", out.samples)
        _add(st, "hits", rate * out.samples)


HOOKS = {
    None: (None, None),
    "rref": (_rref_pre, _rref_post),
    "invert": (_invert_pre, None),
    "columns": (None, _columns_post),
    "bytes": (None, _bytes_post),
    "matrices": (_matrices_pre, None),
    "estimate": (None, _estimate_post),
}


def _run_hook(frame, name, hook, *args):
    t = _perf()
    try:
        hook(_stats[name], *args)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        _errors[name] = f"{type(exc).__name__}: {exc}"
    frame[0] += _perf() - t


def _span(name, fn, hooks):
    pre, post = HOOKS[hooks]
    st = _stat(name)

    def traced(*args, **kwargs):
        frame = [0.0]
        _stack.append(frame)
        t0 = _perf()
        try:
            if pre is not None:
                _run_hook(frame, name, pre, args, kwargs)
            out = fn(*args, **kwargs)
            if post is not None:
                _run_hook(frame, name, post, args, kwargs, out)
            return out
        finally:
            dt = _perf() - t0
            _stack.pop()
            st["calls"] += 1
            st["self_s"] += dt - frame[0]
            if _stack:
                _stack[-1][0] += dt

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


def _counted(cell, fn):
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _modules():
    import intgeo
    mods = {}
    for info in pkgutil.iter_modules(intgeo.__path__):
        mods[info.name] = importlib.import_module(f"intgeo.{info.name}")
    return mods


def install():
    """Wrap every traced name; names that no longer exist are recorded as
    absent with the reason, and their metrics report zero."""
    mods = _modules()
    for mod_name, attr, name, hooks in SPANS:
        _stat(name)
        mod = mods.get(mod_name)
        if mod is None:
            _absent[f"{mod_name}.{attr}"] = f"no module intgeo.{mod_name}"
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                _absent[f"{mod_name}.{attr}"] = f"intgeo.{mod_name} has no {attr}"
                continue
            setattr(cls, meth, _span(name, vars(cls)[meth], hooks))
            continue
        original = getattr(mod, attr, None)
        if original is None:
            _absent[f"{mod_name}.{attr}"] = f"intgeo.{mod_name} has no {attr}"
            continue
        wrapper = _span(name, original, hooks)
        for other in mods.values():
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)
    for mod_name, cls_name, methods, name in COUNTERS:
        cell = [0]
        _stats[name] = {"count": cell}
        cls = getattr(mods.get(mod_name), cls_name, None)
        if cls is None:
            _absent[f"{mod_name}.{cls_name}"] = f"intgeo.{mod_name} has no {cls_name}"
            continue
        for meth in methods:
            if meth in vars(cls):
                setattr(cls, meth, _counted(cell, vars(cls)[meth]))


def report():
    """Plain-data stats: {"stats": {name: {...}}, "absent": {...}, "errors": {...}}."""
    out = {}
    for name, st in _stats.items():
        out[name] = {k: (v[0] if isinstance(v, list) else v) for k, v in st.items()}
    return {"stats": out, "absent": dict(_absent), "errors": dict(_errors)}
