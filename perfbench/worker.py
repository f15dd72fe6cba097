"""One benchmark worker process: set up, run the ops of a job, report.

Usage: python3 worker.py JOB.json RESULT.json

The job names the setup ("import" or "warm"), whether to trace, and the ops.
Each op's standard output is captured and hashed; its standard error is
kept only in part, for diagnosis.  The result file holds the setup time, one
record per op, the peak resident memory and, when tracing, the layer stats.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

WARM_DIMS = (6, 8, 10)


def _setup(kind):
    import intgeo.cli  # noqa: F401  (the whole program, as the CLI loads it)
    if kind == "warm":
        from intgeo import hermitian
        for n in WARM_DIMS:
            hermitian.un_model(n)
            hermitian.kinematic_un(n)


def _firstorder_doc(n, k, l, space):
    """The document ``intgeo un firstorder`` prints, built from the library."""
    from intgeo import emitters, hermitian
    ker = hermitian.first_order_formula(n, k, l, space=space)
    doc = {
        "group": "U", "dimension": n, "space": space,
        "degrees": [ker.k, ker.l],
        "left_perp": ker.left_perp, "right_perp": ker.right_perp,
        "coefficients": [
            {"q_left": ql, "q_right": qr, "value": emitters.scalar_to_json(c)}
            for (ql, qr), c in sorted(ker.coeffs.items())
        ],
    }
    return emitters.emit_json(doc)


def run_query(q):
    """One exact-warm library query; returns the emitted document."""
    from intgeo import emitters, euclid, hermitian
    from intgeo.scalars import Scalar
    if q["q"] == "un":
        model = hermitian.un_model(q["n"])
        phi = model.alg.basis_element(q["k"], q["i"])
        build = hermitian.kinematic_un if q["table"] == "kinematic" else \
            hermitian.additive_un
        table = hermitian.convert_un_table(build(q["n"], phi), q["n"], q["basis"])
        return emitters.emit_table(table, "json")
    if q["q"] == "firstorder":
        return _firstorder_doc(q["n"], q["k"], q["l"], q["space"])
    if q["q"] == "so":
        phi = euclid.SOValuation.from_coeffs(q["n"], {q["k"]: Scalar.one()},
                                            basis=q["basis"])
        build = euclid.kinematic_so if q["table"] == "kinematic" else \
            euclid.additive_so
        return emitters.emit_table(build(q["n"], phi, basis=q["basis"]), "json")
    raise ValueError(f"unknown query {q['q']!r}")


def run_cli(argv):
    """One intgeo.cli.main(argv) call with stdout and stderr captured."""
    import intgeo.cli
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = intgeo.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    out.flush()
    return rc, out.buffer.getvalue(), err.getvalue()


def run_op(op):
    rec = {"key": op["key"], "kind": op["kind"]}
    if op.get("bodies") is not None:
        path = op["argv"][op["argv"].index("--bodies") + 1]
        with open(path, "w") as fh:
            json.dump(op["bodies"], fh)
    t0 = time.perf_counter()
    try:
        if "query" in op:
            data, rc, err = run_query(op["query"]), 0, ""
        else:
            rc, data, err = run_cli(op["argv"])
        rec["seconds"] = time.perf_counter() - t0
        rec["rc"] = rc
        rec["sha256"] = hashlib.sha256(data).hexdigest()
        if "query" not in op and op["argv"][0] == "mc":
            rec["stdout"] = data.decode("utf-8", "replace")
        rec["stderr_tail"] = err[-400:]
    except Exception:  # the op raised: record it, keep serving the job
        rec["seconds"] = time.perf_counter() - t0
        rec["rc"] = None
        rec["error"] = traceback.format_exc()[-800:]
    return rec


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    if job.get("trace"):
        import tracer  # next to this file, so on sys.path
        tracer.install()
    _setup(job["setup"])
    setup_s = time.perf_counter() - _T0
    import intgeo
    result = {"setup_s": setup_s, "intgeo_file": intgeo.__file__, "ops": []}
    for op in job["ops"]:
        result["ops"].append(run_op(op))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if job.get("trace"):
        result["layers"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
