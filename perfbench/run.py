"""intgeo benchmark: one run of one workload.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout.  The program is loaded from
``src/`` of that checkout; nothing is installed.  The last line of standard
output is a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it are a readable report, and
the full run record is written to ``.perfbench/`` in the checkout.  See
README.md next to this file for the workloads and metrics.
"""

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
DEADLINE_S = 170.0
UNTRACED_SHARE = 0.5  # of the deadline, for the first pass of a traced run
BLAS_THREADS = 1
WARM_WORKERS = 4  # exact-warm splits its decks over this many workers
Z_FAIL = 4.0    # the CLI's own gate: beyond it an estimate is a failed op
Z_WRONG = 6.0   # beyond it (p ~ 2e-9 for a correct estimator) a wrong answer


class RunError(Exception):
    """The run cannot start: the checkout lacks the program or the reference."""


# -- workers -------------------------------------------------------------------

def _worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts one worker at a time and waits for it; owns the work directory."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = _worker_env()
        self.count = 0

    def remaining(self):
        return self.deadline - time.monotonic()

    def work(self, setup, ops, trace=False):
        """Run ops in one fresh worker; returns its result dict.

        A worker that crashes or runs past the deadline yields a result in
        which each of its ops failed.
        """
        self.count += 1
        job_path = self.workdir / f"job-{self.count}.json"
        res_path = self.workdir / f"result-{self.count}.json"
        job_path.write_text(json.dumps({"setup": setup, "trace": trace, "ops": ops}))
        reason = None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path), str(res_path)],
                cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=max(1.0, self.remaining()))
            if proc.returncode != 0:
                reason = "worker exit %d: %s" % (
                    proc.returncode, proc.stderr.decode("utf-8", "replace")[-600:])
        except subprocess.TimeoutExpired:
            reason = "worker passed the run deadline"
        if reason is None:
            result = json.loads(res_path.read_text())
            if not result["intgeo_file"].startswith(str(ROOT / "src")):
                raise RunError(f"intgeo loaded from {result['intgeo_file']}, "
                               f"not from {ROOT / 'src'}")
            return result
        return {"setup_s": None, "maxrss_kb": 0,
                "ops": [{"key": op["key"], "kind": op["kind"], "seconds": None,
                         "rc": None, "error": reason} for op in ops]}


def run_pass(runner, workload, ops, trace):
    """Execute ops; returns (op records, setup samples, worker results)."""
    results = []
    if workload == "exact-cold":
        for op in ops:
            if runner.remaining() <= 0:
                break
            results.append(runner.work("import", [op], trace))
    else:
        # mc: one worker per deck; exact-warm: WARM_WORKERS workers, each with
        # a run of whole decks.  Set-up is sampled once per worker, spread
        # over the run.
        decks = ops[-1]["deck"] + 1 if ops else 0
        per = 1 if workload == "mc" else -(-decks // WARM_WORKERS)
        setup = "warm" if workload == "exact-warm" else "import"
        for first in range(0, decks, per):
            part = [op for op in ops if first <= op["deck"] < first + per]
            results.append(runner.work(setup, part, trace))
    records = [rec for res in results for rec in res["ops"]]
    setups = [res["setup_s"] for res in results if res["setup_s"] is not None]
    return records, setups, results


# -- checks --------------------------------------------------------------------

def mc_rows(stdout):
    return list(csv.DictReader(io.StringIO(stdout or "")))


def check(op, rec, reference):
    """Verdict on one op: {"ok", "reason", "wrong"}.

    An op fails if it raised, exited non-zero, or its output is not right.
    ``wrong`` marks a failure that makes the whole run incorrect:

    * exact ops (``reference`` given): every failure.  All of them pass at the
      seed commit, and the checking commands (``verify``, ``un verify``,
      ``spaceform complex --check``) exit 1 when an identity fails, so an
      exit code is as much a verdict on the output as the digest is.
    * mc ops: |z| beyond Z_WRONG in any row, whatever the exit code (the CLI
      itself exits 1 once |z| > 4).
    """
    if reference is not None:
        expect = reference.get(op["key"])
        if rec.get("rc") is None:
            reason = "raised or did not finish"
        elif expect is None:
            reason = "no reference digest"
        elif rec["sha256"] != expect:
            reason = f"exit code {rec['rc']}, digest differs from reference"
        elif rec["rc"] != 0:
            reason = f"exit code {rec['rc']}"
        else:
            return {"ok": True, "reason": None, "wrong": False}
        return {"ok": False, "reason": reason, "wrong": True}
    rows = mc_rows(rec.get("stdout"))
    worst = max((abs(float(row["z"])) for row in rows), default=0.0)
    wrong = worst > Z_WRONG
    if rec.get("rc") is None:
        return {"ok": False, "reason": "raised or did not finish", "wrong": False}
    if rec["rc"] != 0:
        why = f", |z| = {worst:.2f}" if worst > Z_FAIL else ""
        return {"ok": False, "reason": f"exit code {rec['rc']}{why}", "wrong": wrong}
    if not rows:
        return {"ok": False, "reason": "no estimate rows", "wrong": False}
    if any(row["prediction"] == "" for row in rows):
        return {"ok": False, "reason": "no prediction", "wrong": False}
    if worst > Z_FAIL:
        return {"ok": False, "reason": f"|z| = {worst:.2f} > {Z_FAIL:g}", "wrong": wrong}
    return {"ok": True, "reason": None, "wrong": False}


def output_mismatches(untraced, traced):
    """Keys of ops whose traced stdout differs from their untraced stdout;
    ops that produced no output in either pass are failures already."""
    return [a["key"] for a, b in zip(untraced, traced)
            if "sha256" in a and "sha256" in b and a["sha256"] != b["sha256"]]


def load_reference():
    ref_path = HERE / "reference.json"
    if not ref_path.is_file():
        raise RunError(f"missing {ref_path}")
    return json.loads(ref_path.read_text())


def run_anchors(runner):
    """Run the anchor commands and compare their stdout with the golden files."""
    ops = [{"kind": "anchor", "key": workloads.cold_key(argv), "argv": list(argv)}
           for argv, _ in workloads.ANCHORS]
    res = runner.work("import", ops)
    problems = []
    for (argv, rel), rec in zip(workloads.ANCHORS, res["ops"]):
        path = ROOT / rel
        if not path.is_file():
            raise RunError(f"missing {rel}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if rec.get("rc") != 0 or rec.get("sha256") != digest:
            problems.append(f"'{workloads.cold_key(argv)}' stdout differs from {rel}")
    return problems


# -- metrics -------------------------------------------------------------------

def quantile(times, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics.  It reads the same population as the plain order
    statistic but moves less when single ops are noisy or the draw leaves a
    gap at p."""
    from scipy.special import betainc
    x = np.sort(np.asarray(times, dtype=float))
    n = len(x)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def tail(times):
    """(percentile, value): the highest percentile with ten ops beyond it."""
    n = len(times)
    if n <= 10:
        return 100.0, max(times)
    p = (n - 10) / n
    return 100.0 * p, quantile(times, p)


def mc_samples(rec):
    return sum(int(row["samples"]) for row in mc_rows(rec.get("stdout")))


def end_to_end(records, verdicts, setups, results):
    times = [rec["seconds"] for rec in records if rec["seconds"] is not None]
    ok = [rec for rec, v in zip(records, verdicts) if v["ok"]]
    # a run in which nothing finished reports zeros, never NaN, so that its
    # last line stays valid JSON
    pct, tail_value = tail(times) if times else (100.0, 0.0)
    metrics = {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "ops_per_s": (len(ok) / sum(times) if times else 0.0, "1/s"),
        "latency_s_p50": (quantile(times, 0.5) if times else 0.0, "s"),
        "latency_s_tail": (tail_value, "s"),
        "ok_frac": (len(ok) / len(records) if records else 0.0, "ratio"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in results) / 1024.0, "MB"),
    }
    ok_time = sum(rec["seconds"] for rec in ok)
    samples = sum(mc_samples(rec) for rec in ok)
    extra = {"tail_percentile": pct, "latency_ops": len(times),
             "setup_samples": len(setups),
             "mc_samples_per_s": samples / ok_time if ok_time and samples else 0.0}
    return metrics, extra


def per_layer(layer_reports, overhead, mc_rate):
    stats = {}
    absent = {}
    errors = {}
    for rep in layer_reports:
        absent.update(rep["absent"])
        errors.update(rep["errors"])
        for name, st in rep["stats"].items():
            agg = stats.setdefault(name, {})
            for key, value in st.items():
                if key == "dim_max":
                    agg[key] = max(agg.get(key, 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    metrics = {}
    for name in ("linalg.rref", "graded.QuotientAlgebra.init", "linalg.kernel_basis",
                 "linalg.invert_exact", "graded.QuotientAlgebra.normal_form_raw",
                 "graded.TensorTable.map_legs", "emitters.emit_table",
                 "montecarlo.rng_chunk", "bodies.gjk_intersects",
                 "bodies.minkowski_sum_volume"):
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in dict.fromkeys(span[2] for span in tracer.SPANS):
        metrics[f"{name}.self_s"] = (get(name, "self_s"), "s")
    metrics["linalg.rref.cells"] = (get("linalg.rref", "cells"), "count")
    rows = get("linalg.rref", "nonzero_rows")
    metrics["linalg.rref.pivot_ratio"] = (
        get("linalg.rref", "pivots") / rows if rows else 0.0, "ratio")
    metrics["graded.QuotientAlgebra.init.columns"] = (
        get("graded.QuotientAlgebra.init", "columns"), "count")
    metrics["linalg.invert_exact.dim_max"] = (get("linalg.invert_exact", "dim_max"), "count")
    metrics["emitters.emit_table.bytes"] = (get("emitters.emit_table", "bytes"), "bytes")
    metrics["montecarlo.random_rotations.matrices"] = (
        get("montecarlo.random_rotations", "matrices"), "count")
    metrics["montecarlo.samples"] = (get("montecarlo.estimator", "samples"), "count")
    hit_samples = get("montecarlo.estimator", "hit_samples")
    metrics["montecarlo.hit_rate"] = (
        get("montecarlo.estimator", "hits") / hit_samples if hit_samples else 0.0,
        "ratio")
    for name in ("scalars.Scalar.ops", "scalars.LambdaScalar.ops",
                 "spaceforms.RatFunc.ops", "bodies.float_view.calls"):
        metrics[name] = (get(name, "count"), "count")
    metrics["mc_samples_per_s"] = (mc_rate, "1/s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, absent, errors


# -- run record ----------------------------------------------------------------

def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine():
    return {
        "commit": _commit(), "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "blas_threads": BLAS_THREADS,
    }


# -- one run -------------------------------------------------------------------

def _by_kind(ops, verdicts):
    out = {}
    for op, v in zip(ops, verdicts):
        k = out.setdefault(op["kind"], {"ops": 0, "failed": 0})
        k["ops"] += 1
        k["failed"] += 0 if v["ok"] else 1
    for k in out.values():
        k["fail_frac"] = k["failed"] / k["ops"]
    return dict(sorted(out.items()))


def execute(workload, seed, seconds, trace):
    reference = load_reference()
    problems = []
    ops = workloads.plan(workload, seed, seconds)
    ref = reference.get(workload) if workload != "mc" else None
    start = time.monotonic()
    workdir = ROOT / ".perfbench" / f"tmp-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        first = Runner(workdir, start + DEADLINE_S * (UNTRACED_SHARE if trace else 1.0))
        if workload == "exact-cold":
            problems += run_anchors(first)
        records, setups, results = run_pass(first, workload, ops, False)
        ops = ops[:len(records)]
        verdicts = [check(op, rec, ref) for op, rec in zip(ops, records)]
        layers = None
        if trace:
            second = Runner(workdir, start + DEADLINE_S)
            traced, _, traced_results = run_pass(second, workload, ops, True)
            tverdicts = [check(op, rec, ref) for op, rec in zip(ops, traced)]
            pairs = list(zip(records, traced))
            mismatched = output_mismatches(records, traced)
            if mismatched:
                problems.append(f"{len(mismatched)} traced outputs differ from "
                                f"untraced, first: {mismatched[0]}")
            # an op the traced pass did not reach keeps its untraced verdict
            verdicts = [tv if v["ok"] else v for v, tv in zip(verdicts, tverdicts)] \
                + verdicts[len(tverdicts):]
            wall = sum(a["seconds"] for a, b in pairs
                       if a["seconds"] is not None and b["seconds"] is not None)
            twall = sum(b["seconds"] for a, b in pairs
                        if a["seconds"] is not None and b["seconds"] is not None)
            layers = ([res["layers"] for res in traced_results if "layers" in res],
                      twall / wall - 1.0 if wall else 0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, extra = end_to_end(records, verdicts, setups, results)
    failed = sum(0 if v["ok"] else 1 for v in verdicts)
    correct = not problems and not any(v["wrong"] for v in verdicts)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "decks": workloads.deck_count(workload, seconds),
        "machine": machine(), "wall_s": time.monotonic() - start,
        "attempted": len(records), "failed": failed, "correct": correct,
        "problems": problems, "by_kind": _by_kind(ops, verdicts),
        "repeat_share": 1.0 - len({op["key"] for op in ops}) / len(ops) if ops else 0.0,
        "end_to_end": {k: v[0] for k, v in metrics.items()}, "extra": extra,
        "ops": [{"key": op["key"], "kind": op["kind"], "seconds": rec["seconds"],
                 "ok": v["ok"], "reason": v["reason"],
                 "detail": None if v["ok"] else rec.get("error") or rec.get("stderr_tail")}
                for op, rec, v in zip(ops, records, verdicts)],
    }
    out_metrics = metrics
    if trace:
        out_metrics, absent, errors = per_layer(layers[0], layers[1],
                                                extra["mc_samples_per_s"])
        record["per_layer"] = {k: v[0] for k, v in out_metrics.items()}
        record["absent"] = absent
        record["hook_errors"] = errors
    out_dir = ROOT / ".perfbench"
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(record, metrics, extra)
    return {"correct": correct, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in out_metrics.items()}}


def report(record, metrics, extra):
    m = record["machine"]
    print(f"intgeo benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"{record['decks']} deck(s), trace {int(record['trace'])}")
    print(f"  machine: {m['cpu_model']}, nproc {m['nproc']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, blas threads {m['blas_threads']}, "
          f"commit {m['commit'] or 'n/a'}, src sha256 {m['src_sha256'][:16]}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_s_tail":
            note = (f"  (p{extra['tail_percentile']:.1f} of {extra['latency_ops']} ops)")
        if name == "setup_s":
            note = f"  (median of {extra['setup_samples']} workers)"
        print(f"  {name:16s} {value:.6g} {unit}{note}")
    if record["workload"] == "mc":
        print(f"  mc_samples_per_s {extra['mc_samples_per_s']:.6g} 1/s")
    fail_frac = record["failed"] / record["attempted"] if record["attempted"] else 0.0
    print(f"  fail_frac {fail_frac:.4f} ({record['failed']} of {record['attempted']}); "
          f"repeat share {record['repeat_share']:.3f}")
    for kind, k in record["by_kind"].items():
        reasons = sorted({op["reason"] for op in record["ops"]
                          if op["kind"] == kind and op["reason"]})
        why = f"  [{'; '.join(reasons)}]" if reasons else ""
        print(f"    {kind:24s} ops {k['ops']:3d}  fail_frac {k['fail_frac']:.3f}{why}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    if record["trace"]:
        for name, value in sorted(record["per_layer"].items()):
            print(f"  {name} {value:.6g}")
        for name, why in sorted(record["absent"].items()):
            print(f"  absent: {name} ({why}); its metrics read 0")
        for name, why in sorted(record["hook_errors"].items()):
            print(f"  unmeasured counts: {name} ({why})")


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills the running worker and
    # waits for it, and through the clean-up of the work directory
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "intgeo" / "__init__.py").is_file():
        print(f"error: no intgeo sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
