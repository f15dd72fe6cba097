"""Self-test of the benchmark: can every check fail, and does every metric print?

    python3 perfbench/selftest.py

1. Runs each workload briefly, untraced and traced, and checks that the last
   line has exactly the four result keys and every metric of BENCHMARK.json
   with its unit.
2. Feeds the op checker real outputs with a fault injected: a wrong
   reference digest, a non-zero exit code, a verify op that exits 1 with a
   changed digest, an MC row with no prediction, an MC op that exits 1 with a
   large |z| (as the CLI does), and a traced output that differs from the
   untraced one.  Each must count as a failure, and each failed exact op and
   each |z| > 6 as a wrong answer, so a checker that cannot fail is caught.
3. Installs the tracer with a name that does not exist; it must report that
   layer absent instead of crashing.

Takes about two minutes; exits 0 when every check passes.
"""

import copy
import json
import shutil
import subprocess
import sys
import time

import run
import tracer
import workloads

FAILURES = []


def expect(ok, text):
    print(f"{'PASS' if ok else 'FAIL'} {text}", flush=True)
    if not ok:
        FAILURES.append(text)


def metric_names(bench, trace):
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def brief_runs(bench):
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            name = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{name} exits 0 (got {proc.returncode}: {proc.stderr[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result has exactly the four keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{name}: correct, with {result['attempted']} ops attempted")
            want = metric_names(bench, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name}: prints every metric with its unit"
                   + ("" if got == want else f" (diff {set(got) ^ set(want)})"))
            text = proc.stdout
            expect(all(n in text for n in want), f"{name}: report names every metric")


def injected_faults():
    runner = run.Runner(run.ROOT / ".perfbench" / "tmp-selftest", time.monotonic() + 120)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    reference = run.load_reference()["exact-cold"]
    argv = ["so", "kinematic", "--dim", "3", "--basis", "mu", "--normalization",
            "standard", "--format", "json"]
    cold = {"kind": "so-kinematic", "key": workloads.cold_key(argv), "argv": argv}
    bad_exit = {"kind": "un-firstorder", "key": "un firstorder --dim 4 --deg-a 1 --deg-b 1",
                "argv": ["un", "firstorder", "--dim", "4", "--deg-a", "1", "--deg-b", "1"]}
    argv = ["un", "verify", "--dim", "4"]
    verify = {"kind": "un-verify", "key": workloads.cold_key(argv), "argv": argv}
    square = {"kind": "box", "min": ["0", "0"], "max": ["1", "1"]}
    triangle = {"kind": "polytope", "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
    no_pred = {"kind": "additive-polygon", "key": "polygon additive", "bodies":
               {"A": triangle, "B": triangle},
               "argv": ["mc", "additive", "--samples", "1000", "--seed", "5",
                        "--bodies", "poly.json"]}
    good_mc = {"kind": "cauchy", "key": "cauchy", "bodies": {"A": square},
               "argv": ["mc", "cauchy", "--samples", "1000", "--seed", "5",
                        "--bodies", "box.json"]}
    try:
        res = runner.work("import", [cold, bad_exit, verify, no_pred, good_mc])["ops"]
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    rec_cold, rec_exit, rec_verify, rec_nopred, rec_mc = res

    expect(run.check(cold, rec_cold, reference)["ok"],
           "real cold op passes against the true reference")
    wrong = dict(reference)
    d = wrong[cold["key"]]
    wrong[cold["key"]] = ("0" if d[0] != "0" else "1") + d[1:]
    v = run.check(cold, rec_cold, wrong)
    expect(not v["ok"] and v["wrong"], "wrong reference digest counts as a wrong answer")
    v = run.check(bad_exit, rec_exit, reference)
    expect(not v["ok"] and v["wrong"] and rec_exit["rc"] == 2,
           "non-zero exit code of an exact op counts as a wrong answer")
    expect(run.check(verify, rec_verify, reference)["ok"],
           "real un verify op passes against the true reference")
    failing = dict(rec_verify, rc=1, sha256="0" * 64)
    v = run.check(verify, failing, reference)
    expect(not v["ok"] and v["wrong"],
           "un verify exiting 1 with a changed digest counts as a wrong answer")
    v = run.check(verify, dict(rec_verify, rc=1), reference)
    expect(not v["ok"] and v["wrong"],
           "un verify exiting 1 with the reference digest counts as a wrong answer")
    v = run.check(no_pred, rec_nopred, None)
    expect(rec_nopred["rc"] == 0 and not v["ok"],
           "mc additive on a polygon pair (exit 0, no prediction) counts as failed")
    expect(run.check(good_mc, rec_mc, None)["ok"], "real mc cauchy op passes")
    blank = copy.deepcopy(rec_mc)
    header, row = blank["stdout"].splitlines()[:2]
    cols = row.split(",")
    cols[header.split(",").index("prediction")] = ""
    blank["stdout"] = header + "\n" + ",".join(cols) + "\n"
    expect(not run.check(good_mc, blank, None)["ok"],
           "an mc row with its prediction blanked counts as failed")
    far = copy.deepcopy(rec_mc)
    cols = row.split(",")
    cols[header.split(",").index("z")] = "7.5"
    far["stdout"] = header + "\n" + ",".join(cols) + "\n"
    far["rc"] = 1  # what cli mc returns once |z| > 4
    v = run.check(good_mc, far, None)
    expect(not v["ok"] and v["wrong"], "mc exiting 1 with |z| = 7.5 counts as a wrong answer")
    cols[header.split(",").index("z")] = "4.5"
    far["stdout"] = header + "\n" + ",".join(cols) + "\n"
    v = run.check(good_mc, far, None)
    expect(not v["ok"] and not v["wrong"],
           "mc exiting 1 with |z| = 4.5 counts as failed, not wrong")
    changed = copy.deepcopy(rec_cold)
    changed["sha256"] = wrong[cold["key"]]
    expect(run.output_mismatches([rec_cold], [changed]) == [cold["key"]],
           "a traced output that differs from the untraced one is caught")


def absent_layer():
    sys.path.insert(0, str(run.ROOT / "src"))
    tracer.SPANS.append(("linalg", "no_such_function", "linalg.no_such_function", None))
    tracer.install()
    rep = tracer.report()
    expect("linalg.no_such_function" in rep["absent"],
           "a traced name that no longer exists is reported absent")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    injected_faults()
    absent_layer()
    brief_runs(bench)
    print(f"{len(FAILURES)} self-test check(s) failed" if FAILURES
          else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
