"""Regenerate reference.json: the SHA-256 of every exact grid point's output.

    PYTHONPATH=src python3 perfbench/make_reference.py

exact-cold keys are the argv joined by spaces and hold the digest of what
``intgeo`` prints to stdout; exact-warm keys describe a library query and hold
the digest of the emitted document.  Outputs do not depend on process state,
so the grid is computed in two long-lived processes rather than one process
per point.  Regenerate only for a change that is meant to alter outputs, and
say so in that change.
"""

import hashlib
import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
import worker  # noqa: E402


def _cold(argv):
    rc, data, err = worker.run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}: {err[-300:]}")
    return workloads.cold_key(argv), hashlib.sha256(data).hexdigest()


def _warm(query):
    data = worker.run_query(query)
    return workloads.warm_key(query), hashlib.sha256(data).hexdigest()


def main():
    cold = workloads.cold_grid() + [list(a) for a, _ in workloads.ANCHORS]
    warm = workloads.warm_grid()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(2, os.cpu_count() or 1)) as pool:
        ref = {
            "exact-cold": dict(sorted(pool.map(_cold, cold, chunksize=8))),
            "exact-warm": dict(sorted(pool.map(_warm, warm, chunksize=32))),
        }
    root = HERE.parent
    for argv, rel in workloads.ANCHORS:
        golden = hashlib.sha256((root / rel).read_bytes()).hexdigest()
        if ref["exact-cold"][workloads.cold_key(argv)] != golden:
            raise SystemExit(f"'{workloads.cold_key(argv)}' differs from {rel}")
    (HERE / "reference.json").write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    print(f"{len(ref['exact-cold'])} cold and {len(ref['exact-warm'])} warm digests")


if __name__ == "__main__":
    main()
