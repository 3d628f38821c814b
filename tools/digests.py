#!/usr/bin/env python3
"""Results sha256 of each benchmark workload and seed, for comparing checkouts.

Run from the repository root:

    python3 tools/digests.py > digests.txt

For seeds 0-5 of each workload, the config is the one ``bench/run.py``
generates (its ``WORKLOADS`` and ``sweep_config``, imported read-only).  The
sweep runs in this process through ``qksim.cli.run_sweep`` on the ``qksim``
of this checkout's ``src/``, and its records are written as ``qksim sweep``
writes them (CSV), with one BLAS thread as in the benchmark's children.  One
line per pair, ``<workload> <seed> <sha256>``; at the digest seed a note says
whether it equals the digest ``bench/expected.json`` pins for this platform.
Diff the output of two checkouts to see that a change keeps every bit.  The exit
status is 1 when a pinned digest differs, else 0, so the script can gate a change.
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(6)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    # one BLAS thread, as in the benchmark's children; set before numpy loads
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache file under bench/
    import run as bench  # bench/run.py; its main does not run

    sys.dont_write_bytecode = False
    from qksim import cli

    env = bench.environment()
    differs = False
    for workload, spec in bench.WORKLOADS.items():
        pinned = bench.pinned_digest(workload, env)
        for seed in SEEDS:
            config = cli.SweepConfig.from_dict(bench.sweep_config(spec, seed))
            records = cli.run_sweep(config)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "results.csv"
                cli.emit_results(records, path, "csv")
                sha = hashlib.sha256(path.read_bytes()).hexdigest()
            note = ""
            if seed == bench.DIGEST_SEED and pinned is not None:
                note = "  pinned" if sha == pinned else "  DIFFERS FROM PINNED"
                differs |= sha != pinned
            print(f"{workload} {seed} {sha}{note}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
