#!/usr/bin/env python3
"""Replay one benchmark workload's shot draws and time the array sampler.

Run from the repository root:

    python3 tools/samplerbench.py shots-sweep --repeat 5

The workload's seed-0 sweep (its config from ``bench/run.py``, imported
read-only) runs once in this process with ``rng.EntryStreams.binomial``
recorded: each call's entry family, shot count and rates.  The recorded calls
are then replayed ``--repeat`` times, in their order, and the best and median
time of one replay are printed.  One more replay runs with ``rng._inversion``,
``_btpe``, ``_product``, ``_step52`` and ``_libm`` wrapped, and prints each
one's inclusive time (a call inside another call of the same function counts
once; the wrappers' own cost is in these times, not in the best and median).
The last line is the sha256 of every draw of one replay, in call order, so two
checkouts that draw the same bits print the same digest.

``bench/tracer.py`` wraps only public module-level functions, so it sees
neither the cross kernel's draws nor the sampler's private steps; this tool
times them directly.  It uses the standard library and numpy only, runs with
one BLAS thread, and writes nothing in the repository.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
STEPS = ("_inversion", "_btpe", "_product", "_step52", "_libm")


def record_calls(config) -> list[tuple]:
    """``(family, m, p)`` of every ``EntryStreams.binomial`` call of one
    ``run_sweep(config)``, in call order, each ``p`` a copy."""
    import numpy as np
    from qksim import cli, rng

    calls, binomial = [], rng.EntryStreams.binomial

    def spy(self, m, p):
        calls.append((self, m, np.array(p, dtype=float)))
        return binomial(self, m, p)

    rng.EntryStreams.binomial = spy
    try:
        cli.run_sweep(config)
    finally:
        rng.EntryStreams.binomial = binomial
    return calls


def replay(calls: list[tuple]) -> tuple[float, str]:
    """Seconds to draw every recorded call once, and the sha256 of the draws."""
    digest, seconds = hashlib.sha256(), 0.0
    for family, m, p in calls:
        start = time.perf_counter()
        draws = family.binomial(m, p)
        seconds += time.perf_counter() - start
        digest.update(draws.tobytes())
    return seconds, digest.hexdigest()


def inclusive_times(calls: list[tuple]) -> dict[str, float]:
    """Inclusive seconds of each sampler step in one replay of ``calls``."""
    from qksim import rng

    spent, depth = dict.fromkeys(STEPS, 0.0), dict.fromkeys(STEPS, 0)

    def timed(name, f):
        def wrapper(*args):
            depth[name] += 1
            start = time.perf_counter()
            try:
                return f(*args)
            finally:
                depth[name] -= 1
                if depth[name] == 0:  # a recursive call is inside its caller's time
                    spent[name] += time.perf_counter() - start

        return wrapper

    saved = {name: getattr(rng, name) for name in STEPS}
    for name, f in saved.items():
        setattr(rng, name, timed(name, f))
    try:
        replay(calls)
    finally:
        for name, f in saved.items():
            setattr(rng, name, f)
    return spent


def main(argv: list[str] | None = None) -> int:
    # one BLAS thread, as in the benchmark's children; set before numpy loads
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # leave no cache file in the repository
    import run as bench  # bench/run.py; its main does not run

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--repeat", type=int, default=5, help="timed replays (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    from qksim import cli

    config = cli.SweepConfig.from_dict(bench.sweep_config(bench.WORKLOADS[args.workload], 0))
    calls = record_calls(config)
    entries = sum(p.size for _, _, p in calls)
    print(f"{args.workload} seed 0: {len(calls)} binomial calls, {entries} entries")
    times, digests = zip(*(replay(calls) for _ in range(args.repeat)))
    print(f"replay x{args.repeat}: best {min(times):.4f} s, median {statistics.median(times):.4f} s")
    spent = inclusive_times(calls)
    print("inclusive:", ", ".join(f"{name} {spent[name]:.4f} s" for name in STEPS))
    print(f"draws sha256 {digests[0]}")
    return 0 if len(set(digests)) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
