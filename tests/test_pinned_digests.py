"""The benchmark workloads' seed-0 results match the digests ``bench/expected.json``
pins for this platform.

A child interpreter runs ``tools/digests.py``'s ``main`` on seed 0 alone, so a
change that moves any bit of a real workload's results fails here, not only in
the benchmark.  Off the pinned platform the tool prints no note, and the test
skips.  Nothing under ``bench/`` is written: the child runs with ``-B``.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("digests", {tool!r})
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)
digests.SEEDS = range(1)
sys.exit(digests.main())
"""


def test_seed_0_of_every_workload_matches_its_pinned_digest():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT.format(tool=str(ROOT / "tools" / "digests.py"))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.stderr == ""
    fields = [line.split() for line in proc.stdout.splitlines()]
    if fields and all(len(f) == 3 for f in fields):  # workload, seed, sha256: no note
        pytest.skip("bench/expected.json pins no digest for this platform")
    assert proc.returncode == 0, proc.stdout
    assert [(seed, note) for _, seed, _, *note in fields] == [("0", ["pinned"])] * 3
