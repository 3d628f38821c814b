"""``tools/samplerbench.py`` replays a sweep's shot draws with their bits.

The functions run in this process on a tiny config; ``main`` runs in a child
interpreter that imports ``bench/run.py`` and cuts its workload table down to
one tiny workload, as in ``test_digests.py``.
"""
import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from qksim import cli, rng

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "samplerbench.py"
TINY = dict(
    dataset={"kind": "synthetic"}, num_qubits=2, train_sizes=[8], test_size=6,
    shots=[10, 1000], noise_rates=[0.05], methods=["clip"], seeds=[0],
)

spec = importlib.util.spec_from_file_location("samplerbench", TOOL)
samplerbench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(samplerbench)


def test_the_replay_draws_each_entry_from_its_own_stream():
    calls = samplerbench.record_calls(cli.SweepConfig.from_dict(TINY))
    # one shots and one cross family per shot count, each drawn once
    assert [(family.role, m, p.size) for family, m, p in calls] == [
        ("shots", 10, 28), ("cross", 10, 48), ("shots", 1000, 28), ("cross", 1000, 48),
    ]
    want = hashlib.sha256()
    for family, m, p in calls:
        draws = [
            rng.stream(family.seed, family.role, i, j).binomial(m, q)
            for i, j, q in zip(family.i.tolist(), family.j.tolist(), p.tolist())
        ]
        want.update(np.array(draws, dtype=np.int64).tobytes())
    seconds, digest = samplerbench.replay(calls)
    assert seconds > 0.0 and digest == want.hexdigest()


def test_inclusive_times_cover_both_algorithms_and_restore_the_module():
    calls = samplerbench.record_calls(cli.SweepConfig.from_dict(TINY))
    saved = {name: getattr(rng, name) for name in samplerbench.STEPS}
    spent = samplerbench.inclusive_times(calls)
    assert list(spent) == list(samplerbench.STEPS)
    assert spent["_inversion"] > 0.0 and spent["_btpe"] > 0.0 and spent["_libm"] > 0.0
    assert {name: getattr(rng, name) for name in samplerbench.STEPS} == saved


SCRIPT = """
import importlib.util, sys
sys.path.insert(0, {bench!r})
import run
run.WORKLOADS.clear()
run.WORKLOADS["tiny"] = dict(run._BASE, num_qubits=2, train_sizes=[8], test_size=6,
                             shots=[10, 1000], noise_rates=[0.05], methods=["clip"])
spec = importlib.util.spec_from_file_location("samplerbench", {tool!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
sys.exit(tool.main(["tiny", "--repeat", "2"]))
"""


def test_main_prints_times_and_one_digest_and_writes_nothing():
    def tree():
        """Every path under the repository root but ``.git``, with its size and
        modification time, so it needs no git checkout."""
        paths = (p for p in ROOT.rglob("*") if p.relative_to(ROOT).parts[0] != ".git")
        return {p: (p.lstat().st_size, p.lstat().st_mtime_ns) for p in paths}

    before = tree()
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(bench=str(ROOT / "bench"), tool=str(TOOL))],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    head, replay, inclusive, digest = proc.stdout.splitlines()
    assert head == "tiny seed 0: 8 binomial calls, 304 entries"  # seeds 0 and 1
    assert replay.startswith("replay x2: best ") and "median" in replay
    assert inclusive.startswith("inclusive: _inversion ") and "_product" in inclusive
    assert digest.startswith("draws sha256 ") and len(digest.split()[-1]) == 64
    assert tree() == before
