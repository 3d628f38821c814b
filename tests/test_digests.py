"""``tools/digests.py`` exits 1 when a pinned results digest differs.

Each run is a child interpreter that imports ``bench/run.py``, cuts its
workload table down to one tiny config and pins a digest, then runs the tool's
``main`` on two seeds.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib.util, sys
sys.path.insert(0, {bench!r})
import run
run.WORKLOADS.clear()
run.WORKLOADS["tiny"] = dict(run._BASE, num_qubits=2, train_sizes=[8], test_size=6,
                             shots=["inf"], noise_rates=[0.0], methods=["clip"])
run.environment = dict
run.pinned_digest = lambda workload, env: {pin!r}
spec = importlib.util.spec_from_file_location("digests", {tool!r})
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)
digests.SEEDS = range(2)
sys.exit(digests.main())
"""


def run_digests(pin: str) -> tuple[int, list[str]]:
    script = SCRIPT.format(
        bench=str(ROOT / "bench"), tool=str(ROOT / "tools" / "digests.py"), pin=pin
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.stderr == ""
    return proc.returncode, proc.stdout.splitlines()


def test_a_differing_pinned_digest_exits_1_and_a_matching_one_0():
    code, lines = run_digests("0" * 64)
    assert code == 1
    assert len(lines) == 2
    workload, seed, sha, *note = lines[0].split()
    assert (workload, seed, note) == ("tiny", "0", ["DIFFERS", "FROM", "PINNED"])
    assert lines[1].startswith("tiny 1 ") and len(lines[1].split()) == 3
    assert run_digests(sha) == (0, [f"tiny 0 {sha}  pinned", lines[1]])
