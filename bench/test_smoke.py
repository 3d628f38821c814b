"""Smoke test of the sweep benchmark on a tiny config (10 records).

    python3 -m pytest bench/test_smoke.py -q

It checks that both modes print every metric BENCHMARK.json declares, with
its unit, and that the output checks catch corrupted results.  It is kept
out of the library's test suite (``tests/``) so that suite's time does not
grow.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

TINY = dict(
    run._BASE,
    num_qubits=2,
    train_sizes=[8],
    test_size=6,
    shots=[10, "inf"],
    noise_rates=[0.05],
    methods=["clip", "nearest"],
)

# the metric names the benchmark is specified to report
END_TO_END = {"sweep_s", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "kernels.sample_shots.self_s",
    "kernels.quantum_cross.self_s",
    "kernels.shot_entries",
    "kernels.shot_entries_per_s",
    "lapack.eigh.calls",
    "lapack.eigvalsh.calls",
    "lapack.self_s",
    "lapack.decomp_n3",
    "lapack.decomps_per_record",
    "linalg.eig_sym.calls",
    "linalg.eig_sym.self_s",
    "linalg.inv_ridge.calls",
    "linalg.self_s",
    "learner.grid_search_rbf.total_s",
    "learner.fit_krr.calls",
    "learner.self_s",
    "calibrate.calibrate_and_report.total_s",
    "bounds.theorem1_bound.total_s",
    "bounds.self_s",
    "qsim.feature_states.calls",
    "qsim.feature_states.self_s",
    "qsim.amplitudes",
    "cli.build_pool.total_s",
    "datasets.relabel_for_advantage.total_s",
    "cli.self_s",
    "trace.overhead_share",
} | {f"{layer}.share" for layer in run.tracing.LAYERS}


def declared(section: str) -> dict[str, str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_tiny(monkeypatch, capsys, trace: int) -> dict:
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    rc = run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0.1", "--trace", str(trace)])
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section, names", [(0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, trace, section, names):
    line = run_tiny(monkeypatch, capsys, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] % 10 == 0 and line["attempted"] >= 10 * (1 + trace)
    units = declared(section)
    assert names <= set(units)
    assert {name: m["unit"] for name, m in line["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_output_checks_catch_corrupted_results(monkeypatch, capsys, tmp_path):
    run_tiny(monkeypatch, capsys, 0)
    config = run.sweep_config(TINY, 0)
    good = run.WORK / "tiny" / "seed0-trace0" / "results-0.csv"
    data = good.read_bytes()
    assert run.check_outputs([good, good], config, None) == [([], 0), ([], 0)]

    truncated = tmp_path / "truncated.csv"
    truncated.write_bytes(b"\n".join(data.splitlines()[:-1]) + b"\n")
    problems, _ = run.check_results(truncated, config)
    assert any("records, grid has 10" in p for p in problems)

    # one more digit in a value keeps the grid intact: only identity and digest see it
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index("dist_before")] += "1"
    lines[1] = ",".join(cells)
    changed = tmp_path / "changed.csv"
    changed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run.check_results(changed, config) == ([], 0)
    (_, _), (problems, _) = run.check_outputs([good, changed], config, None)
    assert problems == ["changed.csv differs from results-0.csv"]

    pinned = hashlib.sha256(data).hexdigest()
    assert run.check_outputs([good], config, pinned) == [([], 0)]
    [(problems, _)] = run.check_outputs([changed], config, pinned)
    assert problems == [f"changed.csv: sha256 differs from the pinned {pinned}"]

    # a record that failed is counted, not treated as a broken file
    lines = data.decode().splitlines()
    assert header[-1] == "error" and lines[2].endswith(",")
    lines[2] += "ValueError: boom"
    errored = tmp_path / "errored.csv"
    errored.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run.check_results(errored, config) == ([], 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shots-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
