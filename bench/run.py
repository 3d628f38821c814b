#!/usr/bin/env python3
"""Sweep benchmark for qksim.

Run from the repository root:

    python3 bench/run.py --workload shots-sweep --seed 0 --seconds 40 --trace 0

Each sample is a fresh child interpreter (``bench/child.py``) that imports
``qksim`` from ``src/`` and drives the public ``qksim sweep`` entry point on
a config generated from the workload and ``--seed``.  A run first times a
few set-up-only children, then runs sweeps one after another (a closed loop
with one client) while the next one, and with ``--trace 1`` the traced one
after it, is expected to finish inside ``--seconds``; at least one always
runs.  It checks every results file and prints one JSON object as the last
line of standard output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(medians over the run's samples).  ``--trace 1`` runs the same untraced
loop, then one more sweep with every qksim function wrapped from outside
(``bench/tracer.py``) and reports the per-layer metrics.

Exit codes: 0 when a result was printed (``correct`` says whether every
output check passed), 2 when the benchmark cannot run at all, for example
because ``src/qksim`` or ``BENCHMARK.json`` is missing.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_build"

SETUP_PROBES = 3  # set-up-only children per run, on top of each sweep's set-up
DEADLINE_S = 170.0  # a run must end within 180 s
DIGEST_SEED = 0  # the seed whose results digest is pinned in expected.json
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_BASE = {
    "dataset": {"kind": "synthetic"},
    "test_size": 100,
    "noise_rates": [0.0, 0.05],
    "methods": ["nearest", "clip", "flip", "shift"],
}

# Each workload makes a different layer dominant (see bench/README.md).
WORKLOADS = {
    # the README sweep: per-entry shot sampling in sample_shots and
    # quantum_cross dominates; 66 records
    "shots-sweep": dict(
        _BASE, num_qubits=2, train_sizes=[200], shots=[10, 100, 1000, "inf"]
    ),
    # no sampling at all: eigendecompositions in linalg/calibrate/bounds and
    # the RBF grid search dominate; 18 records
    "spectral-sweep": dict(
        _BASE, num_qubits=2, train_sizes=[400], shots=["inf"], cross_shots="exact"
    ),
    # 4096-amplitude statevectors: encoding, re-done inside quantum_cross for
    # every record, dominates; 18 records
    "wide-encode": dict(_BASE, num_qubits=12, train_sizes=[200], shots=["inf"]),
}


def sweep_config(spec: dict, seed: int) -> dict:
    """The workload's config; ``--seed`` picks its two data seeds."""
    config = dict(spec)
    config["seeds"] = [2 * seed, 2 * seed + 1]
    return config


def expected_coordinates(config: dict) -> collections.Counter:
    """One (kind, n, m, p_tilde, method, seed) per record the sweep must write."""
    coords = collections.Counter()
    for n in config["train_sizes"]:
        for seed in config["seeds"]:
            for m in config["shots"]:
                for p in config["noise_rates"]:
                    for method in config["methods"]:
                        coords[("quantum", n, str(m), float(p), method, seed)] += 1
            coords[("rbf", n, "", None, "rbf-grid", seed)] += 1
    return coords


def check_results(path: Path, config: dict) -> tuple[list[str], int]:
    """Problems with one results CSV, and the number of records with an error."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path.name}: unreadable: {exc}"], 0
    if not lines:
        return [f"{path.name}: empty"], 0
    header = lines[0].split(",")
    missing = {"kind", "n", "m", "p_tilde", "method", "seed", "error"} - set(header)
    if missing:
        return [f"{path.name}: header lacks {sorted(missing)}"], 0
    want = expected_coordinates(config)
    problems = []
    if len(lines) - 1 != sum(want.values()):
        problems.append(
            f"{path.name}: {len(lines) - 1} records, grid has {sum(want.values())}"
        )
    got = collections.Counter()
    errors = 0
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            problems.append(f"{path.name}:{number}: {len(cells)} cells, header has {len(header)}")
            continue
        row = dict(zip(header, cells))
        try:
            got[
                (
                    row["kind"],
                    int(row["n"]),
                    row["m"],
                    float(row["p_tilde"]) if row["p_tilde"] else None,
                    row["method"],
                    int(row["seed"]),
                )
            ] += 1
        except ValueError as exc:
            problems.append(f"{path.name}:{number}: bad coordinate: {exc}")
        errors += bool(row["error"])
    if not problems and got != want:
        problems.append(f"{path.name}: records do not cover the grid coordinates once each")
    return problems, errors


def pinned_digest(workload: str, env: dict) -> str | None:
    """The results sha256 ``expected.json`` pins for the workload, if it applies here.

    Byte identity holds only on one platform: near-zero eigenvalues of the
    N=2 kernels are pure round-off, so another instruction set, numpy or
    BLAS build (or BLAS thread count) changes them.  Elsewhere no digest is
    pinned and the check is skipped.
    """
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    if any(env.get(key) != value for key, value in expected["platform"].items()):
        return None
    return expected["sha256"].get(workload)


def check_outputs(
    paths: list[Path], config: dict, pinned: str | None
) -> list[tuple[list[str], int]]:
    """Per results file: its problems and its number of records with an error.

    Every file must cover the grid, all must be byte-identical to the first
    that does, and that one's sha256 must equal ``pinned`` when given.
    """
    checks = []
    first = None
    for path in paths:
        problems, errors = check_results(path, config)
        if not problems:
            data = path.read_bytes()
            if first is None:
                first = path, data
            if data != first[1]:
                problems = [f"{path.name} differs from {first[0].name}"]
            elif pinned is not None and hashlib.sha256(data).hexdigest() != pinned:
                problems = [f"{path.name}: sha256 differs from the pinned {pinned}"]
        checks.append((problems, errors))
    return checks


@dataclass
class Sample:
    """One child process: its set-up time, wall time and final report."""

    setup_s: float | None = None
    wall_s: float = 0.0
    report: dict = field(default_factory=dict)
    problem: str | None = None
    errors: int = 0  # records of the sweep's results with a non-empty error


def child_env() -> dict:
    env = dict(os.environ)
    # the workloads run at the library's default worker count
    env.pop("QKSIM_THREADS", None)
    # one BLAS thread: on a 2-vCPU shared host two threads burned twice the
    # CPU time for no speed-up and made sweep times noisier
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(mode: str, args: list[Path], deadline: float) -> Sample:
    """Spawn ``child.py``, time spawn-to-ready as set-up, wait for its report."""
    sample = Sample()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), mode, *map(str, args)],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(deadline - time.perf_counter(), 0.0)):
                raise subprocess.TimeoutExpired(proc.args, deadline - started)
        if proc.stdout.readline().strip() == "ready":
            sample.setup_s = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        sample.problem = f"{mode} child did not finish before the run's deadline"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    sample.wall_s = time.perf_counter() - started
    if sample.problem:
        return sample
    if proc.returncode != 0 or sample.setup_s is None:
        sample.problem = f"{mode} child exited with {proc.returncode}"
    elif mode != "setup":
        try:
            sample.report = json.loads(rest.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            sample.problem = f"{mode} child printed no report"
        else:
            if sample.report["rc"] != 0:
                sample.problem = f"qksim sweep exited with {sample.report['rc']}"
            elif not Path(sample.report["package"]).resolve().is_relative_to(SRC.resolve()):
                sample.problem = f"child imported qksim from {sample.report['package']}, not {SRC}"
    return sample


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_info() -> tuple[str, str]:
    """CPU model name and a digest of its feature flags (they pick BLAS kernels)."""
    model, flags = platform.processor() or "unknown", ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = value.strip()
                    break
    except OSError:
        pass
    return model, hashlib.sha256(flags.encode("utf-8")).hexdigest()[:16]


def environment() -> dict:
    """Where the run happened: code version, machine and numeric stack."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    model, flags = cpu_info()
    src = hashlib.sha256()
    for path in sorted((SRC / "qksim").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0")
        src.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_flags_sha256": flags,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(child_env().items()) if "THREAD" in k},
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object and writes result.json."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    config = sweep_config(WORKLOADS[workload], seed)
    grid = sum(expected_coordinates(config).values())
    workdir = WORK / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    env = environment()

    setups = [run_child("setup", [config_path], deadline) for _ in range(SETUP_PROBES)]
    sweeps: list[Sample] = []
    outputs: list[Path] = []
    while True:
        outputs.append(workdir / f"results-{len(sweeps)}.csv")
        sweeps.append(run_child("sweep", [config_path, outputs[-1]], deadline))
        # the traced sweep of a --trace 1 run also has to fit in --seconds
        ahead = statistics.median(s.wall_s for s in sweeps) * (2 if trace else 1)
        now = time.perf_counter()
        if sweeps[-1].problem or now - start + ahead > seconds or now + ahead > deadline:
            break

    traced = None
    if trace:
        outputs.append(workdir / "results-traced.csv")
        spans_path = workdir / "spans.json"
        traced = run_child("trace", [config_path, outputs[-1], spans_path], deadline)
        sweeps.append(traced)

    finished = [(s, path) for s, path in zip(sweeps, outputs) if not s.problem]
    pinned = pinned_digest(workload, env) if seed == DIGEST_SEED else None
    checks = check_outputs([path for _, path in finished], config, pinned)
    for (sample, path), (bad, errors) in zip(finished, checks):
        if bad:
            sample.problem = "; ".join(bad)
        elif errors:
            sample.errors = errors
    problems = [s.problem for s in setups + sweeps if s.problem]
    problems += [f"{s.errors} records with an error" for s in sweeps if s.errors]
    failed = sum(grid if s.problem else s.errors for s in sweeps)
    reference = finished[0][1].read_bytes() if finished else None

    # a sweep that ran to the end is timed even when its output check failed
    timed = [s for s in sweeps if s is not traced and s.report.get("rc") == 0]
    if not timed:
        raise RuntimeError("no sweep finished: " + "; ".join(problems))
    setup_values = [s.setup_s for s in setups + sweeps if s.setup_s is not None]
    sweep_values = [s.report["sweep_s"] for s in timed]
    rss_values = [s.report["peak_rss_mb"] for s in timed]
    samples = {"sweep_s": sweep_values, "setup_s": setup_values, "peak_rss_mb": rss_values}
    metrics = {name: statistics.median(values) for name, values in samples.items()}

    trace_info = None
    if trace:
        if traced.report.get("rc") != 0:
            raise RuntimeError(f"traced sweep failed: {traced.problem}")
        dump = json.loads(spans_path.read_text(encoding="utf-8"))
        metrics = tracing.layer_metrics(
            dump["spans"],
            traced.report["sweep_s"],
            metrics["sweep_s"],
            grid,
            len(dump["absent"]),
        )
        top = sorted(tracing.summarize(dump["spans"]).items(), key=lambda kv: -kv[1]["self_s"])
        trace_info = {
            "absent": dump["absent"],
            "work_errors": dump["work_errors"],
            "top_self_s": [[name, row["calls"], row["self_s"]] for name, row in top[:12]],
        }

    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "config": config,
        "records_per_sweep": grid,
        "sweeps": len(sweeps),
        "environment": env,
        "samples": samples,
        "results_sha256": hashlib.sha256(reference).hexdigest() if reference else None,
        "digest_pinned": pinned,
        "problems": problems,
        "correct": not problems,
        "attempted": grid * len(sweeps),
        "failed": failed,
        "metrics": metrics,
        "trace_info": trace_info,
    }
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def print_summary(result: dict, units: dict[str, str]) -> None:
    print(
        f"{result['workload']} seed {result['seed']}: {result['sweeps']} sweep(s) of "
        f"{result['records_per_sweep']} records, results sha256 {result['results_sha256']}"
    )
    if result["digest_pinned"]:
        print("results digest checked against bench/expected.json")
    else:
        print(f"results digest not checked: only seed {DIGEST_SEED} on the pinned platform is")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if result["trace_info"] is None:
        for name, values in result["samples"].items():
            q1, q2, q3 = quartiles(values)
            print(f"{name:<12} median {q2:.6g} {units.get(name, '')}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
        return
    info = result["trace_info"]
    if info["absent"]:
        print(f"absent spans (reported as 0): {', '.join(info['absent'])}")
    if info["work_errors"]:
        print(f"work counts unreadable for: {', '.join(info['work_errors'])}")
    print("top self time in the traced sweep:")
    for name, calls, self_s in info["top_self_s"]:
        print(f"  {name:<36} {calls:>8} calls  {self_s:10.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "qksim" / "__init__.py").is_file():
        print(f"error: no qksim package under {SRC}", file=sys.stderr)
        return 2
    try:
        units = declared_metrics(bool(args.trace))
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, KeyError, json.JSONDecodeError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    unmeasured = sorted(set(units) - set(result["metrics"]))
    if unmeasured:
        print(f"error: metrics not measured: {unmeasured}", file=sys.stderr)
        return 2
    print_summary(result, units)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
