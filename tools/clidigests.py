#!/usr/bin/env python3
"""Exit code and output sha256 of each of a fixed list of ``qksim`` commands.

Run from the repository root:

    python3 tools/clidigests.py > after.txt

The list covers the command line end to end: ``kernel`` exact, with shots
and noise, and with the ``half-inverse-dim`` mixing; ``calibrate
--reference``; ``train --out``; ``relabel`` at 2 qubits and at 3 (whose rank
bound 4^3 = 64 exceeds the 24 rows, so both sides of relabelling's
``min(rank, n)`` run); ``bound``; ``check --trials 20``;
a csv-dataset sweep written as CSV and as JSON; and five failures (a bad flag,
a bad config, an undecodable dataset, a malformed kernel sidecar and a kernel
written into a missing directory, whose message must name the target, not a
temporary file that differs from run to run).  Each
command runs in this process through ``qksim.cli.main`` on the ``qksim`` of
this checkout's ``src/``, with one BLAS thread, in a temporary directory that
holds one fixed 24 x 4 dataset drawn from ``rng.stream``.  Every path is
relative to that directory, so no output depends on where it is.

One line per command: ``<name> exit=<code> stdout=<sha256> stderr=<sha256>``,
then ``<file>=<sha256>`` for each file the command created or changed.  Diff
the output of two checkouts to see which commands changed bytes.  Nothing is
written in the repository.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DATA = ["--data", "data.csv", "--num-qubits", "2"]
SWEEP = {
    "dataset": {"kind": "csv", "path": "data.csv"},
    "num_qubits": 2,
    "train_sizes": [8],
    "test_size": 6,
    "shots": [100, "inf"],
    "noise_rates": [0.0, 0.01],
    "methods": ["clip", "nearest"],
    "seeds": [0],
}
# later commands read the files earlier ones write
COMMANDS = [
    ("kernel", ["kernel", *DATA, "--out", "q.csv"]),
    ("kernel-shots", ["kernel", *DATA, "--shots", "100", "--p-tilde", "0.01",
                      "--seed", "3", "--out", "w.csv"]),
    ("kernel-half-inverse-dim", ["kernel", *DATA, "--p-tilde", "0.01",
                                 "--mixing", "half-inverse-dim", "--out", "h.csv"]),
    ("calibrate-reference", ["calibrate", "--kernel", "w.csv", "--method", "clip",
                             "--reference", "q.csv", "--out", "wc.csv"]),
    ("train-out", ["train", "--kernel", "wc.csv", "--data", "data.csv",
                   "--out", "model.json"]),
    ("relabel", ["relabel", *DATA, "--out", "relabeled.csv"]),
    ("relabel-full-rank", ["relabel", "--data", "data.csv", "--num-qubits", "3",
                           "--out", "relabeled3.csv"]),
    ("bound", ["bound", "--kernel", "q.csv", "--data", "relabeled.csv",
               "--ridge", "0.001", "--shots", "100", "--p-tilde", "0.01"]),
    ("check", ["check", "--trials", "20"]),
    ("sweep-csv", ["sweep", "--config", "sweep.json", "--out", "results.csv"]),
    ("sweep-json", ["sweep", "--config", "sweep.json", "--format", "json",
                    "--out", "results.json"]),
    ("bad-flag", ["kernel", *DATA, "--shots", "1.5", "--out", "bad.csv"]),
    ("bad-config", ["sweep", "--config", "bad-config.json", "--out", "bad.csv"]),
    ("unreadable-dataset", ["relabel", "--data", "undecodable.csv",
                            "--num-qubits", "2", "--out", "bad.csv"]),
    ("malformed-sidecar", ["calibrate", "--kernel", "sidecar.csv",
                           "--method", "clip", "--out", "bad.csv"]),
    ("failed-write", ["kernel", *DATA, "--out", "missing/q.csv"]),
]


def write_inputs(datasets, stream) -> None:
    """The dataset, the configs and the bad inputs, in the current directory."""
    g = stream(0, "clidigests")
    data = datasets.Dataset(features=g.uniform(-1.0, 1.0, size=(24, 4)),
                            labels=g.choice([-1, 1], size=24))
    datasets.save_csv(data, "data.csv")
    Path("sweep.json").write_text(json.dumps(SWEEP), encoding="utf-8")
    bad = dict(SWEEP, dataset={"kind": "hdf5"})
    Path("bad-config.json").write_text(json.dumps(bad), encoding="utf-8")
    Path("undecodable.csv").write_bytes(b"\xff" + Path("data.csv").read_bytes())
    Path("sidecar.csv").write_text("1,0\n0,1\n", encoding="utf-8")
    sidecar = {"provenance": "ideal", "pbrams": {"num_qubits": 2}}
    Path("sidecar.csv.json").write_text(json.dumps(sidecar), encoding="utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def files() -> dict[str, str]:
    return {p.name: sha256(p.read_bytes()) for p in sorted(Path().iterdir())}


def run(main, argv: list[str]) -> str:
    """``main(argv)``'s exit code and the sha256 of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return (f"exit={code} stdout={sha256(out.getvalue().encode())} "
            f"stderr={sha256(err.getvalue().encode())}")


def main() -> int:
    # one BLAS thread, as in the benchmark's children; set before numpy loads
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path.insert(0, str(ROOT / "src"))
    from qksim import cli, datasets
    from qksim.rng import stream

    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs(datasets, stream)
            for name, argv in COMMANDS:
                before = files()
                result = run(cli.main, argv)
                written = [f"{f}={h}" for f, h in files().items() if before.get(f) != h]
                print(" ".join([name, result, *written]), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
