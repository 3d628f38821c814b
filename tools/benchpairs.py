#!/usr/bin/env python3
"""Paired benchmark runs of a revision against the working tree.

Run from the repository root:

    python3 tools/benchpairs.py HEAD --workload wide-encode --pairs 10 --seconds 20

``REV`` is exported with ``git archive``, and the working tree (its tracked
files and the untracked ones ``.gitignore`` does not exclude, as they are on
disk) is copied, each into a fresh temporary directory.  So neither side
holds a ``__pycache__`` or ``.bench_build`` from earlier runs, and both
compile the package the same way.  Each pair runs
``bench/run.py --workload W --seed 0 --seconds S --trace 0`` once in each
copy: the revision first in even pairs, the working tree first in odd ones.

For every end-to-end metric of ``BENCHMARK.json`` the summary gives the
median and quartiles of each side, the change of the medians, and in how
many pairs the working tree was better.  Nothing is written in the
repository, and the copies are deleted at exit.  Exit status: 0 when every
run was correct, 1 when one was not, 2 when the export or a run failed.
"""
from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True
    ).stdout


def export_rev(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode("utf-8").split("\0"):
        if name and (ROOT / name).is_file():  # a deleted tracked file is listed too
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(ROOT / name, dest / name)


def bench(copy: Path, workload: str, seconds: float) -> dict:
    """The JSON object of the last line ``bench/run.py`` prints in ``copy``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def brief(result: dict, names) -> str:
    return " ".join(f"{name} {result['metrics'][name]['value']:.6g}" for name in names)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric of ``better`` (name -> "lower" or "higher") over
    ``(rev, tree)`` results, then one line of failed operations."""
    lines = []
    for name, direction in better.items():
        rev = [r["metrics"][name]["value"] for r, _ in runs]
        tree = [t["metrics"][name]["value"] for _, t in runs]
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (t - r) < 0 for r, t in zip(rev, tree))
        (r1, r2, r3), (t1, t2, t3) = quartiles(rev), quartiles(tree)
        lines.append(
            f"{name:<12} rev {r2:.6g} [{r1:.6g}, {r3:.6g}]  tree {t2:.6g} "
            f"[{t1:.6g}, {t3:.6g}]  {100 * (t2 - r2) / r2:+.2f}%  "
            f"tree {direction} in {won}/{len(runs)} pairs"
        )
    failed = [sum(run[side]["failed"] for run in runs) for side in (0, 1)]
    attempted = [sum(run[side]["attempted"] for run in runs) for side in (0, 1)]
    lines.append(
        f"failed operations: rev {failed[0]} of {attempted[0]}, "
        f"tree {failed[1]} of {attempted[1]}"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        rev_dir, tree_dir = Path(tmp, "rev"), Path(tmp, "tree")
        try:
            export_rev(args.rev, rev_dir)
            export_worktree(tree_dir)
            for k in range(args.pairs):
                order = (rev_dir, tree_dir) if k % 2 == 0 else (tree_dir, rev_dir)
                got = {copy: bench(copy, args.workload, args.seconds) for copy in order}
                runs.append((got[rev_dir], got[tree_dir]))
                print(f"pair {k + 1}: rev {brief(got[rev_dir], better)} | "
                      f"tree {brief(got[tree_dir], better)}", flush=True)
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(exc.cmd)}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print("\n".join(summarize(runs, better)))
    return 0 if all(result["correct"] for run in runs for result in run) else 1


if __name__ == "__main__":
    sys.exit(main())
