"""``tools/clidigests.py`` prints the same lines on every run, and a changed
error message changes the line of the one command that prints it."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def start(root: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-B", str(root / "tools" / "clidigests.py")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_two_runs_agree_and_a_changed_message_changes_one_line(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src" / "qksim", copy / "src" / "qksim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "clidigests.py", copy / "tools")
    kernels = copy / "src" / "qksim" / "kernels.py"
    text = kernels.read_text(encoding="utf-8")
    assert text.count("sidecar keys must be") == 1
    kernels.write_text(text.replace("sidecar keys must be", "sidecar keys should be"),
                       encoding="utf-8")

    runs = [start(ROOT), start(ROOT), start(copy)]
    outputs = [run.communicate(timeout=120) for run in runs]
    assert [(run.returncode, err) for run, (_, err) in zip(runs, outputs)] == [(0, "")] * 3
    first, second, changed = (out.splitlines() for out, _ in outputs)
    assert first == second and len(first) == 16
    differ = [(a.split(), b.split()) for a, b in zip(first, changed) if a != b]
    assert len(differ) == 1
    (name, *before), (_, *after) = differ[0]
    assert name == "malformed-sidecar" and len(before) == len(after)
    assert [x.split("=")[0] for x, y in zip(before, after) if x != y] == ["stderr"]
