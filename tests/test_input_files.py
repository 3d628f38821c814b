"""Mutation tests of the files the CLI reads (MacIver et al., "Hypothesis",
JOSS 4(43), 1891, 2019).

Each test writes a valid file of one kind, mutates it and reads it the way the
CLI does: byte flips, truncation, a byte-order mark, ``nan``/``inf`` tokens,
ragged rows and repeated JSON keys.  A run exits 0, or exits 1 or 2 with one
stderr line and no traceback, and a failure to read the file names it.  A
mutation that must fail (undecodable bytes, a non-finite CSV token, a ragged
row, a repeated key) fails and names the path; a byte-order mark alone is
skipped."""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qksim import cli, datasets, kernels, linalg

BOM = b"\xef\xbb\xbf"
CSV_TOKENS = ("nan", "inf", "-inf", "1e400")
JSON_TOKENS = ("NaN", "Infinity", "-Infinity", "1e400")
# a number that is a whole JSON value, not part of a key or a string
JSON_NUMBER = re.compile(r'(?<=[\s:\[,])-?\d+(\.\d+)?([eE][-+]?\d+)?(?=[\s,\]}])')
JSON_KEY = re.compile(r'"\w+": ')

# a flipped byte is any byte, or one that keeps the file UTF-8 and may keep it
# well formed: a digit, a separator or a piece of JSON syntax
BYTES = st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-.e,\n "{}[]:'))
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), BYTES),
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("bom")),
    st.tuples(st.just("token"), st.integers(0, 2**16), st.integers(0, 3)),
    st.tuples(st.just("ragged"), st.integers(0, 2**16)),
    st.tuples(st.just("repeat"), st.integers(0, 2**16)),
)


def mutate(data: bytes, mutation: tuple, csv_header: bool | None):
    """``(bytes, verdict)``: the mutated file, and "fail" when it must fail,
    "pass" when it must read as the valid file, else None.  ``csv_header``
    is None for a JSON file, else whether its first line is a header."""
    kind, *args = mutation
    if kind == "flip":
        pos = args[0] % len(data)
        out = data[:pos] + bytes([args[1]]) + data[pos + 1:]
        try:
            out.decode("utf-8")
        except UnicodeDecodeError:
            return out, "fail"
        return out, None
    if kind == "truncate":
        return data[:args[0] % len(data)], None
    if kind == "bom":
        return BOM + data, "pass"
    text = data.decode("utf-8")
    if csv_header is None:  # a JSON file: a non-finite number, or a key twice
        if kind == "token":
            spots = list(JSON_NUMBER.finditer(text))
            token, verdict = JSON_TOKENS[args[1]], None
        elif kind == "repeat":
            spots = list(JSON_KEY.finditer(text))
            token, verdict = None, "fail"
        else:
            return data, "pass"
        at = spots[args[0] % len(spots)]
        new = token if token else at.group() + "0, " + at.group()
        return (text[:at.start()] + new + text[at.end():]).encode(), verdict
    lines = text.splitlines()
    rows = range(1 if csv_header else 0, len(lines))
    r = rows[args[0] % len(rows)]
    fields = lines[r].split(",")
    if kind == "token":  # a CSV token's verdict is the caller's
        fields[args[0] % len(fields)] = CSV_TOKENS[args[1]]
    elif kind == "ragged":
        fields = fields[1:]
    else:
        return data, "pass"
    lines[r] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode(), "fail" if kind == "ragged" else None


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def check(code: int, err: str, path: Path, verdict, judged: bool = False) -> None:
    """The CLI's contract for one run on a mutated ``path``.  A ``judged`` file
    also holds values or sizes that an input rule judges: that exit 1 names
    the key or the sizes, as the rule's message does, not the file."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if verdict == "pass":
        assert (code, err) == (0, "")
    if verdict == "fail":
        assert code != 0
    if code:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert str(path) in err or (judged and code == 1 and verdict != "fail"), err


def write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@SETTINGS
@given(mutation=MUTATIONS)
def test_a_mutated_sweep_config(mutation):
    raw = {
        "dataset": {"kind": "synthetic"}, "num_qubits": 2, "train_sizes": [4],
        "test_size": 2, "shots": [10], "noise_rates": [0.0], "methods": ["clip"],
        "seeds": [0], "ridge": 0.001, "output": None,
    }
    data, verdict = mutate(json.dumps(raw, indent=2).encode(), mutation, None)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp) / "cfg.json", data)
        code, err = run(["sweep", "--config", str(cfg), "--out", str(Path(tmp) / "r.csv")])
    check(code, err, cfg, verdict, judged=True)


@SETTINGS
@given(mutation=MUTATIONS)
def test_a_mutated_dataset_csv(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        features = datasets.generate_synthetic(6, 2, 3).features
        datasets.save_csv(datasets.Dataset(features, np.array([1, -1] * 3)), path)
        data, verdict = mutate(path.read_bytes(), mutation, csv_header=True)
        write(path, data)
        code, err = run(["kernel", "--data", str(path), "--num-qubits", "2",
                         "--out", str(Path(tmp) / "k.csv")])
    check(code, err, path, "fail" if mutation[0] == "token" else verdict)


@SETTINGS
@given(mutation=MUTATIONS)
def test_a_mutated_cross_matrix_csv(mutation):
    # --cross, because a train kernel is also judged symmetric and PSD; every
    # matrix flag reads through the same linalg.load_matrix_csv
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        train, test = (datasets.generate_synthetic(n, 2, s) for n, s in ((4, 3), (3, 4)))
        kernels.save_kernel(kernels.gram_ideal(train.features), tmp / "k.csv")
        datasets.save_csv(datasets.Dataset(train.features, np.array([1, -1, 1, -1])),
                          tmp / "train.csv")
        datasets.save_csv(datasets.Dataset(test.features, np.array([1, -1, 1])),
                          tmp / "test.csv")
        cross = tmp / "cross.csv"
        linalg.save_matrix_csv(kernels.quantum_cross(train.features, test.features), cross)
        data, verdict = mutate(cross.read_bytes(), mutation, csv_header=False)
        write(cross, data)
        code, err = run([
            "train", "--kernel", str(tmp / "k.csv"), "--data", str(tmp / "train.csv"),
            "--cross", str(cross), "--test-data", str(tmp / "test.csv"),
        ])
    check(code, err, cross, "fail" if mutation[0] == "token" else verdict, judged=True)


@SETTINGS
@given(mutation=MUTATIONS)
def test_a_mutated_kernel_sidecar(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        kernel = Path(tmp) / "k.csv"
        gram = kernels.gram_ideal(datasets.generate_synthetic(4, 2, 3).features)
        noisy = kernels.apply_noise(gram, kernels.NoiseModel(0.01))
        kernels.save_kernel(kernels.sample_shots(noisy, 10, 0), kernel)
        sidecar = Path(f"{kernel}.json")
        data, verdict = mutate(sidecar.read_bytes(), mutation, None)
        write(sidecar, data)
        code, err = run(["calibrate", "--kernel", str(kernel), "--method", "clip",
                         "--out", str(Path(tmp) / "o.csv")])
    check(code, err, sidecar, verdict)


RECORDS = [
    cli.ResultRecord(kind=cli.QUANTUM, n=4, n_test=2, m=10, p_tilde=0.0,
                     method="clip", seed=0, test_accuracy=0.5, c1=float("nan"),
                     passed_lemma=True),
    cli.ResultRecord(kind=cli.QUANTUM, n=4, n_test=2, m="inf", p_tilde=0.05,
                     method="none", seed=0, error="SingularMatrixError: singular"),
    cli.ResultRecord(kind=cli.RBF_BASELINE, n=4, n_test=2, method="rbf-grid",
                     seed=0, gamma=0.5, ridge=1e-8, test_accuracy=1.0),
]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(fmt=st.sampled_from(["csv", "json"]), mutation=MUTATIONS)
def test_a_mutated_results_file(fmt, mutation):
    # no command reads a results file; load_results reads it for a library
    # caller, so its contract is to return records or raise one ValueError
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"r.{fmt}"
        cli.emit_results(RECORDS, path, fmt)
        data, verdict = mutate(path.read_bytes(), mutation,
                               csv_header=True if fmt == "csv" else None)
        write(path, data)
        try:
            records = cli.load_results(path)
        except ValueError as exc:
            assert verdict != "pass" and str(path) in str(exc) and "\n" not in str(exc)
        else:
            assert verdict != "fail"
            if verdict == "pass":
                again = Path(tmp) / f"again.{fmt}"
                cli.emit_results(records, again, fmt)
                assert again.read_bytes() == data.removeprefix(BOM)
