"""Configuration-driven experiment harness and command-line interface.

``run_sweep`` walks the Cartesian grid (train size, shots, noise rate,
calibration method, seed) at three levels: the (train size, seed) cell, the
(shots, noise rate) point and the method.  Each quantum record fills its
fields in order: pool, sampled kernel W, the spectra of the ideal kernel Q
and of W, repair and fit, cross kernel, c1, ideal bound terms and bound.
The pool encodes each of the cell's rows once: the ideal train kernel and the
(test, train) cross block are both blocks of the pooled rows' Gram matrix.  A
stage shared by several records runs through ``_once`` on a memo: the
cell's memo keeps the pool, Q's spectrum, c1, the ideal terms and the stream
families of the shot samplers (each entry's first Philox block, made once),
and a fresh memo per point keeps W, its spectrum, the cross kernel and the bound.
A memo keeps a stage's value or its failure, so a shared stage runs once at
its level, failing or not, and a record keeps exactly the fields it filled
before a failing step.  The report and the fit share the repair's Spectrum,
W's own at its fixed point.  At noise rate 0 and exact shots W is Q, bit for
bit, so that point samples nothing and takes Q's Spectrum.
Output records are sorted by coordinate and serialize byte-identically.

Exit codes: 0 success, 1 configuration error, 2 runtime error.  Each config
value and flag is judged by its input rule alone before any data file is read;
a flag's text reaches its rule as the value a JSON config would hold there.
A failed coordinate is a record carrying its error text, with exit 0; exit 2
means no results were written.  Everything is pinned by the config and seeds.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds, calibrate, datasets, kernels, learner, linalg, qsim
from .rng import SEED_LIMIT, stream

QUANTUM = "quantum"
RBF_BASELINE = "rbf"
DATASET_KINDS = ("synthetic", "csv")


class ConfigError(ValueError):
    pass


def _items(value) -> list:
    """A config list; a scalar, a string or null is not one."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return list(value)


def _integer(value) -> int:
    """An integer; a bool or a number with a fraction is an error, not one
    ``int`` would silently truncate."""
    n = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise ValueError(f"expected an integer, got {value!r}")
    return n


def _real(value) -> float:
    """A finite real; a bool is an error, not the number 0 or 1."""
    x = float(value)
    if isinstance(value, bool) or not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


# ---------------------------------------------------------------------------
# input rules: every sweep config value and every checked flag goes through
# one, so a value gets the same message wherever it came from


def _rule(coerce, holds=lambda v: True, condition: str = ""):
    """``rule(name, value)``: the coerced value, or a ConfigError reading
    ``bad <name> entry: <reason>`` when it cannot be coerced and ``<name>
    must be <condition>, got <value>`` when it is out of range."""

    def check(name: str, value):
        try:
            v = coerce(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad {name} entry: {exc}") from exc
        if not holds(v):
            raise ConfigError(f"{name} must be {condition}, got {v!r}")
        return v

    return check


def _each(rule, nonempty: bool = False):
    """A list rule: every entry follows ``rule`` and no two checked entries are
    equal, so 0.0 and -0.0 clash; ``nonempty`` rejects []."""
    items = _rule(_items, lambda v: v or not nonempty, "nonempty")
    distinct = _rule(tuple, lambda v: len(set(v)) == len(v), "distinct")
    return lambda name, value: distinct(name, [rule(name, v) for v in items(name, value)])


def _choice(options: tuple):
    return _rule(str, lambda v: v in options, f"one of {list(options)}")


REAL = _rule(_real)
COUNT = _rule(_integer, lambda n: n >= 1, ">= 1")
QUBITS = _rule(
    _integer, lambda n: 1 <= n <= qsim.MAX_QUBITS, f"in [1, {qsim.MAX_QUBITS}]"
)
NONNEGATIVE = _rule(_real, lambda x: x >= 0.0, ">= 0")
POSITIVE = _rule(_real, lambda x: x > 0.0, "> 0")
PROBABILITY = _rule(_real, lambda x: 0.0 < x < 1.0, "in (0, 1)")
SHOTS = _rule(kernels.parse_shots)
INTEGER = _rule(_integer)
SEED = _rule(_integer, lambda n: 0 <= n < SEED_LIMIT, "in [0, 2**64)")


def _noise_model(rate, layers, mixing) -> kernels.NoiseModel:
    """The cross-field rule: a rate, the layers and the mixing make one model."""
    try:
        return kernels.NoiseModel(rate, layers, mixing)
    except ValueError as exc:
        raise ConfigError(f"bad noise model: {exc}") from exc


# the rule of each SweepConfig field but ``dataset``; each noise rate, or 0.0
# if there is none, also makes one noise model with ``layers`` and ``mixing``
CONFIG_RULES = {
    "num_qubits": QUBITS,
    "train_sizes": _each(COUNT, nonempty=True),
    "test_size": COUNT,
    "shots": _each(SHOTS),
    "noise_rates": _each(REAL),
    "methods": _each(_choice(calibrate.METHODS + (calibrate.NONE,))),
    "seeds": _each(SEED, nonempty=True),
    "layers": INTEGER,
    "ridge": NONNEGATIVE,
    "nearest_delta": NONNEGATIVE,
    "relabel_gamma_scale": POSITIVE,
    "bound_delta": PROBABILITY,
    "cross_shots": _choice(("pipeline", "exact")),
    "output": _rule(lambda v: v, lambda v: v is None or isinstance(v, str),
                    "a path string or null"),
}

# the noise flags that ``kernel`` and ``bound`` share
NOISE_FLAGS = {"shots": SHOTS, "p_tilde": REAL, "layers": INTEGER}

# the rule of each checked flag by subcommand and dest, its value's only judge;
# ``main`` applies them before the handler runs, so no bad value reaches a file
FLAG_RULES = {
    "sweep": {"seed": SEED},
    "kernel": {**NOISE_FLAGS, "num_qubits": QUBITS, "seed": SEED},
    "calibrate": {"delta": NONNEGATIVE},
    "train": {"ridge": NONNEGATIVE},
    "relabel": {"ridge": NONNEGATIVE, "gamma_scale": POSITIVE, "num_qubits": QUBITS},
    "bound": {
        **NOISE_FLAGS, "delta": PROBABILITY, "ridge": NONNEGATIVE, "num_qubits": QUBITS,
    },
    "check": {"trials": COUNT, "seed": SEED},
}


def _json_value(value):
    """Flag text as a JSON config would hold it: an int if it reads as one,
    else a float if it reads as one, else the text; a default passes as is."""
    for kind in (int, float) if isinstance(value, str) else ():
        with contextlib.suppress(ValueError):
            return kind(value)
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members; a repeated key is an error, not its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class SweepConfig:
    dataset: dict
    num_qubits: int
    train_sizes: tuple[int, ...]
    test_size: int
    shots: tuple[object, ...]  # ints or the "inf" sentinel
    noise_rates: tuple[float, ...]
    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    layers: int = 8
    mixing: str = kernels.MIX_INVERSE_DIM
    ridge: float = learner.DEFAULT_QUANTUM_RIDGE
    # nearest-projection floor; 0.1 reproduces the reported two-qubit
    # shot-sweep accuracies on the engineered synthetic data
    nearest_delta: float = 0.1
    relabel_gamma_scale: float = 1.0
    bound_delta: float = 0.05
    # "pipeline" samples test-train kernel entries with the coordinate's
    # shot budget; "exact" evaluates them at expectation, isolating how the
    # train-side calibration generalizes
    cross_shots: str = "pipeline"
    output: str | None = None

    @classmethod
    def from_dict(cls, raw) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        fields = dataclasses.fields(cls)
        unknown = set(raw) - {f.name for f in fields}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        required = [f.name for f in fields if f.default is dataclasses.MISSING]
        missing = [key for key in required if key not in raw]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")

        dataset = raw["dataset"]
        if not isinstance(dataset, dict) or dataset.get("kind") not in DATASET_KINDS:
            raise ConfigError('dataset must be {"kind": "synthetic"|"csv", ...}')
        if dataset["kind"] == "csv" and "path" not in dataset:
            raise ConfigError("csv dataset needs a path")
        if not isinstance(dataset.get("path", ""), str):
            raise ConfigError("dataset path must be a string")
        extra_ds = set(dataset) - {"kind", "path"}
        if extra_ds:
            raise ConfigError(f"unknown dataset keys: {sorted(extra_ds)}")

        values = {f.name: raw.get(f.name, f.default) for f in fields}
        for key, rule in CONFIG_RULES.items():
            values[key] = rule(key, values[key])
        for p in values["noise_rates"] or (0.0,):
            _noise_model(p, values["layers"], values["mixing"])
        return cls(**values)

    @classmethod
    def from_json_file(cls, path) -> "SweepConfig":
        try:  # ValueError: malformed JSON, undecodable bytes or a repeated key
            text = Path(path).read_text(encoding="utf-8-sig")  # less a byte-order mark
            raw = json.loads(text, object_pairs_hook=_unique_keys)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


@dataclass(slots=True)
class ResultRecord:
    kind: str
    n: int
    n_test: int
    m: object = None  # int | "inf" | None (baseline rows)
    p_tilde: float | None = None
    method: str | None = None
    seed: int = 0
    gamma: float | None = None
    ridge: float | None = None
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    c1: float | None = None
    geometric_difference: float | None = None
    dist_before: float | None = None
    dist_after: float | None = None
    min_eig_before: float | None = None
    min_eig_after: float | None = None
    passed_lemma: bool | None = None
    p: float | None = None
    c_q: float | None = None
    c2: float | None = None
    term_ideal: float | None = None
    term_noise: float | None = None
    breakdown_p: float | None = None
    error: str | None = None

    def sort_key(self):
        kind_rank = 0 if self.kind == QUANTUM else 1
        m_key = -1.0 if self.m is None else float(self.m)  # float("inf") is inf
        p_key = -1.0 if self.p_tilde is None else self.p_tilde
        return (self.n, kind_rank, m_key, p_key, self.method or "", self.seed)


# serialized column order
RESULT_FIELDS = [f.name for f in dataclasses.fields(ResultRecord)]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"  # also "inf", "-inf" and "nan"


def _json_cell(value):
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v) or math.isnan(v):
            return _format_cell(v)
        return v
    if isinstance(value, np.integer):
        return int(value)
    return value


def emit_results(records: list[ResultRecord], path, fmt: str = "csv") -> None:
    """Write records with a fixed header order and 17-significant-digit reals."""
    path = Path(path)
    try:
        if fmt == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                # a lone "\r" is left unquoted, and csv.reader ends the row there
                quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
                writer.writerow(RESULT_FIELDS)
                for rec in records:
                    row = [_format_cell(getattr(rec, name)) for name in RESULT_FIELDS]
                    (quoted if any("\r" in c for c in row) else writer).writerow(row)
        elif fmt == "json":
            rows = [
                {name: _json_cell(getattr(rec, name)) for name in RESULT_FIELDS}
                for rec in records
            ]
            path.write_text(
                json.dumps(rows, indent=2, sort_keys=False) + "\n", encoding="utf-8"
            )
        else:
            raise ValueError(f"unknown format: {fmt!r}")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def _parse_cell(name: str, text):
    if text in ("", None):
        return None
    if name in ("kind", "method", "error", "m"):
        if name == "m" and text != "inf":
            return int(text)
        return text
    if name == "passed_lemma":
        return text is True or text == "true"
    if name in ("n", "n_test", "seed"):
        return int(text)
    return float(text)  # also parses "inf", "-inf" and "nan"


def load_results(path) -> list[ResultRecord]:
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    records = []
    if path.suffix == ".json" or text.lstrip().startswith("["):
        for row in json.loads(text):
            records.append(
                ResultRecord(
                    **{name: _parse_cell(name, row.get(name)) for name in RESULT_FIELDS}
                )
            )
        return records
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    header = rows[0]
    for cells in rows[1:]:
        kwargs = {name: _parse_cell(name, cell) for name, cell in zip(header, cells)}
        records.append(ResultRecord(**kwargs))
    return records


@dataclass
class PoolContext:
    """Per-(train size, seed) state shared by all grid coordinates."""

    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    y_train: np.ndarray
    q_train_ideal: np.ndarray
    q_cross_ideal: np.ndarray  # (test, train) block of the pool Gram matrix
    geometric_difference: float


def _csv_features(path, num_qubits: int) -> np.ndarray:
    """A csv dataset's features, PCA-projected to ``num_qubits`` columns; fewer is an error."""
    feats = datasets.load_csv(path).features
    if feats.shape[1] > num_qubits:
        return datasets.pca(feats, num_qubits)
    if feats.shape[1] < num_qubits:
        raise ConfigError(
            f"csv has {feats.shape[1]} features, fewer than num_qubits={num_qubits}"
        )
    return feats


def _load_pool_features(config: SweepConfig, n_pool: int, seed: int, csv_rows=None):
    """A cell's pool: synthetic rows, or rows of a csv dataset's ``csv_rows``."""
    if config.dataset["kind"] == "synthetic":
        ds = datasets.generate_synthetic(n_pool, config.num_qubits, seed)
        return ds.features
    if csv_rows is None:
        raise TypeError("a csv dataset's rows are read once per sweep and passed in")
    if csv_rows.shape[0] < n_pool:
        raise ConfigError(
            f"csv has {csv_rows.shape[0]} rows, need {n_pool} for this sweep cell"
        )
    perm = stream(seed, "pool").permutation(csv_rows.shape[0])
    return csv_rows[np.sort(perm[:n_pool])]


def _engineer_labels(feats: np.ndarray, gamma_scale: float, ridge: float):
    """Pool kernels Q and K, each one shared ``Spectrum``, the RBF width, labels."""
    q_all = linalg.Spectrum(kernels.gram_ideal(feats), "quantum kernel")
    gamma = learner.rbf_gamma_unit(feats, gamma_scale)
    k_all = linalg.Spectrum(kernels.rbf_gram(feats, gamma), "classical kernel")
    labels = datasets.relabel_for_advantage(q_all, k_all, ridge=ridge)
    return q_all, k_all, gamma, labels


def build_pool(config: SweepConfig, n: int, seed: int, csv_rows=None) -> PoolContext:
    """Pooled features, engineered labels, split, ideal kernels, diagnostics.

    The ideal train kernel and cross block are sliced from the pool's Gram
    matrix, so no row is encoded twice."""
    n_pool = n + config.test_size
    feats = _load_pool_features(config, n_pool, seed, csv_rows)
    q_all, k_all, _, labels = _engineer_labels(
        feats, config.relabel_gamma_scale, config.ridge
    )
    train_idx, test_idx = datasets.split(n_pool, n, config.test_size, seed)
    geo = kernels.geometric_difference(k_all, q_all, labels.astype(float), config.ridge)
    return PoolContext(
        features=feats,
        labels=labels,
        train_idx=train_idx,
        test_idx=test_idx,
        y_train=labels[train_idx].astype(float),
        q_train_ideal=q_all.matrix[np.ix_(train_idx, train_idx)],
        q_cross_ideal=q_all.matrix[np.ix_(test_idx, train_idx)],
        geometric_difference=geo,
    )


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _once(memo: dict, key: str, stage, *args):
    """``stage(*args)``, run on the first use of ``key`` in ``memo``, which
    keeps its value or its failure; a kept failure is raised again, with its
    traceback stripped, at every use."""
    if key not in memo:
        try:
            memo[key] = stage(*args), None
        except Exception as exc:
            memo[key] = None, exc
    value, failure = memo[key]
    if failure is not None:
        raise failure.with_traceback(None)
    return value


def _streams(cell: dict, role: str, m, seed: int, entries):
    """The cell's ``role`` stream family, built once; at exact shots, the seed."""
    build = kernels.shot_streams if role == "shots" else kernels.cross_streams
    return seed if m is kernels.INF_SHOTS else _once(cell, role, build, seed, entries)


def _sampled_kernel(
    config: SweepConfig, pool: PoolContext, noise: kernels.NoiseModel, m, streams
) -> np.ndarray:
    q_ideal = kernels.KernelMatrix(
        matrix=pool.q_train_ideal,
        provenance=kernels.IDEAL,
        params={"num_qubits": config.num_qubits},
    )
    noisy = kernels.apply_noise(q_ideal, noise, fix_diagonal=True)
    return kernels.sample_shots(noisy, m, streams).matrix


def _quantum_record(
    config: SweepConfig, cell: dict, point: dict,
    n: int, m, p_tilde: float, method: str, seed: int, csv_rows=None,
) -> ResultRecord:
    """One record, its fields filled in order; ``cell`` keeps the stages of its
    (train size, seed) cell and ``point`` those of its (shots, noise rate)."""
    rec = ResultRecord(
        kind=QUANTUM,
        n=n,
        n_test=config.test_size,
        m="inf" if m is kernels.INF_SHOTS else int(m),
        p_tilde=p_tilde,
        method=method,
        seed=seed,
    )
    try:
        pool = _once(cell, "pool", build_pool, config, n, seed, csv_rows)
        rec.ridge = config.ridge
        rec.geometric_difference = pool.geometric_difference
        y_train, num_qubits = pool.y_train, config.num_qubits
        noise = kernels.NoiseModel(p_tilde, config.layers, config.mixing)
        # W is Q bit for bit there: (1 - 0) * q + 0 * c = q, and Q's diagonal is 1
        exact = noise.rate == 0.0 and m is kernels.INF_SHOTS
        if not exact:
            shots = _streams(cell, "shots", m, seed, n)
            w = _once(point, "w", _sampled_kernel, config, pool, noise, m, shots)
        # checked in calibrate_and_report's order: the reference, then the kernel
        q_spec = _once(cell, "q_spec", linalg.Spectrum, pool.q_train_ideal, "reference")
        w_spec = q_spec if exact else _once(point, "w_spec", linalg.Spectrum, w, "kernel")
        calibrated, report = calibrate.calibrate_and_report(
            q_spec, w_spec, method, delta=config.nearest_delta
        )
        rec.dist_before = report.dist_before
        rec.dist_after = report.dist_after
        rec.min_eig_before = report.min_eig_before
        rec.min_eig_after = report.min_eig_after
        rec.passed_lemma = report.passed_lemma
        model = learner.fit_krr(calibrated, y_train, config.ridge)
        _, train_pred = learner.predict(model, calibrated.matrix)
        rec.train_accuracy = learner.accuracy(train_pred, y_train.astype(int))
        cross_m = kernels.INF_SHOTS if config.cross_shots == "exact" else m
        cross = _once(
            point, "cross", kernels.sample_cross, pool.q_cross_ideal, noise, num_qubits,
            cross_m, _streams(cell, "cross", cross_m, seed, pool.q_cross_ideal.shape),
        )
        _, test_pred = learner.predict(model, cross)
        rec.test_accuracy = learner.accuracy(test_pred, pool.labels[pool.test_idx])
        rec.c1 = _once(
            cell, "c1", learner.model_complexity_c1, q_spec, y_train, config.ridge
        )
        terms = _once(
            cell, "terms", bounds.ideal_terms, pool.q_train_ideal, y_train, config.ridge
        )
        bound = _once(
            point, "bound", bounds.theorem1_bound,
            terms, y_train, m, noise, num_qubits, config.bound_delta,
        )
        rec.p = bound.p
        rec.c_q = bound.c_q
        rec.c2 = bound.c2
        rec.term_ideal = bound.term_ideal
        rec.term_noise = bound.term_noise
        rec.breakdown_p = bound.breakdown_p
    except Exception as exc:  # per-record capture: the sweep continues
        rec.error = _error_text(exc)
    return rec


def _rbf_record(
    config: SweepConfig, cell: dict, n: int, seed: int, csv_rows=None
) -> ResultRecord:
    rec = ResultRecord(
        kind=RBF_BASELINE,
        n=n,
        n_test=config.test_size,
        method="rbf-grid",
        seed=seed,
    )
    try:
        pool = _once(cell, "pool", build_pool, config, n, seed, csv_rows)
        rec.geometric_difference = pool.geometric_difference
        x_train = pool.features[pool.train_idx]
        y_train = pool.y_train
        x_test = pool.features[pool.test_idx]
        y_test = pool.labels[pool.test_idx]
        xf, yf, xv, yv = learner.validation_split(x_train, y_train, seed)
        best = learner.grid_search_rbf(xf, yf, xv, yv)
        rec.gamma = best.gamma
        rec.ridge = best.ridge
        k_train = linalg.Spectrum(kernels.rbf_gram(x_train, best.gamma))
        model = learner.fit_krr(k_train, y_train, best.ridge)
        _, train_pred = learner.predict(model, k_train.matrix)
        rec.train_accuracy = learner.accuracy(train_pred, y_train.astype(int))
        cross = kernels.rbf_cross(x_train, x_test, best.gamma)
        _, test_pred = learner.predict(model, cross)
        rec.test_accuracy = learner.accuracy(test_pred, y_test)
        rec.c1 = learner.model_complexity_c1(k_train, y_train, best.ridge)
    except Exception as exc:
        rec.error = _error_text(exc)
    return rec


def _cell_records(config: SweepConfig, n: int, seed: int, csv_rows=None) -> list[ResultRecord]:
    """All records of one (train size, seed) cell, on one memo for the cell
    and a fresh one per (m, p); the RBF baseline shares the cell's pool."""
    cell, records = {}, []
    for m in config.shots:
        for p_tilde in config.noise_rates:
            point = {}
            for method in config.methods:
                records.append(
                    _quantum_record(config, cell, point, n, m, p_tilde, method, seed, csv_rows)
                )
    records.append(_rbf_record(config, cell, n, seed, csv_rows))
    return records


def run_sweep(config: SweepConfig) -> list[ResultRecord]:
    csv_rows = None
    if config.dataset["kind"] == "csv":  # read once: a bad file fails the run, not each record
        csv_rows = _csv_features(config.dataset["path"], config.num_qubits)
    records = []
    for n in config.train_sizes:
        for seed in config.seeds:
            records.extend(_cell_records(config, n, seed, csv_rows))
    records.sort(key=ResultRecord.sort_key)
    return records


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sweep(args) -> int:
    config = SweepConfig.from_json_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seeds=(args.seed,))
    out = args.out or config.output
    if out is None:
        raise ConfigError("no output path (config.output or --out)")
    records = run_sweep(config)
    emit_results(records, out, args.format)
    errors = sum(1 for r in records if r.error)
    print(f"wrote {len(records)} records to {out} ({errors} with errors)")
    return 0


def _cmd_kernel(args) -> int:
    feats = _csv_features(args.data, args.num_qubits)
    gram = kernels.gram_ideal(feats)
    if args.p_tilde > 0.0 or args.shots is not kernels.INF_SHOTS:
        fix_diagonal = not args.sample_diagonal
        gram = kernels.apply_noise(gram, args.noise, fix_diagonal=fix_diagonal)
        gram = kernels.sample_shots(gram, args.shots, args.seed)
    kernels.save_kernel(gram, args.out)
    print(f"wrote {gram.provenance} kernel ({gram.dim}x{gram.dim}) to {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    w = kernels.load_kernel(args.kernel)
    if args.reference:
        q = kernels.load_kernel(args.reference)
        if q.dim != w.dim:
            raise ConfigError(f"reference is {q.dim}x{q.dim}, kernel {w.dim}x{w.dim}")
        repaired, report = calibrate.calibrate_and_report(
            q.matrix, w.matrix, args.method, delta=args.delta
        )
        print(json.dumps(report.to_dict(), indent=2))
    else:
        repaired = calibrate.repair(w.matrix, args.method, args.delta)
    out_kernel = kernels.KernelMatrix(
        matrix=repaired.matrix,
        provenance=kernels.CALIBRATED_PREFIX + args.method,
        params=dict(w.params, method=args.method, delta=args.delta),
    )
    kernels.save_kernel(out_kernel, args.out)
    print(f"wrote calibrated kernel to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if bool(args.cross) != bool(args.test_data):
        raise ConfigError("--cross and --test-data must be given together")
    gram = kernels.load_kernel(args.kernel)
    ds = datasets.load_csv(args.data)
    if ds.n != gram.dim:
        raise ConfigError(f"kernel is {gram.dim}x{gram.dim} but data has {ds.n} rows")
    if args.cross:
        cross = linalg.load_matrix_csv(args.cross)
        test_ds = datasets.load_csv(args.test_data)
        if cross.shape != (test_ds.n, gram.dim):
            raise ConfigError(
                f"cross kernel is {cross.shape[0]}x{cross.shape[1]} but test data "
                f"has {test_ds.n} rows and kernel is {gram.dim}x{gram.dim}"
            )
        if not np.all(np.isfinite(cross)):
            raise ConfigError(f"cross kernel {args.cross} has non-finite entries")
    y = ds.labels.astype(float)
    model = learner.fit_krr(gram, y, args.ridge)
    _, pred = learner.predict(model, gram.matrix)
    summary = {"train_accuracy": learner.accuracy(pred, ds.labels), "ridge": args.ridge}
    if args.cross:
        _, test_pred = learner.predict(model, cross)
        summary["test_accuracy"] = learner.accuracy(test_pred, test_ds.labels)
    if args.out:
        Path(args.out).write_text(model.to_json() + "\n", encoding="utf-8")
        summary["model"] = str(args.out)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_relabel(args) -> int:
    feats = _csv_features(args.data, args.num_qubits)
    _, _, gamma, labels = _engineer_labels(feats, args.gamma_scale, args.ridge)
    relabel = {"num_qubits": args.num_qubits, "ridge": args.ridge, "gamma": gamma}
    meta = {"relabel": relabel, "source": str(args.data)}
    datasets.save_csv(datasets.Dataset(features=feats, labels=labels), args.out, meta)
    print(f"wrote relabeled dataset ({len(labels)} rows) to {args.out}")
    return 0


def _cmd_bound(args) -> int:
    gram = kernels.load_kernel(args.kernel)
    ds = datasets.load_csv(args.data)
    num_qubits = args.num_qubits or gram.params.get("num_qubits")
    if num_qubits is None:
        raise ConfigError("pass --num-qubits (kernel sidecar lacks it)")
    num_qubits = QUBITS("num_qubits", num_qubits)
    y = ds.labels.astype(float)
    terms = bounds.ideal_terms(gram.matrix, y, args.ridge)
    report = bounds.theorem1_bound(
        terms, y, args.shots, args.noise, num_qubits, args.delta
    )
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_check(args) -> int:
    from .checks import battery  # imported here: a sweep process never needs it
    rows = battery(args.trials, args.seed)
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in rows) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qksim",
        description="quantum kernel simulation, calibration, and sweep harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    noise = argparse.ArgumentParser(add_help=False)  # shared by kernel and bound
    noise.add_argument("--shots", default="inf")
    noise.add_argument("--p-tilde", default=0.0)
    noise.add_argument("--layers", default=8)
    noise.add_argument(
        "--mixing", default=kernels.MIX_INVERSE_DIM, choices=kernels.MIXINGS
    )

    p_sweep = sub.add_parser("sweep", help="run a config-driven parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--seed", help="restrict the sweep to a single seed")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_kernel = sub.add_parser(
        "kernel", parents=[noise], help="build and save a kernel matrix"
    )
    p_kernel.add_argument("--data", required=True)
    p_kernel.add_argument("--num-qubits", required=True)
    p_kernel.add_argument("--seed", default=0)
    p_kernel.add_argument(
        "--sample-diagonal",
        action="store_true",
        help="sample the diagonal instead of pinning it at 1",
    )
    p_kernel.add_argument("--out", required=True)
    p_kernel.set_defaults(func=_cmd_kernel)

    p_cal = sub.add_parser("calibrate", help="apply a spectral transform to a kernel")
    p_cal.add_argument("--kernel", required=True)
    p_cal.add_argument(
        "--method", required=True, choices=calibrate.METHODS + (calibrate.NONE,)
    )
    p_cal.add_argument("--delta", default=0.0)
    p_cal.add_argument(
        "--reference", default=None, help="ideal kernel CSV; prints a calibration report"
    )
    p_cal.add_argument("--out", required=True)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_train = sub.add_parser("train", help="fit a kernel ridge classifier")
    p_train.add_argument("--kernel", required=True)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--ridge", default=learner.DEFAULT_QUANTUM_RIDGE)
    p_train.add_argument("--cross", default=None)
    p_train.add_argument("--test-data", default=None)
    p_train.add_argument("--out", default=None)
    p_train.set_defaults(func=_cmd_train)

    p_rel = sub.add_parser("relabel", help="engineer advantage labels for a dataset")
    p_rel.add_argument("--data", required=True)
    p_rel.add_argument("--num-qubits", required=True)
    p_rel.add_argument("--ridge", default=learner.DEFAULT_QUANTUM_RIDGE)
    p_rel.add_argument("--gamma-scale", default=1.0)
    p_rel.add_argument("--out", required=True)
    p_rel.set_defaults(func=_cmd_relabel)

    p_bound = sub.add_parser(
        "bound", parents=[noise], help="evaluate generalization-bound terms"
    )
    p_bound.add_argument("--kernel", required=True)
    p_bound.add_argument("--data", required=True)
    p_bound.add_argument("--num-qubits", default=None)
    p_bound.add_argument("--ridge", default=0.0)
    p_bound.add_argument("--delta", default=0.05)
    p_bound.set_defaults(func=_cmd_bound)

    p_check = sub.add_parser("check", help="run the lemma/property verifier battery")
    p_check.add_argument("--trials", default=200)
    p_check.add_argument("--seed", default=0)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only code that turns an exception into an exit code."""
    args = build_parser().parse_args(argv)
    try:  # every checked flag goes through its rule before a data file is read
        for dest, rule in FLAG_RULES.get(args.command, {}).items():
            value = getattr(args, dest)
            if value is not None:  # an absent bound --num-qubits or sweep --seed
                setattr(args, dest, rule(dest, _json_value(value)))
        if "mixing" in args:  # the noise flags of kernel and bound
            args.noise = _noise_model(args.p_tilde, args.layers, args.mixing)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
