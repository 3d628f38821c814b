"""Configuration-driven experiment harness and command-line interface.

``run_sweep`` walks the Cartesian grid (train size, shots, noise rate,
calibration method, seed) in three nested stages.  For every (train size,
seed) cell it builds a pooled dataset, engineers advantage labels, splits,
encodes the ideal cross kernel, takes the ideal train kernel's spectrum and
runs the RBF grid-search baseline; for every (shots, noise rate) it samples
the noisy train and cross kernels, takes the sampled kernel's spectrum and
evaluates the bound terms; per method it only repairs, trains and scores.
Output records are sorted by coordinate and serialize byte-identically.

Exit codes: 0 success, 1 configuration error, 2 runtime error.  Every sweep
config value is checked at load.  A failed sweep coordinate is written as a
record carrying its error text, with exit 0; exit 2 means no results were
written.  Everything is pinned by the config and seeds.
"""
from __future__ import annotations

import argparse
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
from .rng import stream

QUANTUM = "quantum"
RBF_BASELINE = "rbf"


class ConfigError(ValueError):
    pass


def _items(value) -> list:
    """A config list; a scalar, a string or null is not one."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return list(value)


# how each field's JSON value is coerced; the others are checked as they are
_COERCE = {
    "num_qubits": int,
    "train_sizes": lambda v: tuple(int(n) for n in _items(v)),
    "test_size": int,
    "shots": lambda v: tuple(kernels.parse_shots(m) for m in _items(v)),
    "noise_rates": lambda v: tuple(float(p) for p in _items(v)),
    "methods": lambda v: tuple(str(m) for m in _items(v)),
    "seeds": lambda v: tuple(int(s) for s in _items(v)),
    "layers": int,
    "ridge": float,
    "nearest_delta": float,
    "relabel_gamma_scale": float,
    "bound_delta": float,
}


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
        if not isinstance(dataset, dict) or dataset.get("kind") not in (
            "synthetic",
            "csv",
        ):
            raise ConfigError('dataset must be {"kind": "synthetic"|"csv", ...}')
        if dataset["kind"] == "csv" and "path" not in dataset:
            raise ConfigError("csv dataset needs a path")
        extra_ds = set(dataset) - {"kind", "path"}
        if extra_ds:
            raise ConfigError(f"unknown dataset keys: {sorted(extra_ds)}")

        values = {f.name: raw.get(f.name, f.default) for f in fields}
        for key, coerce in _COERCE.items():
            try:
                values[key] = coerce(values[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad {key} entry: {exc}") from exc
        return cls(**values)

    def __post_init__(self):
        try:
            for p in self.noise_rates:
                kernels.NoiseModel(p, layers=self.layers, mixing=self.mixing)
        except ValueError as exc:
            raise ConfigError(f"bad noise model: {exc}") from exc
        known = calibrate.METHODS + (calibrate.NONE,)
        bad = [m for m in self.methods if m not in known]
        if bad:
            raise ConfigError(f"unknown calibration methods: {bad}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not self.train_sizes or any(n < 1 for n in self.train_sizes):
            raise ConfigError("train_sizes must be positive")
        if self.test_size < 1:
            raise ConfigError("test_size must be >= 1")
        if not 1 <= self.num_qubits <= qsim.MAX_QUBITS:
            raise ConfigError(f"num_qubits must be in [1, {qsim.MAX_QUBITS}]")
        if self.cross_shots not in ("pipeline", "exact"):
            raise ConfigError('cross_shots must be "pipeline" or "exact"')
        if not self.ridge >= 0.0:
            raise ConfigError("ridge must be >= 0")
        if not self.nearest_delta >= 0.0:
            raise ConfigError("nearest_delta must be >= 0")
        if not 0.0 < self.bound_delta < 1.0:
            raise ConfigError("bound_delta must be in (0, 1)")
        if not self.relabel_gamma_scale > 0.0:
            raise ConfigError("relabel_gamma_scale must be positive")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError("output must be a path string or null")

    @classmethod
    def from_json_file(cls, path) -> "SweepConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


@dataclass
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
        if self.m is None:
            m_key = -1.0
        elif self.m == "inf":
            m_key = math.inf
        else:
            m_key = float(self.m)
        return (
            self.n,
            kind_rank,
            m_key,
            self.p_tilde if self.p_tilde is not None else -1.0,
            self.method or "",
            self.seed,
        )


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
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return f"{v:.17g}"


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
    q_cross_ideal: np.ndarray  # (test, train) fidelities
    geometric_difference: float


def _project_features(feats: np.ndarray, num_qubits: int) -> np.ndarray:
    """PCA-project csv features to ``num_qubits`` columns; fewer is an error."""
    if feats.shape[1] > num_qubits:
        return datasets.pca(feats, num_qubits)
    if feats.shape[1] < num_qubits:
        raise ConfigError(
            f"csv has {feats.shape[1]} features, fewer than num_qubits={num_qubits}"
        )
    return feats


def _load_pool_features(config: SweepConfig, n_pool: int, seed: int) -> np.ndarray:
    if config.dataset["kind"] == "synthetic":
        ds = datasets.generate_synthetic(n_pool, config.num_qubits, seed)
        return ds.features
    ds = datasets.load_csv(config.dataset["path"])
    feats = _project_features(ds.features, config.num_qubits)
    if feats.shape[0] < n_pool:
        raise ConfigError(
            f"csv has {feats.shape[0]} rows, need {n_pool} for this sweep cell"
        )
    perm = stream(seed, "pool").permutation(feats.shape[0])
    return feats[np.sort(perm[:n_pool])]


def _engineer_labels(feats: np.ndarray, gamma_scale: float, ridge: float):
    """Ideal and RBF pool kernels and the advantage labels engineered on them."""
    q_all = kernels.gram_ideal(feats)
    var = learner.pooled_variance(feats)
    if var <= 0.0:
        raise ValueError("pool has zero feature variance")
    k_all = kernels.rbf_gram(feats, gamma_scale / (feats.shape[1] * var))
    labels = datasets.relabel_for_advantage(q_all.matrix, k_all.matrix, ridge=ridge)
    return q_all, k_all, labels


def build_pool(config: SweepConfig, n: int, seed: int) -> PoolContext:
    """Pooled features, engineered labels, split, ideal kernels, diagnostics."""
    n_pool = n + config.test_size
    feats = _load_pool_features(config, n_pool, seed)
    q_all, k_all, labels = _engineer_labels(
        feats, config.relabel_gamma_scale, config.ridge
    )
    pool_ds = datasets.Dataset(features=feats, labels=labels)
    split_ds = datasets.split(pool_ds, n, config.test_size, seed)
    geo = kernels.geometric_difference(
        k_all.matrix, q_all.matrix, labels.astype(float), config.ridge
    )
    train_idx, test_idx = split_ds.train_indices, split_ds.test_indices
    return PoolContext(
        features=feats,
        labels=labels,
        train_idx=train_idx,
        test_idx=test_idx,
        y_train=labels[train_idx].astype(float),
        q_train_ideal=q_all.matrix[np.ix_(train_idx, train_idx)],
        q_cross_ideal=kernels.cross_fidelity(feats[train_idx], feats[test_idx]),
        geometric_difference=geo,
    )


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _attempt(stage, *args):
    """Run a stage shared by several records; a failure, its own or that of a
    stage whose outcome it takes as an argument, is returned, not raised."""
    try:
        return stage(*map(_take, args))
    except Exception as exc:
        return exc


def _take(outcome):
    """A shared stage's value, or its failure raised at this point of use, so
    a record keeps exactly the fields it filled before the failing step."""
    if isinstance(outcome, Exception):
        raise outcome.with_traceback(None)
    return outcome


def _noise_stage(config: SweepConfig, pool, q_spec, terms, m, p_tilde, seed):
    """Reference and sampled kernel spectra, cross kernel and bound shared by
    every method at one (shots, noise rate); each is a value or its failure."""
    try:
        pool = _take(pool)
        noise = kernels.NoiseModel(
            rate_per_layer=p_tilde, layers=config.layers, mixing=config.mixing
        )
        q_ideal = kernels.KernelMatrix(
            matrix=pool.q_train_ideal,
            provenance=kernels.IDEAL,
            params={"num_qubits": config.num_qubits},
        )
        noisy = kernels.apply_noise(q_ideal, noise, fix_diagonal=True)
        sampled = kernels.sample_shots(noisy, m, seed).matrix
        # checked in calibrate_and_report's order: the reference, then the kernel
        spectra = _take(q_spec), calibrate.Spectrum(sampled, "kernel")
    except Exception as exc:  # every record stops here, before cross and bound
        return exc, exc, exc
    cross_m = kernels.INF_SHOTS if config.cross_shots == "exact" else m
    q_cross, num_qubits = pool.q_cross_ideal, config.num_qubits
    cross = _attempt(kernels.sample_cross, q_cross, noise, num_qubits, cross_m, seed)
    bound = _attempt(
        bounds.theorem1_bound,
        terms,
        pool.y_train,
        m,
        noise,
        config.num_qubits,
        config.bound_delta,
    )
    return spectra, cross, bound


def _quantum_record(
    config: SweepConfig,
    pool,
    shared: tuple,
    c1,
    n: int,
    m,
    p_tilde: float,
    method: str,
    seed: int,
) -> ResultRecord:
    rec = ResultRecord(
        kind=QUANTUM,
        n=n,
        n_test=config.test_size,
        m="inf" if m is kernels.INF_SHOTS else int(m),
        p_tilde=p_tilde,
        method=method,
        seed=seed,
    )
    spectra, cross, bound = shared
    try:
        pool = _take(pool)
        rec.ridge = config.ridge
        rec.geometric_difference = pool.geometric_difference
        calibrated, report = calibrate.calibrate_and_report(
            *_take(spectra), method, delta=config.nearest_delta
        )
        rec.dist_before = report.dist_before
        rec.dist_after = report.dist_after
        rec.min_eig_before = report.min_eig_before
        rec.min_eig_after = report.min_eig_after
        rec.passed_lemma = report.passed_lemma

        y_train = pool.y_train
        y_test = pool.labels[pool.test_idx]
        model = learner.fit_krr(calibrated, y_train, config.ridge)
        _, train_pred = learner.predict(model, calibrated)
        rec.train_accuracy = learner.accuracy(train_pred, y_train.astype(int))
        _, test_pred = learner.predict(model, _take(cross))
        rec.test_accuracy = learner.accuracy(test_pred, y_test)
        rec.c1 = _take(c1)
        bound = _take(bound)
        rec.p = bound.p
        rec.c_q = bound.c_q
        rec.c2 = bound.c2
        rec.term_ideal = bound.term_ideal
        rec.term_noise = bound.term_noise
        rec.breakdown_p = bound.breakdown_p
    except Exception as exc:  # per-record capture: the sweep continues
        rec.error = _error_text(exc)
    return rec


def _rbf_record(config: SweepConfig, pool, n: int, seed: int) -> ResultRecord:
    rec = ResultRecord(
        kind=RBF_BASELINE,
        n=n,
        n_test=config.test_size,
        method="rbf-grid",
        seed=seed,
    )
    try:
        pool = _take(pool)
        rec.geometric_difference = pool.geometric_difference
        x_train = pool.features[pool.train_idx]
        y_train = pool.y_train
        x_test = pool.features[pool.test_idx]
        y_test = pool.labels[pool.test_idx]
        xf, yf, xv, yv = learner.validation_split(x_train, y_train, seed)
        best = learner.grid_search_rbf(xf, yf, xv, yv)
        rec.gamma = best.gamma
        rec.ridge = best.ridge
        k_train = kernels.rbf_gram(x_train, best.gamma)
        model = learner.fit_krr(k_train, y_train, best.ridge)
        _, train_pred = learner.predict(model, k_train.matrix)
        rec.train_accuracy = learner.accuracy(train_pred, y_train.astype(int))
        cross = kernels.rbf_cross(x_train, x_test, best.gamma)
        _, test_pred = learner.predict(model, cross)
        rec.test_accuracy = learner.accuracy(test_pred, y_test)
        rec.c1 = learner.model_complexity_c1(k_train.matrix, y_train, best.ridge)
    except Exception as exc:
        rec.error = _error_text(exc)
    return rec


def _ideal_c1(config: SweepConfig, pool: PoolContext) -> float:
    return learner.model_complexity_c1(pool.q_train_ideal, pool.y_train, config.ridge)


def _ideal_terms(config: SweepConfig, pool: PoolContext) -> bounds.IdealTerms:
    # bound terms need a nonsingular ideal kernel; the configured ridge
    # regularizes the rank-deficient small-qubit Gram matrices
    q_ridged = pool.q_train_ideal + config.ridge * np.eye(len(pool.train_idx))
    return bounds.ideal_terms(q_ridged, pool.y_train)


def _cell_records(config: SweepConfig, n: int, seed: int) -> list[ResultRecord]:
    """All records of one (train size, seed) cell: pool, ideal kernels, c1 and
    Q's spectrum once per cell, sampled kernels, W's spectrum and bound once
    per (m, p), repair and training per method; a failed pool fails all."""
    pool = _attempt(build_pool, config, n, seed)
    c1 = _attempt(_ideal_c1, config, pool)
    q_spec = _attempt(lambda p: calibrate.Spectrum(p.q_train_ideal, "reference"), pool)
    terms = _attempt(_ideal_terms, config, pool)
    records = []
    for m in config.shots:
        for p_tilde in config.noise_rates:
            shared = _noise_stage(config, pool, q_spec, terms, m, p_tilde, seed)
            for method in config.methods:
                records.append(
                    _quantum_record(
                        config, pool, shared, c1, n, m, p_tilde, method, seed
                    )
                )
    records.append(_rbf_record(config, pool, n, seed))
    return records


def run_sweep(config: SweepConfig) -> list[ResultRecord]:
    records = []
    for n in config.train_sizes:
        for seed in config.seeds:
            records.extend(_cell_records(config, n, seed))
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


def _shots_and_noise(args) -> tuple:
    """The --shots and noise flags, checked before any file is read."""
    try:
        m = kernels.parse_shots(args.shots)
        return m, kernels.NoiseModel(args.p_tilde, args.layers, args.mixing)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_kernel(args) -> int:
    m, noise = _shots_and_noise(args)
    feats = _project_features(datasets.load_csv(args.data).features, args.num_qubits)
    gram = kernels.gram_ideal(feats)
    if args.p_tilde > 0.0 or m is not kernels.INF_SHOTS:
        gram = kernels.apply_noise(gram, noise, fix_diagonal=not args.sample_diagonal)
        gram = kernels.sample_shots(gram, m, args.seed)
    kernels.save_kernel(gram, args.out)
    print(f"wrote {gram.provenance} kernel ({gram.dim}x{gram.dim}) to {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    if not args.delta >= 0.0:  # flags are checked before any file is read
        raise ConfigError(f"delta must be nonnegative, got {args.delta}")
    w = kernels.load_kernel(args.kernel)
    if args.reference:
        q = kernels.load_kernel(args.reference)
        repaired, report = calibrate.calibrate_and_report(
            q.matrix, w.matrix, args.method, delta=args.delta
        )
        print(json.dumps(report.to_dict(), indent=2))
    else:
        repaired = calibrate.Spectrum(w.matrix).repair(args.method, args.delta)
    out_kernel = kernels.KernelMatrix(
        matrix=repaired,
        provenance=kernels.CALIBRATED_PREFIX + args.method,
        params=dict(w.params, method=args.method, delta=args.delta),
    )
    kernels.save_kernel(out_kernel, args.out)
    print(f"wrote calibrated kernel to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if not args.ridge >= 0.0:
        raise ConfigError(f"ridge must be nonnegative, got {args.ridge}")
    gram = kernels.load_kernel(args.kernel)
    ds = datasets.load_csv(args.data)
    if ds.n != gram.dim:
        raise ConfigError(f"kernel is {gram.dim}x{gram.dim} but data has {ds.n} rows")
    y = ds.labels.astype(float)
    model = learner.fit_krr(gram, y, args.ridge)
    _, pred = learner.predict(model, gram.matrix)
    summary = {
        "train_accuracy": learner.accuracy(pred, ds.labels),
        "ridge": args.ridge,
    }
    if args.cross and args.test_data:
        cross = linalg.load_matrix_csv(args.cross)
        test_ds = datasets.load_csv(args.test_data)
        _, test_pred = learner.predict(model, cross)
        summary["test_accuracy"] = learner.accuracy(test_pred, test_ds.labels)
    if args.out:
        Path(args.out).write_text(model.to_json() + "\n", encoding="utf-8")
        summary["model"] = str(args.out)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_relabel(args) -> int:
    if not args.ridge >= 0.0:
        raise ConfigError(f"ridge must be nonnegative, got {args.ridge}")
    if not args.gamma_scale > 0.0:
        raise ConfigError(f"gamma scale must be positive, got {args.gamma_scale}")
    feats = _project_features(datasets.load_csv(args.data).features, args.num_qubits)
    _, k_all, labels = _engineer_labels(feats, args.gamma_scale, args.ridge)
    out_ds = datasets.Dataset(features=feats, labels=labels)
    datasets.save_csv(
        out_ds,
        args.out,
        meta={
            "relabel": {
                "num_qubits": args.num_qubits,
                "ridge": args.ridge,
                "gamma": k_all.params["gamma"],
            },
            "source": str(args.data),
        },
    )
    print(f"wrote relabeled dataset ({out_ds.n} rows) to {args.out}")
    return 0


def _cmd_bound(args) -> int:
    m, noise = _shots_and_noise(args)
    if not 0.0 < args.delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {args.delta}")
    gram = kernels.load_kernel(args.kernel)
    ds = datasets.load_csv(args.data)
    num_qubits = args.num_qubits or int(gram.params.get("num_qubits", 0))
    if num_qubits < 1:
        raise ConfigError("pass --num-qubits (kernel sidecar lacks it)")
    matrix = gram.matrix
    if args.ridge > 0.0:
        matrix = matrix + args.ridge * np.eye(gram.dim)
    report = bounds.theorem1_bound(
        matrix, ds.labels.astype(float), m, noise, num_qubits, args.delta
    )
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _check_lines(trials: int, seed: int) -> list[tuple[str, bool, str]]:
    """Run the property-verifier battery; returns (name, passed, detail) rows."""
    rng = np.random.default_rng(seed)
    out: list[tuple[str, bool, str]] = []

    folding_ok, worst = True, 0.0
    for layers in (1, 2, 4, 8):
        for rate in (0.0, 0.001, 0.05, 0.3):
            for s in range(5):
                unitaries = qsim.random_unitaries(2, layers, seed=s)
                rep = qsim.verify_noise_folding(unitaries, rate, seed=s)
                folding_ok &= rep.passed
                worst = max(worst, rep.max_abs_diff)
    out.append(("noise-folding", folding_ok, f"max entry deviation {worst:.2e}"))

    hoeff_ok = True
    for q in (0.1, 0.5, 0.9):
        for m in (10, 100):
            for gap in (0.1, 0.2):
                rep = bounds.hoeffding_violation_test(
                    q, m, gap, max(trials, 1000), seed
                )
                hoeff_ok &= rep.passed
    out.append(("hoeffding-envelope", hoeff_ok, f"{max(trials, 1000)} trials per cell"))

    pert_ok, applicable = True, 0
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(dim, dim))
        base = linalg.sym_matrix((a + a.T) / 2) + np.eye(dim) * (dim + 2)
        e = rng.normal(size=(dim, dim))
        rep = linalg.inverse_perturbation_check(
            base, base + linalg.sym_matrix((e + e.T) / 2) * 0.05
        )
        pert_ok &= rep.passed
        applicable += rep.applicable
    out.append(("inverse-perturbation", pert_ok, f"{applicable}/{trials} applicable"))

    clip_ok = flip_ok = ident_ok = True
    for _ in range(max(trials // 5, 20)):
        n = int(rng.integers(2, 33))
        ds = datasets.generate_synthetic(n, 2, seed=int(rng.integers(0, 10**6)))
        q = kernels.gram_ideal(ds.features)
        noisy = kernels.apply_noise(
            q, kernels.NoiseModel(0.05, layers=4), fix_diagonal=True
        )
        w = kernels.sample_shots(noisy, 10, int(rng.integers(0, 10**6)))
        ws = calibrate.Spectrum(w.matrix)
        base = float(np.linalg.norm(q.matrix - w.matrix, "fro"))
        clip_ok &= (
            float(np.linalg.norm(q.matrix - ws.repair(calibrate.CLIP), "fro"))
            <= base * (1 + 1e-9)
        )
        flip_ok &= (
            float(np.linalg.norm(q.matrix - ws.repair(calibrate.FLIP), "fro"))
            <= base * (1 + 1e-9)
        )
        lam_min = min(ws.lam_min, 0.0)
        gap = (
            float(np.linalg.norm(q.matrix - ws.repair(calibrate.SHIFT), "fro")) ** 2
            - base**2
        )
        want = 2 * lam_min * (np.trace(q.matrix) - np.trace(w.matrix)) + n * lam_min**2
        ident_ok &= abs(gap - want) <= 1e-9 * max(1.0, abs(want))
    out.append(("clip-distance", clip_ok, "never increases Frobenius distance"))
    out.append(("flip-distance", flip_ok, "never increases Frobenius distance"))
    out.append(
        (
            "shift-identity",
            ident_ok,
            "distance gap equals 2*lam_min*(trQ-trW) + n*lam_min^2",
        )
    )

    sandwich_ok = True
    for _ in range(trials):
        dim = int(rng.integers(1, 16))
        a = rng.normal(size=(dim, dim))
        m = linalg.sym_matrix((a + a.T) / 2)
        s, f = linalg.spectral_norm(m), linalg.frobenius_norm(m)
        sandwich_ok &= s <= f + 1e-12 and f <= math.sqrt(dim) * s + 1e-12
    out.append(
        ("norm-sandwich", sandwich_ok, "spectral <= frobenius <= sqrt(n)*spectral")
    )
    return out


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    all_ok = True
    for name, ok, detail in _check_lines(args.trials, args.seed or 0):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok &= ok
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qksim",
        description="quantum kernel simulation, calibration, and sweep harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a config-driven parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument(
        "--seed", type=int, default=None, help="restrict the sweep to a single seed"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_kernel = sub.add_parser("kernel", help="build and save a kernel matrix")
    p_kernel.add_argument("--data", required=True)
    p_kernel.add_argument("--num-qubits", type=int, required=True)
    p_kernel.add_argument("--p-tilde", type=float, default=0.0)
    p_kernel.add_argument("--layers", type=int, default=8)
    p_kernel.add_argument(
        "--mixing", default=kernels.MIX_INVERSE_DIM, choices=kernels.MIXINGS
    )
    p_kernel.add_argument("--shots", default="inf")
    p_kernel.add_argument("--seed", type=int, default=0)
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
    p_cal.add_argument("--delta", type=float, default=0.0)
    p_cal.add_argument(
        "--reference", default=None, help="ideal kernel CSV; prints a calibration report"
    )
    p_cal.add_argument("--out", required=True)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_train = sub.add_parser("train", help="fit a kernel ridge classifier")
    p_train.add_argument("--kernel", required=True)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--ridge", type=float, default=learner.DEFAULT_QUANTUM_RIDGE)
    p_train.add_argument("--cross", default=None)
    p_train.add_argument("--test-data", default=None)
    p_train.add_argument("--out", default=None)
    p_train.set_defaults(func=_cmd_train)

    p_rel = sub.add_parser("relabel", help="engineer advantage labels for a dataset")
    p_rel.add_argument("--data", required=True)
    p_rel.add_argument("--num-qubits", type=int, required=True)
    p_rel.add_argument("--ridge", type=float, default=learner.DEFAULT_QUANTUM_RIDGE)
    p_rel.add_argument("--gamma-scale", type=float, default=1.0)
    p_rel.add_argument("--out", required=True)
    p_rel.set_defaults(func=_cmd_relabel)

    p_bound = sub.add_parser("bound", help="evaluate generalization-bound terms")
    p_bound.add_argument("--kernel", required=True)
    p_bound.add_argument("--data", required=True)
    p_bound.add_argument("--shots", default="inf")
    p_bound.add_argument("--p-tilde", type=float, default=0.0)
    p_bound.add_argument("--layers", type=int, default=8)
    p_bound.add_argument(
        "--mixing", default=kernels.MIX_INVERSE_DIM, choices=kernels.MIXINGS
    )
    p_bound.add_argument("--num-qubits", type=int, default=None)
    p_bound.add_argument("--ridge", type=float, default=0.0)
    p_bound.add_argument("--delta", type=float, default=0.05)
    p_bound.set_defaults(func=_cmd_bound)

    p_check = sub.add_parser("check", help="run the lemma/property verifier battery")
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only code that turns an exception into an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
