"""Data supply: CSV ingestion, PCA, synthetic generation, engineered labels.

The label-engineering step rewrites the labels of a pooled dataset so
that the quantum kernel's complexity ratio against a classical reference
kernel is maximized.  Working on the pooled (train + test) kernel
matrices is deliberate: the construction shapes kernel geometry, not
per-split label assignments.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .rng import stream


@dataclass
class Dataset:
    """Feature matrix with +/-1 labels."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _parse_label(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ValueError(f"{where}: label {token!r} is not numeric") from exc
    if value in (-1.0, 0.0, 1.0):
        return value
    raise ValueError(f"{where}: unknown label value {token!r}")


def load_csv(path) -> Dataset:
    """Read a dataset with header ``f0,...,f{d-1},label``.

    Labels must parse to +/-1, or to 0/1, which remap to -1/+1; a file that
    mixes the two is rejected, as is a non-finite feature.  Errors name the path and line.
    """
    path = Path(path)
    with linalg.open_text(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",") if header else []
        if len(cols) < 2 or cols[-1] != "label" or cols[:-1] != [
            f"f{k}" for k in range(len(cols) - 1)
        ]:
            raise ValueError(
                f"{path}: header must be 'f0,...,f{{d-1}},label', got {header!r}"
            )
        d = len(cols) - 1
        feats: list[list[float]] = []
        labels: list[int] = []
        first = None  # (value, line, token) of the first 0 or -1 label
        for line_no, line in enumerate(fh, start=2):
            line, where = line.strip(), f"{path}: line {line_no}"
            if not line:
                continue
            tokens = line.split(",")
            if len(tokens) != d + 1:
                raise ValueError(f"{where}: expected {d + 1} fields, got {len(tokens)}")
            try:
                feats.append([float(tok) for tok in tokens[:-1]])
            except ValueError as exc:
                raise ValueError(f"{where}: malformed feature value") from exc
            if not all(map(math.isfinite, feats[-1])):  # nan, inf or an overflow
                raise ValueError(f"{where}: non-finite feature value")
            value = _parse_label(tokens[-1], where)
            if value != 1.0:  # a 0 or a -1 fixes the file's label convention
                first = first or (value, line_no, tokens[-1])
                if value != first[0]:
                    raise ValueError(f"{where}: label {tokens[-1]!r} mixes 0/1 "
                                     f"and +/-1 labels (line {first[1]}: {first[2]!r})")
            labels.append(1 if value == 1.0 else -1)  # 0/1 labels remap to -1/+1
    if not feats:
        raise ValueError(f"{path}: no data rows")
    return Dataset(
        features=np.asarray(feats, dtype=float),
        labels=np.asarray(labels, dtype=int),
    )


def save_csv(ds: Dataset, path, meta: dict | None = None) -> None:
    """Write features and labels; 17 significant digits round-trip exactly.

    A JSON sidecar records provenance when ``meta`` is given.
    """
    with linalg.create_text(path) as fh:
        fh.write(",".join([f"f{k}" for k in range(ds.dim)] + ["label"]) + "\n")
        for row, label in zip(ds.features, ds.labels):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{int(label)}\n")
        if meta is not None:  # both files are complete before either rename
            with linalg.create_text(f"{path}.json") as side:
                side.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def pca(features: np.ndarray, target_dim: int) -> np.ndarray:
    """Project centered features onto the top eigenvectors of the covariance.

    Output columns are ordered by explained variance (descending) and
    inherit the deterministic eigenvector sign convention.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    n, d = x.shape
    if target_dim < 1 or target_dim > min(n, d):
        raise ValueError(
            f"target_dim must be in [1, {min(n, d)}], got {target_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # eig_sym's check reports it
        centered = x - np.mean(x, axis=0)
        cov = linalg.sym_matrix(centered.T @ centered / max(n - 1, 1))
    dec = linalg.eig_sym(cov)
    rank = int(np.sum(dec.eigenvalues > 1e-12 * max(float(dec.eigenvalues[0]), 1e-30)))
    if target_dim > rank:
        raise ValueError(
            f"data rank is {rank}, cannot extract {target_dim} components"
        )
    return centered @ dec.eigenvectors[:, :target_dim]


def generate_synthetic(n: int, d: int, seed: int) -> Dataset:
    """Uniform features on [-1, 1]^d with placeholder +1 labels."""
    if n < 2 or d < 1:
        raise ValueError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    g = stream(seed, "synthetic")
    feats = g.uniform(-1.0, 1.0, size=(n, d))
    return Dataset(features=feats, labels=np.ones(n, dtype=int))


def _advantage_scores(q, k, ridge: float, rank: int | None) -> np.ndarray:
    """``sqrt(Q) v`` for the top eigenvector ``v`` of ``sqrt(Q) K^-1 sqrt(Q)``,
    found in Q's top ``rank`` eigenvectors (all when ``rank`` is None)."""
    dec = q.decomposition
    u, s = dec.eigenvectors[:, :rank], linalg.psd_roots(dec.eigenvalues)[:rank]
    kd = k.decomposition
    b = kd.eigenvectors.T @ u  # U in K's eigenbasis
    core = linalg.sym_matrix(s[:, None] * (b.T @ (b / kd.shifted(ridge)[:, None])) * s)
    v = linalg._fix_column_signs(u @ linalg.eig_sym(core).eigenvectors[:, :1])[:, 0]
    return u @ (s * (u.T @ v))


def relabel_for_advantage(
    q_all: linalg.Spectrum | np.ndarray | object,
    k_all: linalg.Spectrum | np.ndarray | object,
    ridge: float = 0.0,
    rank: int | None = None,
) -> np.ndarray:
    """Engineer +/-1 labels that favor the quantum kernel.

    Takes the top eigenvector ``v`` of ``sqrt(Q) K^-1 sqrt(Q)`` (the
    continuous maximizer of the complexity ratio), forms the score vector
    ``sqrt(Q) v``, and thresholds at its median: strictly above -> +1,
    otherwise -1.  A :class:`linalg.Spectrum` argument lends its decomposition.

    ``rank`` bounds rank Q (``4**N`` for N qubits: Q is a Gram matrix of 4^N-dim
    real vectors), so ``v`` is found in Q's top ``min(rank, n)`` eigenvectors.
    Q's eigenvalues past them are round-off of exact zeros: dropping them moves
    the scores by round-off, far inside the gap at the median that labels read.

    The output is balanced: the +1/-1 counts differ by at most one.  When
    median ties would break the balance, tied entries are promoted to +1
    in score order (index order among exact ties).
    """
    q = linalg.spectrum(q_all, "quantum kernel")
    k = linalg.spectrum(k_all, "classical kernel")
    if q.matrix.shape != k.matrix.shape:
        raise ValueError(f"kernel shape mismatch: {q.matrix.shape} vs {k.matrix.shape}")
    scores = _advantage_scores(q, k, ridge, rank)

    n = scores.shape[0]
    med = float(np.median(scores))
    labels = np.where(scores > med, 1, -1).astype(int)
    want_plus = n // 2
    short = want_plus - int(np.sum(labels == 1))
    if short > 0:
        # degenerate ties at the median: promote the largest scores first
        candidates = [i for i in range(n) if labels[i] == -1]
        candidates.sort(key=lambda i: (-scores[i], i))
        for i in candidates[:short]:
            labels[i] = 1
    return labels


def split(
    n: int, n_train: int, n_test: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded permutation split of ``range(n)`` into disjoint, sorted
    (train, test) index arrays."""
    if n_train < 0 or n_test < 0 or n_train + n_test > n:
        raise ValueError(f"cannot draw {n_train}+{n_test} rows from a pool of {n}")
    perm = stream(seed, "split").permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train : n_train + n_test])
