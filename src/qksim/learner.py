"""Kernel ridge regression with sign-threshold classification.

The classifier solves ``(K + ridge * I) alpha = Y`` on K's eigenbasis,
forming no inverse, and predicts ``sign(K_cross @ alpha)``, with the tie
``sign(0) -> +1``.  The squared norm of the implicit primal minimizer is
``Y' (K + ridge I)^-1 Y``, exposed as the model-complexity diagnostic.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels, linalg
from .rng import stream

DEFAULT_QUANTUM_RIDGE = 1e-8

# RBF grid: gamma multipliers are scaled by 1 / (d * Var[coordinates]).
GAMMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 10.0, 20.0, 40.0, 50.0)
LAMBDA_GRID = (
    0.006, 0.015, 0.03, 0.0625, 0.125, 0.25, 0.5,
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


@dataclass
class KernelModel:
    dual_coef: np.ndarray
    train_labels: np.ndarray
    ridge: float
    params: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dual_coef": [float(a) for a in self.dual_coef],
                "train_labels": [int(v) for v in self.train_labels],
                "ridge": self.ridge,
                "params": self.params,
            },
            indent=2,
            sort_keys=True,
        )


def _check_labels(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] < 1:
        raise ValueError("labels must be a nonempty 1-D vector")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    return y


def fit_krr(
    k: kernels.KernelMatrix | linalg.Spectrum | np.ndarray,
    y: np.ndarray,
    ridge: float,
) -> KernelModel:
    """Solve the ridge system for the dual coefficients, ``V (V'y / (lam + ridge))``.

    The kernel plus ridge must be positive definite; indefinite inputs
    should be calibrated first (or the ridge raised).  A :class:`linalg.Spectrum`
    argument lends its decomposition.  No n x n inverse is formed.
    """
    km = linalg.as_matrix(k)
    y = _check_labels(y)
    if km.shape[0] != y.shape[0]:
        raise ValueError(
            f"kernel dim {km.shape[0]} does not match {y.shape[0]} labels"
        )
    params = dict(getattr(k, "params", {}) or {})
    params["provenance"] = getattr(k, "provenance", None)
    alpha = linalg.spectrum(k).decomposition.solve(y, (ridge,))[:, 0]
    return KernelModel(alpha, y.astype(int), ridge, params)


def predict(model: KernelModel, k_cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decision values and sign labels for each cross-kernel row."""
    kc = np.atleast_2d(np.asarray(k_cross, dtype=float))
    if kc.shape[1] != model.dual_coef.shape[0]:
        raise ValueError(
            f"cross kernel has {kc.shape[1]} columns, model expects "
            f"{model.dual_coef.shape[0]}"
        )
    values = kc @ model.dual_coef
    labels = np.where(values >= 0.0, 1, -1)
    return values, labels


def accuracy(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape or pred.size == 0:
        raise ValueError("prediction and truth must be nonempty and equal-length")
    return float(np.mean(pred == true))


def model_complexity_c1(
    q: kernels.KernelMatrix | linalg.Spectrum | np.ndarray,
    y: np.ndarray,
    ridge: float = 0.0,
) -> float:
    """Squared norm of the minimum-norm interpolating predictor: Y' Q^-1 Y."""
    y = np.asarray(y, dtype=float)
    return float(y @ linalg.inv_ridge(q, ridge) @ y)


def pooled_variance(x_rows: np.ndarray) -> float:
    """Population variance over all n*d coordinates."""
    x = np.atleast_2d(np.asarray(x_rows, dtype=float))
    return float(np.var(x))


def rbf_gamma_unit(x_rows: np.ndarray, scale: float = 1.0) -> float:
    """``scale / (d * Var)``: an RBF width in units of the rows' pooled variance."""
    x = np.atleast_2d(np.asarray(x_rows, dtype=float))
    var = pooled_variance(x)
    if var <= 0.0:
        raise ValueError(
            "all training coordinates are identical; the gamma scale "
            "1 / (d * Var) is undefined"
        )
    return scale / (x.shape[1] * var)


@dataclass(frozen=True)
class GridSearchResult:
    gamma: float
    ridge: float
    accuracy: float


def grid_search_rbf(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
) -> GridSearchResult:
    """Exhaustive RBF hyperparameter search on a held-out validation set.

    Scores the 10 x 18 grid of widths and ridges on one distance table:
    each width's kernel is decomposed once and solved for all ridges at once
    by :meth:`linalg.EigenDecomposition.solve`, as a fit is, filling one column
    of a ridge-major accuracy table.  The first maximum of that table wins; as
    both grids ascend, ties break toward the smaller ridge, then the smaller gamma.
    """
    xtr = np.atleast_2d(np.asarray(x_train, dtype=float))
    ytr = _check_labels(y_train)
    xva = np.atleast_2d(np.asarray(x_val, dtype=float))
    yva = _check_labels(y_val)
    for name, x, y in (("train", xtr, ytr), ("validation", xva, yva)):
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{name} set has {x.shape[0]} rows, {y.shape[0]} labels")
    scale = rbf_gamma_unit(xtr)
    d_train, d_val = kernels._sq_dists(xtr, xtr), kernels._sq_dists(xva, xtr)
    table = np.empty((len(LAMBDA_GRID), len(GAMMA_GRID)))
    for j, gmul in enumerate(GAMMA_GRID):
        dec = linalg.eig_sym(kernels._rbf_gram_of(d_train, gmul * scale))
        k_val = np.exp(-(gmul * scale) * d_val)  # rbf_cross on the same table
        coef = dec.solve(ytr, LAMBDA_GRID)
        labels = np.where(k_val @ coef >= 0.0, 1, -1)
        table[:, j] = np.mean(labels == yva[:, None], axis=0)
    i, j = np.unravel_index(np.argmax(table), table.shape)
    return GridSearchResult(GAMMA_GRID[j] * scale, LAMBDA_GRID[i], float(table[i, j]))


def validation_split(
    x: np.ndarray, y: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seeded 50/50 split of a training set into (fit, validation) halves."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two rows to split")
    perm = stream(seed, "grid-validation").permutation(n)
    half = n // 2
    fit_idx, val_idx = perm[:half], perm[half:]
    return x[fit_idx], y[fit_idx], x[val_idx], y[val_idx]
