"""Spectral repairs for indefinite shot-sampled kernels.

Each transform works in the eigenbasis of the input:

* ``clip``    zeroes negative eigenvalues,
* ``flip``    replaces eigenvalues by their absolute values,
* ``shift``   adds ``|min(lambda_min, 0)|`` to the whole diagonal,
* ``nearest_psd``  raises every eigenvalue below ``delta`` to ``delta``.

Against a PSD reference matrix, clip and flip provably never increase
the Frobenius distance.  Shift does not share that guarantee: expanding
the traces gives

    ||Q - shift(W)||_F^2 - ||Q - W||_F^2
        = 2 lambda_min (tr Q - tr W) + n lambda_min^2,

which is exactly ``+ n lambda_min^2`` when both traces equal the
dimension, so an indefinite input always moves *away* from the reference.
Shift's value lies elsewhere: it preserves off-diagonal similarities and
regularizes the inverse.  ``calibrate_and_report`` evaluates the distance
comparison on concrete pairs and reports the outcome as observed.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import linalg

CLIP = "clip"
FLIP = "flip"
SHIFT = "shift"
NEAREST = "nearest"
NONE = "none"

METHODS = (CLIP, FLIP, SHIFT, NEAREST)

# trace tolerance for the shift guarantee's applicability
_SHIFT_TRACE_TOL = 1e-6


def clip(w: np.ndarray | object) -> np.ndarray:
    """Zero all negative eigenvalues; equals the input iff it is PSD."""
    dec = linalg.eig_sym(w)
    if dec.eigenvalues[-1] >= 0.0:  # already PSD: exact fixed point
        return linalg.as_matrix(w).copy()
    return dec.reconstruct(np.clip(dec.eigenvalues, 0.0, None))


def flip(w: np.ndarray | object) -> np.ndarray:
    """Replace every eigenvalue by its absolute value; Frobenius-norm preserving."""
    dec = linalg.eig_sym(w)
    if dec.eigenvalues[-1] >= 0.0:
        return linalg.as_matrix(w).copy()
    return dec.reconstruct(np.abs(dec.eigenvalues))


def shift(w: np.ndarray | object) -> np.ndarray:
    """Add |min(lambda_min, 0)| to the diagonal; off-diagonal entries unchanged."""
    a = linalg.check_symmetric(w)
    lam_min = float(np.min(np.linalg.eigvalsh(a)))
    offset = abs(min(lam_min, 0.0))
    return a + offset * np.eye(a.shape[0])


def nearest_psd(w: np.ndarray | object, delta: float = 0.0) -> np.ndarray:
    """Raise every eigenvalue below ``delta`` to ``delta`` (delta >= 0)."""
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    dec = linalg.eig_sym(w)
    if dec.eigenvalues[-1] >= delta:
        return linalg.as_matrix(w).copy()
    return dec.reconstruct(np.maximum(dec.eigenvalues, delta))


def apply_method(
    w: np.ndarray | object, method: str, delta: float = 0.0
) -> np.ndarray:
    a = linalg.check_symmetric(w)
    if method == CLIP:
        return clip(a)
    if method == FLIP:
        return flip(a)
    if method == SHIFT:
        return shift(a)
    if method == NEAREST:
        return nearest_psd(a, delta)
    if method == NONE:
        return a.copy()
    raise ValueError(f"unknown calibration method: {method!r}")


@dataclass(frozen=True)
class CalibrationReport:
    """Frobenius distances to a reference before/after one transform.

    ``passed_lemma`` is True/False when the transform carries a distance
    guarantee and its preconditions hold, None otherwise (nearest/none, a
    non-PSD reference, or a shift input whose trace is off the dimension).
    """

    method: str
    dist_before: float
    dist_after: float
    min_eig_before: float
    min_eig_after: float
    passed_lemma: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


def calibrate_and_report(
    q: np.ndarray | object,
    w: np.ndarray | object,
    method: str,
    delta: float = 0.0,
) -> tuple[np.ndarray, CalibrationReport]:
    """Apply one transform to ``w`` and report distances to the reference ``q``.

    ``method="none"`` passes the matrix through and only reports distances.
    """
    qm = linalg.check_symmetric(q, "reference")
    wm = linalg.check_symmetric(w, "kernel")
    if qm.shape != wm.shape:
        raise ValueError(f"shape mismatch: {qm.shape} vs {wm.shape}")
    repaired = apply_method(wm, method, delta)

    dist_before = float(np.linalg.norm(qm - wm, "fro"))
    dist_after = float(np.linalg.norm(qm - repaired, "fro"))
    min_before = float(np.min(np.linalg.eigvalsh(wm)))
    min_after = float(np.min(np.linalg.eigvalsh(repaired)))

    passed: bool | None = None
    if method in (CLIP, FLIP, SHIFT):
        q_lam = np.linalg.eigvalsh(qm)
        applicable = float(np.min(q_lam)) >= -1e-9 * max(1.0, float(np.max(q_lam)))
        if method == SHIFT:
            applicable = applicable and abs(
                float(np.trace(wm)) - wm.shape[0]
            ) <= _SHIFT_TRACE_TOL
        if applicable:
            passed = dist_after <= dist_before * (1.0 + 1e-9)
    return repaired, CalibrationReport(
        method=method,
        dist_before=dist_before,
        dist_after=dist_after,
        min_eig_before=min_before,
        min_eig_after=min_after,
        passed_lemma=passed,
    )
