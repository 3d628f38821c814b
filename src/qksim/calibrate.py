"""Spectral repairs for indefinite shot-sampled kernels.

Each transform works in the eigenbasis of the input:

* ``clip``    zeroes negative eigenvalues,
* ``flip``    replaces eigenvalues by their absolute values,
* ``shift``   adds ``|min(lambda_min, 0)|`` to the whole diagonal,
* ``nearest_psd``  raises every eigenvalue below ``delta`` to ``delta``.

All four run through :func:`repair`, one decomposition per W.  It returns a
``Spectrum``: W's own at a fixed point, else one that carries W's eigenvectors
with the repaired eigenvalues for the fit; the named functions return arrays.

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
from .linalg import Spectrum

CLIP = "clip"
FLIP = "flip"
SHIFT = "shift"
NEAREST = "nearest"
NONE = "none"

METHODS = (CLIP, FLIP, SHIFT, NEAREST)

# trace tolerance for the shift guarantee's applicability
_SHIFT_TRACE_TOL = 1e-6


def repair(w: np.ndarray | Spectrum, method: str, delta: float = 0.0) -> Spectrum:
    """``w`` repaired by ``method``: ``w``'s own :class:`Spectrum` for ``"none"``
    and at or above the method's floor, else one new Spectrum that carries
    ``w``'s eigenvectors with the repaired eigenvalues as its decomposition."""
    ws = linalg.spectrum(w)
    if method not in METHODS + (NONE,):
        raise ValueError(f"unknown calibration method: {method!r}")
    if method == NEAREST and delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    floor = delta if method == NEAREST else 0.0
    if method == NONE or (
        ws.lam_min if method == SHIFT else ws.decomposition.eigenvalues[-1]
    ) >= floor:
        return ws
    # every repair keeps W's eigenvectors (Higham, LAA 103, 1988)
    dec = ws.decomposition
    lam, vecs = dec.eigenvalues, dec.eigenvectors
    if method == SHIFT:
        lam = lam + abs(ws.lam_min)
        repaired = ws.matrix + abs(ws.lam_min) * np.eye(len(lam))
    else:  # np.clip(lam, 0.0, None) is np.maximum(lam, 0.0)
        lam = np.abs(lam) if method == FLIP else np.maximum(lam, floor)
        repaired = dec.reconstruct(lam)
    if method == FLIP:  # the others keep the order, so they share W's array
        order = np.argsort(-lam, kind="stable")
        lam, vecs = lam[order], vecs[:, order]
    return Spectrum(repaired, decomposition=linalg.EigenDecomposition(lam, vecs))


def _repaired(w: np.ndarray | object, method: str, delta: float = 0.0) -> np.ndarray:
    """:func:`repair`'s matrix as a new array, a copy of ``w`` at a fixed point."""
    ws = linalg.spectrum(w)
    out = repair(ws, method, delta)
    return out.matrix.copy() if out is ws else out.matrix


def clip(w: np.ndarray | object) -> np.ndarray:
    """Zero all negative eigenvalues; equals the input iff it is PSD."""
    return _repaired(w, CLIP)


def flip(w: np.ndarray | object) -> np.ndarray:
    """Replace every eigenvalue by its absolute value; Frobenius-norm preserving."""
    return _repaired(w, FLIP)


def shift(w: np.ndarray | object) -> np.ndarray:
    """Add |min(lambda_min, 0)| to the diagonal; off-diagonal entries unchanged."""
    return _repaired(w, SHIFT)


def nearest_psd(w: np.ndarray | object, delta: float = 0.0) -> np.ndarray:
    """Raise every eigenvalue below ``delta`` to ``delta`` (delta >= 0)."""
    return _repaired(w, NEAREST, delta)


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
    q: np.ndarray | Spectrum,
    w: np.ndarray | Spectrum,
    method: str,
    delta: float = 0.0,
) -> tuple[Spectrum, CalibrationReport]:
    """Apply one transform to ``w`` and report distances to the reference ``q``;
    either may be its :class:`Spectrum`.  Returns :func:`repair`'s Spectrum."""
    qs, ws = linalg.spectrum(q, "reference"), linalg.spectrum(w, "kernel")
    qm, wm = qs.matrix, ws.matrix
    if qm.shape != wm.shape:
        raise ValueError(f"shape mismatch: {qm.shape} vs {wm.shape}")
    repaired = repair(ws, method, delta)

    dist_before = float(np.linalg.norm(qm - wm, "fro"))
    dist_after = float(np.linalg.norm(qm - repaired.matrix, "fro"))

    passed: bool | None = None
    if method in (CLIP, FLIP, SHIFT):
        applicable = qs.lam_min >= -1e-9 * max(1.0, float(np.max(qs.eigenvalues)))
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
        min_eig_before=ws.lam_min,
        min_eig_after=repaired.lam_min,
        passed_lemma=passed,
    )
