"""Spectral repairs for indefinite shot-sampled kernels.

Each transform works in the eigenbasis of the input:

* ``clip``    zeroes negative eigenvalues,
* ``flip``    replaces eigenvalues by their absolute values,
* ``shift``   adds ``|min(lambda_min, 0)|`` to the whole diagonal,
* ``nearest_psd``  raises every eigenvalue below ``delta`` to ``delta``.

All four run through :meth:`Spectrum.repair`, one decomposition per matrix.

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
from functools import cached_property

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


class Spectrum:
    """A symmetric matrix, checked once.  Its ``eigvalsh`` eigenvalues and its
    decomposition are each computed on first use; they are not bit-equal."""

    def __init__(self, m: np.ndarray | object, name: str = "matrix"):
        self.matrix = linalg.check_symmetric(m, name)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @cached_property
    def decomposition(self) -> linalg.EigenDecomposition:
        return linalg.eig_sym(self.matrix)

    @property
    def lam_min(self) -> float:
        return float(np.min(self.eigenvalues))

    def repair(self, method: str, delta: float = 0.0) -> np.ndarray:
        """The matrix repaired by ``method``; at or above the floor, an exact copy."""
        if method == SHIFT:
            return self.matrix + abs(min(self.lam_min, 0.0)) * np.eye(len(self.matrix))
        if method not in METHODS + (NONE,):
            raise ValueError(f"unknown calibration method: {method!r}")
        if method == NEAREST and delta < 0:
            raise ValueError(f"delta must be nonnegative, got {delta}")
        floor = delta if method == NEAREST else 0.0
        if method == NONE or self.decomposition.eigenvalues[-1] >= floor:
            return self.matrix.copy()
        dec = self.decomposition
        if method == CLIP:
            return dec.reconstruct(np.clip(dec.eigenvalues, 0.0, None))
        if method == FLIP:
            return dec.reconstruct(np.abs(dec.eigenvalues))
        return dec.reconstruct(np.maximum(dec.eigenvalues, floor))


def clip(w: np.ndarray | object) -> np.ndarray:
    """Zero all negative eigenvalues; equals the input iff it is PSD."""
    return Spectrum(w).repair(CLIP)


def flip(w: np.ndarray | object) -> np.ndarray:
    """Replace every eigenvalue by its absolute value; Frobenius-norm preserving."""
    return Spectrum(w).repair(FLIP)


def shift(w: np.ndarray | object) -> np.ndarray:
    """Add |min(lambda_min, 0)| to the diagonal; off-diagonal entries unchanged."""
    return Spectrum(w).repair(SHIFT)


def nearest_psd(w: np.ndarray | object, delta: float = 0.0) -> np.ndarray:
    """Raise every eigenvalue below ``delta`` to ``delta`` (delta >= 0)."""
    return Spectrum(w).repair(NEAREST, delta)


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
) -> tuple[np.ndarray, CalibrationReport]:
    """Apply one transform to ``w`` and report distances to the reference ``q``;
    either may be its :class:`Spectrum`.  ``method="none"`` passes ``w`` through."""
    qs = q if isinstance(q, Spectrum) else Spectrum(q, "reference")
    ws = w if isinstance(w, Spectrum) else Spectrum(w, "kernel")
    qm, wm = qs.matrix, ws.matrix
    if qm.shape != wm.shape:
        raise ValueError(f"shape mismatch: {qm.shape} vs {wm.shape}")
    repaired = ws.repair(method, delta)

    dist_before = float(np.linalg.norm(qm - wm, "fro"))
    dist_after = float(np.linalg.norm(qm - repaired, "fro"))

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
        min_eig_after=float(np.min(np.linalg.eigvalsh(repaired))),
        passed_lemma=passed,
    )
