"""Dense symmetric linear algebra with explicit numerical contracts.

All matrices handled here are real, symmetric ``numpy`` arrays.  The
eigendecomposition is delegated to LAPACK (``numpy.linalg.eigh``) and
re-exposed with a fixed ordering and sign convention so that every
downstream consumer sees deterministic output:

* eigenvalues sorted descending,
* eigenvector columns scaled so their first nonzero component is >= 0.

Ordering among exactly equal eigenvalues is unspecified; consumers must
not depend on it.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# Relative clamp for nearly-PSD inputs: eigenvalues in
# [-PSD_CLAMP_REL * lambda_max, 0) are treated as zero.
PSD_CLAMP_REL = 1e-9

# (lambda_min + ridge) below this is a singular system.
SINGULAR_TOL = 1e-14


class SingularMatrixError(ValueError):
    """Matrix (plus ridge) is singular or indefinite beyond tolerance."""


class NotPSDError(ValueError):
    """Matrix has negative eigenvalues beyond the PSD clamp tolerance."""


def as_matrix(m: np.ndarray | object) -> np.ndarray:
    """Accept a bare array or anything exposing a ``.matrix`` attribute."""
    inner = getattr(m, "matrix", m)
    return np.asarray(inner, dtype=float)


def sym_matrix(entries: np.ndarray) -> np.ndarray:
    """A square product's upper triangle, mirrored: ``out[i, j] == out[j, i]``
    exactly.  It checks nothing; :func:`check_symmetric` is the one matrix check."""
    out = np.triu(entries)
    out += np.triu(entries, 1).T
    return out


def check_symmetric(m: np.ndarray | object, name: str = "matrix") -> np.ndarray:
    """The one matrix check: square, finite and symmetric; returns a float64 view."""
    a = as_matrix(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    if not np.array_equal(a, a.T):
        # tolerate roundoff-level asymmetry from upstream float arithmetic
        if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
            raise ValueError(f"{name} is not symmetric")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; column k of ``eigenvectors`` pairs with
    ``eigenvalues[k]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self, eigenvalues: np.ndarray | None = None) -> np.ndarray:
        """``V diag(lam) V'``, with ``lam`` replaced by ``eigenvalues`` when given."""
        lam = self.eigenvalues if eigenvalues is None else eigenvalues
        v = self.eigenvectors
        # same bits as v @ diag(lam) @ v.T: the diagonal only adds exact zeros
        return sym_matrix((v * lam) @ v.T)

    def shifted(self, ridge: float) -> np.ndarray:
        """``lam + ridge``, checked safely positive; see :func:`inv_ridge`."""
        if ridge < 0:
            raise ValueError(f"ridge must be nonnegative, got {ridge}")
        shifted = self.eigenvalues + ridge
        if float(shifted[-1]) <= SINGULAR_TOL:
            raise SingularMatrixError(
                f"singular system: lambda_min + ridge = {shifted[-1]:.3e}; "
                "calibrate the kernel to PSD or increase the ridge"
            )
        return shifted

    def solve(self, y: np.ndarray, ridges: tuple[float, ...]) -> np.ndarray:
        """``(V diag(lam) V' + r I)^-1 y`` as ``V (V'y / (lam + r))``, one column
        per ridge ``r``; no n x n matrix is formed."""
        shifted = np.stack([self.shifted(r) for r in ridges], axis=1)
        v = self.eigenvectors
        return v @ ((v.T @ y)[:, None] / shifted)


def _fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Flip, in place, each column of ``v`` whose first nonzero entry is < 0."""
    nonzero = np.abs(v) > 1e-12
    first = np.argmax(nonzero, axis=0)
    lead = v[first, np.arange(v.shape[1])]
    return np.negative(v, out=v, where=nonzero.any(axis=0) & (lead < 0))


def eig_sym(m: np.ndarray | object) -> EigenDecomposition:
    """Spectral decomposition of a symmetric matrix.

    Deterministic for a fixed input: descending eigenvalue order plus the
    column sign convention above.  A :class:`Spectrum` checked its matrix when
    it was built and is not checked again; any other input is checked here.
    """
    a = m.matrix if isinstance(m, Spectrum) else check_symmetric(m)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    vecs = vecs[:, order]  # a reordered copy, so LAPACK's output is freed
    return EigenDecomposition(
        eigenvalues=np.ascontiguousarray(vals[order]),
        eigenvectors=_fix_column_signs(vecs),
    )


class Spectrum:
    """A symmetric matrix, checked once.  Its ``eigvalsh`` eigenvalues and its
    decomposition are each computed on first use; they are not bit-equal.  A
    repaired Spectrum is built with its decomposition, the input's eigenvectors
    and the repaired eigenvalues, so its matrix is not decomposed again."""

    def __init__(self, m: np.ndarray | object, name: str = "matrix",
                 decomposition: EigenDecomposition | None = None):
        self.matrix = check_symmetric(m, name)
        self._decomposition = decomposition

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @property
    def decomposition(self) -> EigenDecomposition:
        if self._decomposition is None:
            self._decomposition = eig_sym(self)
        return self._decomposition

    @property
    def lam_min(self) -> float:
        return float(np.min(self.eigenvalues))


def spectrum(m: np.ndarray | object, name: str = "matrix") -> Spectrum:
    """``m`` if it is a :class:`Spectrum`, else a new one checked as ``name``."""
    return m if isinstance(m, Spectrum) else Spectrum(m, name)


def psd_roots(lam: np.ndarray) -> np.ndarray:
    """Roots of a PSD matrix's descending eigenvalues; those in ``[-1e-9 *
    lambda_max, 0)`` are clamped to zero, and one below raises :class:`NotPSDError`."""
    lam_max = max(float(lam[0]), 0.0)
    if float(lam[-1]) < -PSD_CLAMP_REL * lam_max:
        raise NotPSDError(
            f"matrix is not PSD: lambda_min={lam[-1]:.3e}, lambda_max={lam[0]:.3e}"
        )
    return np.sqrt(np.clip(lam, 0.0, None))


def mat_sqrt_psd(m: np.ndarray | object) -> np.ndarray:
    """Symmetric square root of a PSD matrix; :func:`psd_roots` checks it."""
    dec = spectrum(m).decomposition
    return dec.reconstruct(psd_roots(dec.eigenvalues))


def inv_ridge(m: np.ndarray | object, ridge: float = 0.0) -> np.ndarray:
    """Inverse of ``m + ridge * I`` through the eigendecomposition.

    Raises :class:`SingularMatrixError` when ``lambda_min + ridge`` is not
    safely positive.  The one place an n x n ridge inverse is formed: a fit
    solves through :meth:`EigenDecomposition.solve` instead.
    """
    dec = spectrum(m).decomposition
    return dec.reconstruct(1.0 / dec.shifted(ridge))


def spectral_norm(m: np.ndarray | object) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix."""
    return float(np.max(np.abs(spectrum(m).eigenvalues)))


def frobenius_norm(m: np.ndarray | object) -> float:
    a = check_symmetric(m)
    return float(np.linalg.norm(a, "fro"))


@dataclass(frozen=True)
class InversePerturbationReport:
    """Result of checking the inverse-perturbation inequality on a pair.

    ``lhs`` is the spectral norm of the inverse difference, ``rhs`` the
    bound built from the base inverse and the raw perturbation.  When the
    perturbation is too large for the inequality to apply, ``applicable``
    is False and ``passed`` is vacuously True.
    """

    applicable: bool
    lhs: float
    rhs: float
    passed: bool


def _inv_nonsingular(m: Spectrum, name: str) -> np.ndarray:
    """Inverse of a symmetric matrix that may be indefinite but not singular."""
    dec = eig_sym(m)
    lam = dec.eigenvalues
    if np.min(np.abs(lam)) <= SINGULAR_TOL * max(1.0, float(np.max(np.abs(lam)))):
        raise SingularMatrixError(f"{name} is singular within tolerance")
    return dec.reconstruct(1.0 / lam)


def inverse_perturbation_check(
    a: np.ndarray | object, b: np.ndarray | object
) -> InversePerturbationReport:
    """Verify ``||A^-1 - B^-1|| <= ||A^-1||^2 ||A-B|| / (1 - ||A^-1 (A-B)||)``.

    Both matrices must be nonsingular (definiteness is not required);
    norms are spectral.  Applies only when ``||A^-1 (A - B)|| < 1``.
    """
    sa, sb = Spectrum(a, "A"), Spectrum(b, "B")  # eig_sym trusts a Spectrum
    if sa.matrix.shape != sb.matrix.shape:
        raise ValueError(f"shape mismatch: {sa.matrix.shape} vs {sb.matrix.shape}")
    a_inv = _inv_nonsingular(sa, "A")
    b_inv = _inv_nonsingular(sb, "B")
    diff = sa.matrix - sb.matrix
    coupling = float(np.linalg.norm(a_inv @ diff, 2))
    if coupling >= 1.0:
        return InversePerturbationReport(
            applicable=False, lhs=float("nan"), rhs=float("nan"), passed=True
        )
    lhs = float(np.linalg.norm(a_inv - b_inv, 2))
    rhs = spectral_norm(a_inv) ** 2 * float(np.linalg.norm(diff, 2)) / (1.0 - coupling)
    return InversePerturbationReport(
        applicable=True, lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1.0 + 1e-9)
    )


@contextmanager
def create_text(path, newline=None):
    """``path`` written as UTF-8 text, all or nothing: a temporary file beside it
    replaces it when the block completes and is removed when it fails, and an
    error on that file names ``path``.  It is line-buffered, so a writer nested
    in the block renames its file after every line written before it."""
    path = Path(path)
    tmp = str(path.parent / f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline, buffering=1) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        with suppress(OSError):  # gone once replaced
            os.remove(tmp)


def save_matrix_csv(m: np.ndarray | object, path, sidecar: dict | None = None) -> None:
    """One row per line, comma-separated, 17 significant digits; a ``sidecar``
    goes to ``<path>.json``, and both files are complete before either rename."""
    with create_text(path) as fh:
        for row in np.atleast_2d(as_matrix(m)):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        if sidecar is not None:
            with create_text(f"{path}.json") as side:
                side.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


@contextmanager
def open_text(path, newline=None):
    """``path`` opened as UTF-8 text, less a leading byte-order mark; an
    undecodable byte read in the block raises a ValueError that names the file."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members; a repeated key is an error, not its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def read_json(path):
    """JSON as UTF-8 less a byte-order mark; bad text or a repeated key names the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    with open_text(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    row = [float(tok) for tok in line.split(",")]
                except ValueError as exc:
                    raise ValueError(f"{path}: row {len(rows) + 1}: {exc}") from None
                if rows and len(row) != len(rows[0]):
                    raise ValueError(
                        f"{path}: row {len(rows) + 1} has {len(row)} entries, "
                        f"row 1 has {len(rows[0])}"
                    )
                rows.append(row)
    if not rows:
        raise ValueError(f"empty matrix file: {path}")
    matrix = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: row {int(np.argmax(bad)) + 1} has a non-finite entry")
    return matrix
