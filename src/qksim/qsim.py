"""Statevector simulation of the data-encoding circuit.

The encoding applies two rounds of (Hadamard wall, diagonal phase layer)
to the all-zeros state.  For an ``N``-feature input ``x`` the phase layer
multiplies basis state ``|b>`` by ``exp(i * theta(b))`` with

    theta(b) = sum_j x_j z_j + sum_{j<j'} x_j x_j' z_j z_j',

where ``z_j = 1 - 2 b_j`` is the spin of bit ``j``.  Bit 0 is the most
significant bit of the basis index, matching a left-to-right Kronecker
layout of per-qubit operators.

A small density-matrix path (capped at 3 qubits) backs the depolarization
folding verifier; the production kernel path never materialises density
matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream

MAX_QUBITS = 14
MAX_VERIFIER_QUBITS = 3


def spin_table(num_qubits: int) -> np.ndarray:
    """(2^N, N) table of spins z_j = +/-1 per basis state, bit 0 first."""
    dim = 1 << num_qubits
    basis = np.arange(dim)[:, None]
    bits = (basis >> (num_qubits - 1 - np.arange(num_qubits))[None, :]) & 1
    return 1 - 2 * bits


_SLAB = 1 << 16  # amplitudes in one slab of the Hadamard wall, sized for the cache


def _butterfly(lo: np.ndarray, hi: np.ndarray, diff: np.ndarray) -> None:
    """H on one qubit's pairs in place: (lo, hi) <- (lo + hi, lo - hi)."""
    np.subtract(lo, hi, out=diff)
    lo += hi
    hi[...] = diff


def _hadamard_wall(psi: np.ndarray, num_qubits: int) -> None:
    """Apply H on every qubit in place, bit 0 first, then scale by 2^(-N/2).

    Rows go in aligned slabs of ``rows``, the largest power of two with at
    most ``_SLAB`` amplitudes per slab (two rows if one row is wider).  A
    qubit whose pairs lie ``rows`` or more apart streams over the array in
    slabs of pairs; then each slab goes through every nearer qubit and the
    scale while it is in cache.  Each amplitude gets the same float
    operations in the same order as from one full-array pass per qubit.
    """
    dim, cols = psi.shape
    rows = min(dim, 1 << max(1, (_SLAB // max(cols, 1)).bit_length() - 1))
    diff = np.empty((rows // 2, cols), dtype=psi.dtype)  # every lo - hi of the wall
    gaps = [dim >> (q + 1) for q in range(num_qubits)]  # rows between a qubit's pair
    for gap in (g for g in gaps if g >= rows):
        for block in psi.reshape(dim // (2 * gap), 2, 2 * gap // rows, rows // 2, cols):
            for lo, hi in zip(block[0], block[1]):
                _butterfly(lo, hi, diff)
    for slab in psi.reshape(dim // rows, rows, cols):
        for gap in (g for g in gaps if g < rows):
            pairs = slab.reshape(rows // (2 * gap), 2, gap, cols)
            _butterfly(pairs[:, 0], pairs[:, 1], diff.reshape(rows // (2 * gap), gap, cols))
        slab *= 2.0 ** (-num_qubits / 2.0)


def feature_states(x_rows: np.ndarray) -> np.ndarray:
    """Encode each row of an (n, N) feature matrix; returns (n, 2^N) amplitudes.

    Uses the identity sum_{j<j'} x_j x_j' z_j z_j' = (s^2 - ||x||^2) / 2
    with s = sum_j x_j z_j, so the phase table costs O(2^N) per row.  The
    phases are built in place, so while the wall runs no (2^N, n) array but
    ``phase`` and ``psi`` is alive.
    """
    x = np.atleast_2d(np.asarray(x_rows, dtype=float))
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D (rows x features), got {x.ndim}-D")
    n, num_qubits = x.shape
    if num_qubits < 1 or num_qubits > MAX_QUBITS:
        raise ValueError(
            f"feature width must be in [1, {MAX_QUBITS}], got {num_qubits}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("feature matrix has non-finite entries")
    dim = 1 << num_qubits
    z = spin_table(num_qubits).astype(float)
    s = z @ x.T  # (dim, n)
    theta = s * s  # s + (s^2 - ||x||^2) / 2, built in place
    theta -= np.sum(x**2, axis=1)
    theta *= 0.5
    theta += s
    del s
    phase = np.empty((dim, n), dtype=complex)
    np.multiply(1j, theta, out=phase)
    del theta  # the peak then holds phase and psi, and no other (dim, n) array
    np.exp(phase, out=phase)
    psi = np.full((dim, n), 2.0 ** (-num_qubits / 2.0), dtype=complex)  # H|0...0>
    psi *= phase
    _hadamard_wall(psi, num_qubits)
    psi *= phase
    return psi.T


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity, unit trace, and near-positivity."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be square, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError(f"{name} is not Hermitian within 1e-12")
    if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
        raise ValueError(f"{name} trace differs from 1 beyond 1e-12")
    lam_min = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
    if lam_min < -1e-10:
        raise ValueError(f"{name} has eigenvalue {lam_min:.3e} < -1e-10")
    return rho


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Mix a state with the maximally mixed state: (1-p) rho + p I/D."""
    rho = check_density_matrix(rho)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarization rate must be in [0, 1], got {p}")
    dim = rho.shape[0]
    return (1.0 - p) * rho + p * np.eye(dim) / dim


def _check_unitary(u: np.ndarray, index: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary {index} must be square, got shape {u.shape}")
    err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if err > 1e-10:
        raise ValueError(f"matrix {index} is not unitary: max deviation {err:.3e}")
    return u


def random_unitaries(num_qubits: int, count: int, seed: int) -> list[np.ndarray]:
    """Haar-random unitaries on ``num_qubits`` qubits, one keyed stream each."""
    if num_qubits > MAX_VERIFIER_QUBITS:
        raise ValueError(
            f"verifier path is capped at {MAX_VERIFIER_QUBITS} qubits, got {num_qubits}"
        )
    dim = 1 << num_qubits
    out = []
    for layer in range(count):
        g = stream(seed, "unitary", layer)
        a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
        q, r = np.linalg.qr(a)
        q = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
        out.append(_check_unitary(q, layer))
    return out


def random_pure_state(num_qubits: int, seed: int) -> np.ndarray:
    g = stream(seed, "state")
    dim = 1 << num_qubits
    v = g.normal(size=dim) + 1j * g.normal(size=dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def folded_rate(rate_per_layer: float, layers: int) -> float:
    """End-of-circuit rate of ``layers`` rate-``rate_per_layer`` depolarizations."""
    return 1.0 - (1.0 - rate_per_layer) ** layers


@dataclass(frozen=True)
class NoiseFoldingReport:
    layers: int
    rate_per_layer: float
    folded_rate: float
    max_abs_diff: float
    passed: bool


def verify_noise_folding(
    unitaries: list[np.ndarray], p_tilde: float, seed: int
) -> NoiseFoldingReport:
    """Check that per-layer depolarization folds into one end channel.

    Evolves a seeded random pure state two ways: (a) each unitary followed
    by a rate ``p_tilde`` depolarization, (b) the composed unitary followed
    by a single depolarization at ``folded_rate(p_tilde, L)``.  Passes when the
    outputs agree to 1e-10 entrywise.
    """
    if not unitaries:
        raise ValueError("need at least one unitary layer")
    mats = [_check_unitary(u, k) for k, u in enumerate(unitaries)]
    dim = mats[0].shape[0]
    if any(u.shape[0] != dim for u in mats):
        raise ValueError("unitary layers have mismatched dimensions")
    num_qubits = int(dim).bit_length() - 1
    if 1 << num_qubits != dim or num_qubits > MAX_VERIFIER_QUBITS:
        raise ValueError(f"unitary dimension {dim} unsupported by the verifier")

    rho0 = random_pure_state(num_qubits, seed)

    rho_a = rho0
    for u in mats:
        rho_a = depolarize(u @ rho_a @ u.conj().T, p_tilde)

    composite = np.eye(dim, dtype=complex)
    for u in mats:
        composite = u @ composite
    folded = folded_rate(p_tilde, len(mats))
    rho_b = depolarize(composite @ rho0 @ composite.conj().T, folded)

    gap = float(np.max(np.abs(rho_a - rho_b)))
    return NoiseFoldingReport(
        layers=len(mats),
        rate_per_layer=p_tilde,
        folded_rate=folded,
        max_abs_diff=gap,
        passed=gap <= 1e-10,
    )
