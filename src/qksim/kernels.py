"""Kernel matrix construction: ideal, noisy-expectation, shot-sampled, RBF.

The pipeline mirrors the physical estimation chain, for the train Gram
matrix and the (test, train) cross block alike.  ``qsim.feature_states``
encodes the rows; ``gram_ideal`` and ``quantum_cross`` take state fidelities
from them.  A sweep takes its cross block from the Gram matrix of its pooled
rows, so each row is encoded once; ``quantum_cross`` encodes the train and
test rows it is given.  Depolarization acts on the inversion-test
output, which for an effective rate ``p`` turns an entry ``q`` into ``(1 -
p) * q + p * c_N``, ``c_N`` being the mixing constant (``2^-N`` for the
uniform outcome of the maximally mixed state; ``2^-(N+1)`` reproduces the
constant used by the generalization-bound checks).  Finite measurement
budgets replace each expectation with a Bernoulli mean of ``m`` draws.

All sampling is keyed per entry through :mod:`qksim.rng`, so kernel entries
may be produced in any order with identical results.  Both samplers draw a
whole kernel in one array pass, ``rng.EntryStreams.binomial``, whose every
entry has the bits of ``stream(seed, role, i, j).binomial(m, p)``; both check
first the matrix's shape and that its entries are probabilities.  Each takes
a seed, or the family its entries' builder makes, which a sweep cell keeps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg, qsim
from .rng import EntryStreams

# provenance tags
IDEAL = "ideal"
NOISY_EXPECTATION = "noisy-expectation"
SHOT_SAMPLED = "shot-sampled"
RBF = "classical-RBF"
CALIBRATED_PREFIX = "calibrated:"

# mixing-constant variants
MIX_INVERSE_DIM = "inverse-dim"  # 2^-N, the inversion-test output
MIX_HALF_INVERSE_DIM = "half-inverse-dim"  # 2^-(N+1), bound-side constant
MIXINGS = (MIX_INVERSE_DIM, MIX_HALF_INVERSE_DIM)

INF_SHOTS = math.inf


def parse_shots(value) -> float | int:
    """Accept a positive integer or the "inf" sentinel; a bool or a number
    with a fraction is an error, not a truncated shot count."""
    if value in ("inf", INF_SHOTS):
        return INF_SHOTS
    m = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and m != value):
        raise ValueError(f"shot count must be an integer, got {value!r}")
    if m < 1:
        raise ValueError(f"shot count must be >= 1, got {value}")
    if m > 2**63 - 1:  # numpy's binomial takes a C long
        raise ValueError(f"shot count must be <= 2**63 - 1, got {value}")
    return m


@dataclass(frozen=True)
class NoiseModel:
    """Per-layer depolarization folded across the circuit depth.

    ``rate_per_layer`` is the depolarization rate applied after each of
    the ``layers`` unitary layers; the effective end-of-circuit rate is
    ``qsim.folded_rate(rate_per_layer, layers)``.
    """

    rate_per_layer: float
    layers: int = 8
    mixing: str = MIX_INVERSE_DIM

    def __post_init__(self):
        if not 0.0 <= self.rate_per_layer <= 1.0:
            raise ValueError(
                f"rate_per_layer must be in [0, 1], got {self.rate_per_layer}"
            )
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.mixing not in MIXINGS:
            raise ValueError(f"unknown mixing variant: {self.mixing!r}")

    @property
    def rate(self) -> float:
        """Effective depolarization rate p."""
        return qsim.folded_rate(self.rate_per_layer, self.layers)

    def mixing_constant(self, num_qubits: int) -> float:
        if self.mixing == MIX_INVERSE_DIM:
            return 2.0 ** (-num_qubits)
        return 2.0 ** (-(num_qubits + 1))

    def depolarize(self, q: np.ndarray, num_qubits: int) -> np.ndarray:
        """Every entry mixed with the constant: ``(1 - p) * q + p * c_N``."""
        return (1.0 - self.rate) * q + self.rate * self.mixing_constant(num_qubits)


@dataclass
class KernelMatrix:
    """A symmetric kernel matrix plus its provenance and build parameters."""

    matrix: np.ndarray
    provenance: str
    params: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def gram_ideal(x_rows: np.ndarray) -> KernelMatrix:
    """Ideal fidelity Gram matrix of the encoded feature rows.

    PSD by construction (Gram of explicit states), unit diagonal,
    entries in [0, 1].
    """
    x = np.atleast_2d(np.asarray(x_rows, dtype=float))
    # clip((|o|**2 + (|o|**2).T) / 2, 0, 1) of the overlaps o, bit for bit, fewer arrays
    states = qsim.feature_states(x)
    g = np.abs(states @ states.conj().T)
    del states
    g *= g
    g = np.add(g, g.T)
    g /= 2.0
    np.clip(g, 0.0, 1.0, out=g)
    np.fill_diagonal(g, 1.0)
    return KernelMatrix(
        matrix=g, provenance=IDEAL, params={"num_qubits": x.shape[1]}
    )


def apply_noise(
    q: KernelMatrix, noise: NoiseModel, fix_diagonal: bool = True
) -> KernelMatrix:
    """Depolarized expectation of every kernel entry.

    With ``fix_diagonal`` the diagonal stays pinned at the analytic
    self-fidelity 1; otherwise it is mixed like any other entry.
    """
    if q.provenance != IDEAL:
        raise ValueError(f"apply_noise expects an ideal kernel, got {q.provenance!r}")
    mixed = noise.depolarize(q.matrix, q.params["num_qubits"])
    if fix_diagonal:
        np.fill_diagonal(mixed, 1.0)
    params = dict(q.params)
    params.update(
        p_tilde=noise.rate_per_layer,
        layers=noise.layers,
        p=noise.rate,
        mixing=noise.mixing,
        fix_diagonal=fix_diagonal,
    )
    return KernelMatrix(matrix=mixed, provenance=NOISY_EXPECTATION, params=params)


def sample_shots(qt: KernelMatrix, m, seed: int | EntryStreams) -> KernelMatrix:
    """Bernoulli-mean estimate of each entry from ``m`` measurement shots.

    Entry (i, j), i <= j, is the mean of ``m`` draws from the stream keyed
    by ``(seed, "shots", i, j)``; the lower triangle mirrors it.  When the
    diagonal was pinned upstream it stays exactly 1.  The ``inf`` sentinel
    bypasses sampling and returns the expectation unchanged.  ``seed`` may be
    the kernel's ``shot_streams`` family, reused across shot counts and rates.
    """
    if qt.provenance != NOISY_EXPECTATION:
        raise ValueError(
            f"sample_shots expects a noisy-expectation kernel, got {qt.provenance!r}"
        )
    probs = qt.matrix
    if np.ndim(probs) != 2 or probs.shape[0] != probs.shape[1]:
        raise ValueError(f"sample_shots needs a square matrix, got shape {probs.shape}")
    m = parse_shots(m)
    _check_probabilities(probs, m)
    shots = "inf" if m is INF_SHOTS else int(m)
    params = dict(qt.params, shots=shots, seed=getattr(seed, "seed", seed))
    if m is INF_SHOTS:
        return KernelMatrix(
            matrix=probs.copy(), provenance=qt.provenance, params=params
        )
    fixed_diag = bool(qt.params.get("fix_diagonal", False))
    size = qt.dim * (qt.dim - 1 if fixed_diag else qt.dim + 1) // 2
    streams = _family(seed, "shots", size, shot_streams, qt.dim, fixed_diag)
    w = _shot_means(probs, m, streams)
    w = np.where(np.tri(qt.dim, k=-1, dtype=bool), w.T, w)  # mirror the upper triangle
    if fixed_diag:
        np.fill_diagonal(w, 1.0)
    return KernelMatrix(matrix=w, provenance=SHOT_SAMPLED, params=params)


def shot_streams(seed: int, n: int, fixed_diag: bool = True) -> EntryStreams:
    """The ``"shots"`` family of an n x n kernel: its upper triangle, above
    the diagonal when the diagonal is pinned."""
    return EntryStreams(seed, "shots", *np.triu_indices(n, k=1 if fixed_diag else 0))


def cross_streams(seed: int, shape: tuple[int, int]) -> EntryStreams:
    """The ``"cross"`` family of a (test, train) block: every entry."""
    return EntryStreams(seed, "cross", *np.indices(shape).reshape(2, -1))


def _family(seed, role: str, size: int, build, *entries) -> EntryStreams:
    """A fresh ``build(seed, *entries)``, or ``seed`` if it is a family already,
    which must then be of ``role`` and ``size`` entries."""
    if not isinstance(seed, EntryStreams):
        return build(seed, *entries)
    if (seed.role, seed.i.size) != (role, size):
        raise ValueError(f"need {size} {role!r} streams, got {seed.i.size} {seed.role!r}")
    return seed


def _check_probabilities(probs: np.ndarray, m) -> None:
    """Reject entries outside [0, 1], and NaN too when shots are drawn from
    them; an exact kernel passes NaN on to the finiteness check of the stage
    that reads it, which names the matrix."""
    inside = (probs >= 0.0) & (probs <= 1.0)
    if m is INF_SHOTS:
        inside |= np.isnan(probs)
    if not np.all(inside):
        raise ValueError("kernel entries must be probabilities in [0, 1]")


def _shot_means(probs: np.ndarray, m: int, streams: EntryStreams) -> np.ndarray:
    """Mean of ``m`` draws at each ``(streams.i[k], streams.j[k])`` from its own
    stream, drawn for all entries at once by ``EntryStreams.binomial``."""
    out, at = np.empty_like(probs), (streams.i, streams.j)
    counts = streams.binomial(m, probs[at])
    # Python's int / int rounds once; float64 division agrees while both fit in 53 bits
    out[at] = counts / m if m <= 2**53 else [c / m for c in counts.tolist()]
    return out


def rbf_gram(x_rows: np.ndarray, gamma: float) -> KernelMatrix:
    """Gaussian kernel K_ij = exp(-gamma * ||x_i - x_j||^2)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x = np.atleast_2d(np.asarray(x_rows, dtype=float))
    k = _rbf_gram_of(_sq_dists(x, x), gamma)
    return KernelMatrix(matrix=k, provenance=RBF, params={"gamma": gamma})


def rbf_cross(x_train: np.ndarray, x_test: np.ndarray, gamma: float) -> np.ndarray:
    """(n_test, n_train) Gaussian cross-kernel."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    xtr = np.atleast_2d(np.asarray(x_train, dtype=float))
    xte = np.atleast_2d(np.asarray(x_test, dtype=float))
    return np.exp(-gamma * _sq_dists(xte, xtr))


def _rbf_gram_of(sq_dists: np.ndarray, gamma: float) -> np.ndarray:
    """``exp(-gamma * d)`` on a square distance table, symmetrized, unit diagonal."""
    k = np.exp(-gamma * sq_dists)
    k = (k + k.T) / 2.0
    np.fill_diagonal(k, 1.0)
    return k


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[1]:  # a holds test rows, b train rows
        raise ValueError(
            f"feature width mismatch: train {b.shape[1]}, test {a.shape[1]}"
        )
    aa = np.sum(a**2, axis=1)[:, None]
    bb = np.sum(b**2, axis=1)[None, :]
    return np.clip(aa + bb - 2.0 * (a @ b.T), 0.0, None)


def sample_cross(
    fid: np.ndarray, noise: NoiseModel | None, num_qubits: int, m, seed: int | EntryStreams
) -> np.ndarray:
    """Depolarize (unless ``noise`` is None) and shot-sample ideal cross
    fidelities; entry (t, i) draws from ``stream(seed, "cross", t, i)``.
    ``seed`` may be the block's ``cross_streams`` family."""
    if np.ndim(fid) != 2:
        raise ValueError(f"sample_cross needs a 2-D matrix, got shape {np.shape(fid)}")
    if noise is not None:
        fid = noise.depolarize(fid, num_qubits)
    m = parse_shots(m)
    _check_probabilities(fid, m)
    if m is INF_SHOTS:
        return fid
    return _shot_means(fid, m, _family(seed, "cross", fid.size, cross_streams, fid.shape))


def quantum_cross(
    x_train: np.ndarray,
    x_test: np.ndarray,
    noise: NoiseModel | None = None,
    m=INF_SHOTS,
    seed: int = 0,
) -> np.ndarray:
    """(n_test, n_train) kernel: ``sample_cross`` applied to the ideal
    fidelities between the encoded test and train rows."""
    xtr = np.atleast_2d(np.asarray(x_train, dtype=float))
    xte = np.atleast_2d(np.asarray(x_test, dtype=float))
    if xtr.shape[1] != xte.shape[1]:
        raise ValueError(
            f"feature width mismatch: train {xtr.shape[1]}, test {xte.shape[1]}"
        )
    states_tr = qsim.feature_states(xtr)
    states_te = qsim.feature_states(xte)
    fid = np.clip(np.abs(states_te @ states_tr.conj().T) ** 2, 0.0, 1.0)
    return sample_cross(fid, noise, xtr.shape[1], m, seed)


def geometric_difference(
    k: KernelMatrix | linalg.Spectrum | np.ndarray,
    q: KernelMatrix | linalg.Spectrum | np.ndarray,
    y: np.ndarray,
    ridge: float = 0.0,
) -> float:
    """Complexity ratio (y' K^-1 y) / (y' Q^-1 y) at the given ridge."""
    km = linalg.as_matrix(k)
    qm = linalg.as_matrix(q)
    y = np.asarray(y, dtype=float)
    if km.shape != qm.shape or km.shape[0] != y.shape[0]:
        raise ValueError("kernel/label dimension mismatch")
    num = float(y @ linalg.inv_ridge(k, ridge) @ y)
    den = float(y @ linalg.inv_ridge(q, ridge) @ y)
    return num / den


def save_kernel(kernel: KernelMatrix, path) -> None:
    """Matrix as CSV plus a JSON sidecar with provenance and parameters."""
    sidecar = {"provenance": kernel.provenance, "params": kernel.params}
    linalg.save_matrix_csv(kernel.matrix, path, sidecar)


def load_kernel(path) -> KernelMatrix:
    path = Path(path)
    matrix = linalg.load_matrix_csv(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    provenance, params = IDEAL, {}
    if sidecar_path.exists():
        sidecar = linalg.read_json(sidecar_path)
        if not isinstance(sidecar, dict):
            raise ValueError(f"{sidecar_path}: sidecar must be a JSON object")
        if sidecar.keys() != {"provenance", "params"}:
            raise ValueError(f"{sidecar_path}: sidecar keys must be 'provenance' "
                             f"and 'params', got {sorted(sidecar)}")
        provenance, params = sidecar["provenance"], sidecar["params"]
        if not isinstance(provenance, str):
            raise ValueError(f"{sidecar_path}: provenance must be a string")
        if not isinstance(params, dict):
            raise ValueError(f"{sidecar_path}: params must be a JSON object")
    return KernelMatrix(matrix=matrix, provenance=provenance, params=params)
