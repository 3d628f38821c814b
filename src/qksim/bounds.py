"""Generalization-bound terms, breakdown threshold, and concentration checks.

``theorem1_bound`` evaluates the two raw terms of the noisy-kernel
generalization bound

    sqrt(c1 / n) + sqrt(n / (c2 sqrt(m))),

with c1 = Y' Q^-1 Y, c_Q = ||Q^-1||_2 and

    c2 = max( c_Q^-2 / (sqrt(log(4 n^2 / delta) / 2) + sqrt(m) p (1 + 2^-(N+1)))
              - (n / sqrt(m)) / c_Q,  0 ).

No hidden logarithmic prefactors are applied; a zero c2 maps the noise
term to +inf (the regime where the bound is vacuous).  The "inf" shot
sentinel is evaluated as the m -> infinity limit.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .kernels import NoiseModel, parse_shots, sample_cross


@dataclass(frozen=True)
class BoundReport:
    n: int
    m: float
    num_qubits: int
    p: float
    c1: float
    c_q: float
    c2: float
    term_ideal: float
    term_noise: float
    breakdown_p: float
    delta: float

    def to_dict(self) -> dict:
        out = asdict(self)
        out["m"] = "inf" if math.isinf(self.m) else int(self.m)
        return out


def _mix(num_qubits: int) -> float:
    """The factor ``1 + 2^-(N+1)`` of the noise terms on ``N`` qubits."""
    return 1.0 + 2.0 ** (-(num_qubits + 1))


def c2_constant(
    n: int, m: float, p: float, c_q: float, num_qubits: int, delta: float
) -> float:
    """The clamped noise constant of the generalization bound."""
    log_term = math.sqrt(0.5 * math.log(4.0 * n * n / delta))
    sqrt_m = math.sqrt(m)
    # avoid inf * 0 at m = inf
    shot_term = sqrt_m * p * _mix(num_qubits) if p > 0.0 else 0.0
    denom = log_term + shot_term
    lead = 0.0 if math.isinf(denom) else (c_q**-2) / denom
    tail = 0.0 if math.isinf(sqrt_m) else (n / sqrt_m) / c_q
    return max(lead - tail, 0.0)


@dataclass(frozen=True)
class IdealTerms:
    """n, c1 = Y' Q^-1 Y and c_Q = ||Q^-1||_2: the terms fixed by Q and Y."""

    n: int
    c1: float
    c_q: float


def ideal_terms(
    q: np.ndarray | object, y: np.ndarray, ridge: float = 0.0
) -> IdealTerms:
    """Invert ``Q + ridge * I`` once for every (m, p) evaluated against it; the
    terms need a nonsingular Q, and the ridge regularizes the rank-deficient
    Gram matrices of few qubits."""
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    q = linalg.as_matrix(q)
    if ridge > 0.0 and q.ndim == 2:
        q = q + ridge * np.eye(*q.shape)
    qs = linalg.Spectrum(q, "Q")
    y = np.asarray(y, dtype=float)
    n = qs.matrix.shape[0]
    if y.shape != (n,):
        raise ValueError(f"labels must have length {n}")
    q_inv = linalg.inv_ridge(qs, 0.0)
    return IdealTerms(n=n, c1=float(y @ q_inv @ y), c_q=linalg.spectral_norm(q_inv))


def theorem1_bound(
    q: np.ndarray | IdealTerms,
    y: np.ndarray,
    m,
    noise: NoiseModel,
    num_qubits: int,
    delta: float = 0.05,
) -> BoundReport:
    """Evaluate both bound terms for a PSD training kernel and its labels;
    ``q`` may also be its ``ideal_terms(q, y)``, reused across (m, p)."""
    m = parse_shots(m)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    ideal = q if isinstance(q, IdealTerms) else ideal_terms(q, y)
    n, c1, c_q = ideal.n, ideal.c1, ideal.c_q
    p = noise.rate
    c2 = c2_constant(n, m, p, c_q, num_qubits, delta)
    if math.isinf(m) and p > 0.0:
        # c2 -> 0, but sqrt(m) c2 -> c_Q^-2 / (p mix) - n / c_Q: the noise
        # floor, positive exactly below breakdown_p
        limit = c_q**-2 / (p * _mix(num_qubits)) - n / c_q
        term_noise = math.sqrt(n / limit) if limit > 0.0 else math.inf
    elif c2 == 0.0:
        term_noise = math.inf
    else:
        ratio = n / (c2 * math.sqrt(m))  # 0 at the m = inf sentinel
        term_noise = math.sqrt(ratio)
    return BoundReport(
        n=n,
        m=m,
        num_qubits=num_qubits,
        p=p,
        c1=c1,
        c_q=c_q,
        c2=c2,
        term_ideal=math.sqrt(c1 / n),
        term_noise=term_noise,
        breakdown_p=_breakdown_p(n, c_q, num_qubits),
        delta=delta,
    )


def _breakdown_p(n: int, c_q: float, num_qubits: int) -> float:
    """Effective rate beyond which the noise term is unconditionally infinite:
    p > 1 / (n c_Q (1 + 2^-(N+1)))."""
    return 1.0 / (n * c_q * _mix(num_qubits))


@dataclass(frozen=True)
class SaturationReport:
    """Norms of the inverse deviation between ideal and estimated kernels.

    ``lower_ok`` checks the dimension-scaled norm relation
    ``s2 >= s_frob / sqrt(n)``.  ``sqrt_lower`` is a plotting aid: the
    square-rooted lower bound ``sqrt(sqrt(n) * eps)`` with ``eps`` the
    mean entrywise inverse deviation measured on this instance.
    """

    s2: float
    s_frob: float
    lower_ok: bool
    sqrt_s2: float
    eps_mean: float
    sqrt_lower: float


def saturation_diagnostic(
    q: np.ndarray | object, w_hat: np.ndarray | object, ridge: float = 0.0
) -> SaturationReport:
    qs, ws = linalg.Spectrum(q, "Q"), linalg.Spectrum(w_hat, "W")
    if qs.matrix.shape != ws.matrix.shape:
        raise ValueError(f"shape mismatch: {qs.matrix.shape} vs {ws.matrix.shape}")
    n = qs.matrix.shape[0]
    diff = linalg.inv_ridge(qs, ridge) - linalg.inv_ridge(ws, ridge)
    s2 = float(np.linalg.norm(diff, 2))
    s_frob = float(np.linalg.norm(diff, "fro"))
    eps = float(np.mean(np.abs(diff)))
    return SaturationReport(
        s2=s2,
        s_frob=s_frob,
        lower_ok=s2 >= s_frob / math.sqrt(n) - 1e-12,
        sqrt_s2=math.sqrt(s2),
        eps_mean=eps,
        sqrt_lower=math.sqrt(math.sqrt(n) * eps),
    )


@dataclass(frozen=True)
class HoeffdingReport:
    q: float
    m: int
    delta_gap: float
    trials: int
    empirical_rate: float
    bound: float
    slack: float
    passed: bool


def hoeffding_violation_test(
    q: float, m: int, delta_gap: float, trials: int, seed: int = 0
) -> HoeffdingReport:
    """Monte-Carlo check of the two-sided concentration bound.

    Draws ``trials`` m-shot means of Bernoulli(q) with the sweep's shot
    sampler and compares the frequency of ``|mean - q| >= delta_gap / 2``
    against ``2 exp(-delta_gap^2 m / 2)`` plus three binomial standard errors.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be a probability, got {q}")
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    means = sample_cross(np.full((1, trials), float(q)), None, 1, m, seed)[0]
    rate = float(np.mean(np.abs(means - q) >= delta_gap / 2.0))
    bound = 2.0 * math.exp(-(delta_gap**2) * m / 2.0)
    slack = 3.0 * math.sqrt(max(bound * (1.0 - bound), 0.0) / trials) + 1e-6
    return HoeffdingReport(
        q=q,
        m=m,
        delta_gap=delta_gap,
        trials=trials,
        empirical_rate=rate,
        bound=bound,
        slack=slack,
        passed=rate <= bound + slack,
    )
