"""The ``qksim check`` battery, on the code paths the sweep runs.  Trial ``t``
of a randomized check draws from ``stream(seed, "check-<name>", t)``; the clip,
flip and shift rows share the "check-calibration" trials."""
from __future__ import annotations

import math
from itertools import product

import numpy as np

from . import bounds, calibrate, datasets, kernels, linalg, qsim
from .rng import stream


def battery(trials: int, seed: int) -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) rows."""
    folding_ok, worst = True, 0.0
    for layers, rate, s in product((1, 2, 4, 8), (0.0, 0.001, 0.05, 0.3), range(5)):
        unitaries = qsim.random_unitaries(2, layers, seed=s)
        rep = qsim.verify_noise_folding(unitaries, rate, seed=s)
        folding_ok &= rep.passed
        worst = max(worst, rep.max_abs_diff)

    draws, hoeffding_ok = max(trials, 1000), True
    for q, m, gap in product((0.1, 0.5, 0.9), (10, 100), (0.1, 0.2)):
        hoeffding_ok &= bounds.hoeffding_violation_test(q, m, gap, draws, seed).passed

    perturbation_ok, applicable = True, 0
    for t in range(trials):
        g = stream(seed, "check-inverse-perturbation", t)
        dim = int(g.integers(2, 9))
        a = g.normal(size=(dim, dim))
        base = linalg.sym_matrix((a + a.T) / 2) + np.eye(dim) * (dim + 2)
        e = g.normal(size=(dim, dim))
        perturbation = linalg.sym_matrix((e + e.T) / 2) * 0.05
        rep = linalg.inverse_perturbation_check(base, base + perturbation)
        perturbation_ok &= rep.passed
        applicable += rep.applicable

    clip_ok = flip_ok = shift_ok = True
    for t in range(max(trials // 5, 20)):
        g = stream(seed, "check-calibration", t)
        n = int(g.integers(2, 33))
        ds = datasets.generate_synthetic(n, 2, seed=int(g.integers(0, 10**6)))
        q = kernels.gram_ideal(ds.features)
        noisy = kernels.apply_noise(q, kernels.NoiseModel(0.05, layers=4))
        w = kernels.sample_shots(noisy, 10, int(g.integers(0, 10**6)))
        qs, ws = linalg.Spectrum(q.matrix, "reference"), linalg.Spectrum(w.matrix)
        clip, flip, shift = (
            calibrate.calibrate_and_report(qs, ws, method)[1]
            for method in (calibrate.CLIP, calibrate.FLIP, calibrate.SHIFT)
        )
        clip_ok &= clip.passed_lemma is not False
        flip_ok &= flip.passed_lemma is not False
        lam_min = min(shift.min_eig_before, 0.0)
        gap = shift.dist_after**2 - shift.dist_before**2
        want = 2 * lam_min * (np.trace(q.matrix) - np.trace(w.matrix)) + n * lam_min**2
        shift_ok &= abs(gap - want) <= 1e-9 * max(1.0, abs(want))

    sandwich_ok = True
    for t in range(trials):
        g = stream(seed, "check-norm-sandwich", t)
        dim = int(g.integers(1, 16))
        a = g.normal(size=(dim, dim))
        m = linalg.sym_matrix((a + a.T) / 2)
        s, f = linalg.spectral_norm(m), linalg.frobenius_norm(m)
        sandwich_ok &= s <= f + 1e-12 and f <= math.sqrt(dim) * s + 1e-12

    return [
        ("noise-folding", folding_ok, f"max entry deviation {worst:.2e}"),
        ("hoeffding-envelope", hoeffding_ok, f"{draws} trials per cell"),
        ("inverse-perturbation", perturbation_ok, f"{applicable}/{trials} applicable"),
        ("clip-distance", clip_ok, "never increases Frobenius distance"),
        ("flip-distance", flip_ok, "never increases Frobenius distance"),
        ("shift-identity", shift_ok,
         "distance gap equals 2*lam_min*(trQ-trW) + n*lam_min^2"),
        ("norm-sandwich", sandwich_ok, "spectral <= frobenius <= sqrt(n)*spectral"),
    ]
