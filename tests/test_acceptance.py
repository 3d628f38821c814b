"""Acceptance suite: one check per stated criterion, printed as PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.

Known red: criterion 1's shift clause asserts that the shift transform
never increases the Frobenius distance to the ideal kernel.  On unit-trace
pairs the distance provably grows by exactly n * lambda_min^2 (see the
calibrate module docstring), so that assertion fails on every indefinite
estimate; it is kept faithful to the stated criterion rather than patched
to match the implementation.
"""
import math
import time

import numpy as np
import pytest

from qksim import bounds, calibrate, cli, datasets, kernels, linalg, qsim

from oracles import gram_density_trace


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- criterion 1: calibration distance guarantees on pipeline pairs --------


@pytest.fixture(scope="module")
def lemma_pairs():
    rng = np.random.default_rng(20240811)
    started = time.perf_counter()
    pairs = []
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        ds = datasets.generate_synthetic(n, 2, seed=int(rng.integers(0, 2**31)))
        q = kernels.gram_ideal(ds.features)
        noisy = kernels.apply_noise(
            q,
            kernels.NoiseModel(float(rng.uniform(0.0, 0.1)), layers=4),
            fix_diagonal=True,
        )
        m = int(rng.choice([5, 10, 50]))
        w = kernels.sample_shots(noisy, m, int(rng.integers(0, 2**31)))
        pairs.append((q.matrix, w.matrix))
    return pairs, time.perf_counter() - started


def _worst_distance_ratio(pairs, transform):
    worst = 0.0
    for q, w in pairs:
        before = np.linalg.norm(q - w, "fro")
        after = np.linalg.norm(q - transform(w), "fro")
        worst = max(worst, after / before if before > 0 else 0.0)
    return worst


class TestCriterion1LemmaSuite:
    def test_clip_distance_never_grows(self, lemma_pairs):
        pairs, build_time = lemma_pairs
        started = time.perf_counter()
        worst = _worst_distance_ratio(pairs, calibrate.clip)
        elapsed = build_time + (time.perf_counter() - started)
        ok = worst <= 1.0 + 1e-9 and elapsed < 60.0
        assert report(
            1, "lemma-suite clip", ok,
            f"1000 pairs, worst after/before {worst:.6f}, {elapsed:.1f}s incl. build",
        )

    def test_flip_distance_never_grows(self, lemma_pairs):
        pairs, _ = lemma_pairs
        worst = _worst_distance_ratio(pairs, calibrate.flip)
        assert report(
            1, "lemma-suite flip", worst <= 1.0 + 1e-9,
            f"1000 pairs, worst after/before {worst:.6f}",
        )

    def test_shift_distance_never_grows(self, lemma_pairs):
        pairs, _ = lemma_pairs
        worst = _worst_distance_ratio(pairs, calibrate.shift)
        assert report(
            1, "lemma-suite shift", worst <= 1.0 + 1e-9,
            f"1000 pairs, worst after/before {worst:.6f}; the shift transform "
            "provably moves unit-trace indefinite estimates away from the "
            "reference, so the claimed direction cannot hold",
        )


# -- criterion 2: simulator vs dense density-matrix oracle -----------------


def test_criterion_2_simulator_oracle_equivalence():
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        num_qubits = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        x = rng.uniform(-2, 2, size=(n, num_qubits))
        got = kernels.gram_ideal(x).matrix
        want = gram_density_trace(x)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 30.0
    assert report(
        2, "simulator-oracle", ok,
        f"50 datasets, worst entry deviation {worst:.2e}, {elapsed:.1f}s",
    )


# -- criterion 3: depolarization folding ------------------------------------


def test_criterion_3_noise_folding():
    worst = 0.0
    ok = True
    for layers in (1, 2, 4, 8):
        for rate in (0.0, 0.001, 0.05, 0.3):
            for seed in range(20):
                unitaries = qsim.random_unitaries(2, layers, seed=seed)
                rep = qsim.verify_noise_folding(unitaries, rate, seed=seed)
                ok &= rep.passed
                worst = max(worst, rep.max_abs_diff)
    assert report(
        3, "noise-folding", ok and worst <= 1e-10,
        f"(layers x rate x 20 seeds) grid, max entry deviation {worst:.2e}",
    )


# -- criterion 4: concentration envelope ------------------------------------


def test_criterion_4_hoeffding():
    ok = True
    worst_margin = math.inf
    for q in (0.1, 0.5, 0.9):
        for m in (10, 100):
            for gap in (0.1, 0.2):
                rep = bounds.hoeffding_violation_test(q, m, gap, 10**4, seed=5)
                ok &= rep.passed
                worst_margin = min(
                    worst_margin, rep.bound + rep.slack - rep.empirical_rate
                )
    assert report(
        4, "hoeffding-envelope", ok,
        f"12 cells x 10^4 trials, smallest margin {worst_margin:.3f}",
    )


# -- criterion 5: inverse perturbation ---------------------------------------


def test_criterion_5_inverse_perturbation():
    rng = np.random.default_rng(99)
    applicable = 0
    violations = 0
    trials = 0
    while applicable < 1000:
        trials += 1
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(dim, dim))
        base = linalg.sym_matrix((a + a.T) / 2) + np.eye(dim) * (dim + 2)
        e = rng.normal(size=(dim, dim))
        rep = linalg.inverse_perturbation_check(
            base, base + linalg.sym_matrix((e + e.T) / 2) * 0.05
        )
        if rep.applicable:
            applicable += 1
            violations += not rep.passed
    assert report(
        5, "inverse-perturbation", violations == 0,
        f"{applicable} applicable pairs in {trials} draws, {violations} violations",
    )


# -- criterion 6: bound formula properties -----------------------------------


def test_criterion_6_bound_formula():
    delta, c_q, num_qubits = 0.05, 1.0, 2

    breakdown_ok = True
    for n in (5, 30, 100):
        thr = bounds.theorem1_bound(
            np.eye(n), np.ones(n), "inf", kernels.NoiseModel(0.0), num_qubits
        ).breakdown_p
        for m in (10, 100, 10**4):
            for p in (thr * (1 + 1e-12), thr * 1.5, min(thr * 20, 1.0)):
                breakdown_ok &= (
                    bounds.c2_constant(n, m, p, 1.0, num_qubits, delta) == 0.0
                )

    def term_noise(n, m, p):
        c2 = bounds.c2_constant(n, m, p, c_q, num_qubits, delta)
        return math.inf if c2 == 0.0 else math.sqrt(n / (c2 * math.sqrt(m)))

    ms = (10, 100, 1000, 10**4)
    ns = (5, 20, 50, 100, 200)
    ps = (0.0, 0.05, 0.1, 0.2, 0.3)
    mono_ok = True
    for n in ns:
        for p in ps:
            vals = [term_noise(n, m, p) for m in ms]
            mono_ok &= all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
    for m in ms:
        for p in ps:
            vals = [term_noise(n, m, p) for n in ns]
            mono_ok &= all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))
    for n in ns:
        for m in ms:
            vals = [term_noise(n, m, p) for p in ps]
            mono_ok &= all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))

    y = np.array([1.0, -1.0] * 4)
    rep = bounds.theorem1_bound(np.eye(8), y, "inf", kernels.NoiseModel(0.0), 2)
    reduce_ok = (
        rep.term_noise == 0.0
        and rep.term_ideal == pytest.approx(math.sqrt(rep.c1 / 8))
    )

    ok = breakdown_ok and mono_ok and reduce_ok
    assert report(
        6, "bound-formula", ok,
        f"breakdown {breakdown_ok}, monotonicity {mono_ok}, "
        f"noiseless reduction {reduce_ok}",
    )


# -- criterion 7: directional sweep statistics -------------------------------


@pytest.fixture(scope="module")
def sweep_budget():
    state = {"elapsed": 0.0}
    return state


def _base_config(**overrides):
    raw = {
        "dataset": {"kind": "synthetic"},
        "num_qubits": 2,
        "train_sizes": [100],
        "test_size": 100,
        "shots": ["inf"],
        "noise_rates": [0.0],
        "methods": ["nearest"],
        "seeds": list(range(10)),
        "output": None,
    }
    raw.update(overrides)
    return cli.SweepConfig.from_dict(raw)


def _medians(records, kind, **coords):
    accs = [
        r.test_accuracy
        for r in records
        if r.kind == kind
        and r.error is None
        and all(getattr(r, k) == v for k, v in coords.items())
    ]
    return float(np.median(accs))


def test_criterion_7a_quantum_beats_rbf(sweep_budget):
    started = time.perf_counter()
    config = _base_config(train_sizes=[5], methods=["none"])
    records = cli.run_sweep(config)
    q = _medians(records, cli.QUANTUM)
    b = _medians(records, cli.RBF_BASELINE)
    sweep_budget["elapsed"] += time.perf_counter() - started
    ok = q - b >= 0.05
    assert report(
        7, "ideal-vs-rbf (a)", ok,
        f"n=5: quantum median {q:.3f}, rbf median {b:.3f}, gap {q - b:+.3f}",
    )


def test_criterion_7b_more_shots_help(sweep_budget):
    started = time.perf_counter()
    config = _base_config(shots=[10, 1000], noise_rates=[0.05])
    records = cli.run_sweep(config)
    low = _medians(records, cli.QUANTUM, m=10)
    high = _medians(records, cli.QUANTUM, m=1000)
    per_seed = {}
    for r in records:
        if r.kind == cli.QUANTUM and r.error is None:
            per_seed.setdefault(r.seed, {})[r.m] = r.test_accuracy
    seed_wins = sum(1 for accs in per_seed.values() if accs[1000] > accs[10])
    sweep_budget["elapsed"] += time.perf_counter() - started
    ok = high - low >= 0.10 and seed_wins >= 9
    assert report(
        7, "shot-budget (b)", ok,
        f"p~=0.05 n=100: median acc m=10 {low:.3f}, m=1000 {high:.3f}, "
        f"gap {high - low:+.3f}, per-seed wins {seed_wins}/10",
    )


def test_criterion_7c_noisy_peak_ideal_monotone(sweep_budget):
    started = time.perf_counter()
    config = _base_config(
        train_sizes=[5, 50, 100, 200],
        shots=[100, "inf"],
        noise_rates=[0.0, 0.05],
    )
    records = cli.run_sweep(config)
    sizes = (5, 50, 100, 200)
    ideal = [_medians(records, cli.QUANTUM, n=n, m="inf", p_tilde=0.0) for n in sizes]
    noisy = [_medians(records, cli.QUANTUM, n=n, m=100, p_tilde=0.05) for n in sizes]
    elapsed = time.perf_counter() - started
    sweep_budget["elapsed"] += elapsed

    ideal_monotone = all(b >= a - 1e-12 for a, b in zip(ideal, ideal[1:]))
    noisy_not_max_at_largest = max(noisy) > noisy[-1]
    budget_ok = sweep_budget["elapsed"] < 600.0
    ok = ideal_monotone and noisy_not_max_at_largest and budget_ok
    assert report(
        7, "peak-behavior (c)", ok,
        f"ideal medians {[f'{v:.2f}' for v in ideal]}, "
        f"noisy medians {[f'{v:.2f}' for v in noisy]}, "
        f"total sweep time {sweep_budget['elapsed']:.0f}s",
    )


# -- criterion 8: calibration benefit at m = 10 ------------------------------


def test_criterion_8_calibration_benefit():
    config = cli.SweepConfig.from_dict(
        {
            "dataset": {"kind": "synthetic"},
            "num_qubits": 8,
            "train_sizes": [50],
            "test_size": 100,
            "shots": [10],
            "noise_rates": [0.001],
            "methods": ["nearest", "clip", "flip", "shift"],
            "seeds": list(range(10)),
            # expectation-valued test kernels isolate what the train-side
            # calibration contributes; a floor of 1e-6 keeps the nearest
            # baseline an honest PSD projection
            "cross_shots": "exact",
            "nearest_delta": 1e-6,
            "output": None,
        }
    )
    records = cli.run_sweep(config)
    meds = {
        meth: _medians(records, cli.QUANTUM, method=meth)
        for meth in ("nearest", "clip", "flip", "shift")
    }
    best_gain = max(meds["clip"], meds["flip"], meds["shift"]) - meds["nearest"]
    ok = meds["shift"] >= meds["nearest"] and best_gain >= 0.03
    assert report(
        8, "calibration-benefit", ok,
        "medians " + " ".join(f"{k}={v:.3f}" for k, v in meds.items())
        + f", best gain over nearest {best_gain:+.3f}",
    )


# -- criterion 9: relabel continuous optimality ------------------------------


def test_criterion_9_relabel_optimality():
    rng = np.random.default_rng(4242)
    worst_excess = -math.inf
    ok = True
    for _ in range(100):
        b = rng.normal(size=(8, 8))
        k = linalg.sym_matrix(b.T @ b) + 0.1 * np.eye(8)
        c = rng.normal(size=(8, 8))
        q = linalg.sym_matrix(c.T @ c) + 0.1 * np.eye(8)
        root = linalg.mat_sqrt_psd(q)
        core = linalg.sym_matrix(root @ linalg.inv_ridge(k, 0.0) @ root)
        top = linalg.eig_sym(core).eigenvalues[0]
        w = rng.normal(size=(8, 10**4))
        rayleigh = np.sum(w * (core @ w), axis=0) / np.sum(w * w, axis=0)
        excess = float(np.max(rayleigh) - top)
        worst_excess = max(worst_excess, excess)
        ok &= excess <= 1e-9
    assert report(
        9, "relabel-optimality", ok,
        f"100 instances x 10^4 directions, worst excess {worst_excess:.2e}",
    )


# -- criterion 10: sweep determinism ------------------------------------------


def test_criterion_10_determinism(tmp_path):
    import json

    raw = {
        "dataset": {"kind": "synthetic"},
        "num_qubits": 2,
        "train_sizes": [10],
        "test_size": 10,
        "shots": [10, "inf"],
        "noise_rates": [0.0, 0.05],
        "methods": ["nearest", "shift"],
        "seeds": [0, 1, 2],
        "output": None,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out_a)])
    code_b = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    assert report(
        10, "determinism", ok,
        f"two runs, byte-identical={identical}, {out_a.stat().st_size} bytes",
    )
