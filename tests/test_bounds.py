import math

import numpy as np
import pytest

from qksim import bounds, datasets, kernels, linalg


def noise(p_tilde, layers=8):
    return kernels.NoiseModel(rate_per_layer=p_tilde, layers=layers)


def breakdown_p(q, num_qubits):
    """``theorem1_bound(...).breakdown_p`` for ``q``; the labels, shots and
    noise rate do not enter it."""
    n = len(q)
    return bounds.theorem1_bound(q, np.ones(n), "inf", noise(0.0), num_qubits).breakdown_p


class TestTheorem1Bound:
    def test_identity_kernel_ideal_term(self):
        n = 8
        y = np.array([1.0, -1.0] * 4)
        report = bounds.theorem1_bound(np.eye(n), y, 100, noise(0.0), 2)
        assert report.c1 == pytest.approx(n)
        assert report.term_ideal == pytest.approx(1.0)
        assert report.c_q == pytest.approx(1.0)

    def test_noiseless_infinite_shots_reduces_to_ideal(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        report = bounds.theorem1_bound(np.eye(4), y, "inf", noise(0.0), 2)
        assert report.term_noise == 0.0
        assert report.c2 > 0.0
        assert report.term_ideal == pytest.approx(math.sqrt(report.c1 / 4))

    def test_noise_beyond_breakdown_is_infinite(self):
        n = 50
        y = np.array([1.0, -1.0] * 25)
        q = np.eye(n)
        threshold = breakdown_p(q, 2)
        p_tilde = min(threshold * 1.5, 1.0)
        report = bounds.theorem1_bound(q, y, 100, noise(p_tilde, layers=1), 2)
        assert report.p > threshold
        assert report.c2 == 0.0
        assert report.term_noise == math.inf

    def test_infinite_shots_with_noise_take_the_limit(self):
        # Q = I2 breaks down at p = 0.444: at 0.2 the noise term has a floor,
        # beyond the breakdown rate it stays vacuous
        y = np.array([1.0, -1.0])
        report = bounds.theorem1_bound(np.eye(2), y, "inf", noise(0.2, layers=1), 2)
        assert report.c2 == 0.0
        assert report.term_noise == pytest.approx(0.9045340, rel=1e-7)
        report = bounds.theorem1_bound(np.eye(2), y, "inf", noise(0.5, layers=1), 2)
        assert report.term_noise == math.inf

    @pytest.mark.parametrize("n, c_q, num_qubits", [(2, 1.0, 2), (3, 1.0, 3), (4, 0.5, 6)])
    @pytest.mark.parametrize("share", [0.1, 0.5, 0.8, 1.2, 2.0])
    def test_infinite_shots_match_large_shots(self, n, c_q, num_qubits, share):
        # on both sides of breakdown_p, "inf" is the m -> infinity limit; at
        # m = 10**18 the neglected terms are under 1e-7 of it for these rates
        ideal = bounds.IdealTerms(n=n, c1=1.0, c_q=c_q)
        p = share / (n * c_q * (1.0 + 2.0 ** (-(num_qubits + 1))))
        at_inf = bounds.theorem1_bound(ideal, None, "inf", noise(p, layers=1), num_qubits)
        large = bounds.theorem1_bound(ideal, None, 10**18, noise(p, layers=1), num_qubits)
        if share < 1.0:
            assert at_inf.term_noise == pytest.approx(large.term_noise, rel=1e-6)
        else:
            assert at_inf.term_noise == large.term_noise == math.inf

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            bounds.theorem1_bound(np.eye(3), np.ones(2), 10, noise(0.0), 2)

    def test_delta_range_checked(self):
        with pytest.raises(ValueError):
            bounds.theorem1_bound(np.eye(2), np.ones(2), 10, noise(0.0), 2, delta=1.5)


class TestBreakdownThreshold:
    def test_identity_formula(self):
        for n in (4, 10):
            got = breakdown_p(np.eye(n), 3)
            assert got == pytest.approx(1.0 / (n * (1.0 + 2.0**-4)))

    def test_hundred_points_two_qubits(self):
        got = breakdown_p(np.eye(100), 2)
        assert got == pytest.approx(1.0 / 112.5)
        assert got == pytest.approx(8.888888888888889e-3)

    def test_doubling_n_halves_threshold(self):
        a = breakdown_p(np.eye(10), 2)
        b = breakdown_p(np.eye(20), 2)
        assert b == pytest.approx(a / 2)

    def test_breakdown_consistency_with_c2(self):
        # c2 collapses to zero whenever p exceeds the threshold
        n, num_qubits, delta = 30, 2, 0.05
        threshold = breakdown_p(np.eye(n), num_qubits)
        for m in (10, 100, 10**4):
            for scale in (1.0 + 1e-12, 1.1, 2.0, 10.0):
                p = min(threshold * scale, 1.0)
                c2 = bounds.c2_constant(n, m, p, 1.0, num_qubits, delta)
                assert c2 == 0.0, (m, scale)


class TestMonotonicity:
    def test_term_noise_monotone_on_grid(self):
        delta, c_q, num_qubits = 0.05, 1.0, 2
        ms = (10, 50, 100, 1000, 10**4)
        ns = (5, 20, 50, 100, 200)
        ps = (0.0, 0.01, 0.05, 0.1, 0.2, 0.3)

        def term_noise(n, m, p):
            c2 = bounds.c2_constant(n, m, p, c_q, num_qubits, delta)
            return math.inf if c2 == 0.0 else math.sqrt(n / (c2 * math.sqrt(m)))

        for n in ns:
            for p in ps:
                vals = [term_noise(n, m, p) for m in ms]
                assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
        for m in ms:
            for p in ps:
                vals = [term_noise(n, m, p) for n in ns]
                assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))
        for n in ns:
            for m in ms:
                vals = [term_noise(n, m, p) for p in ps]
                assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))

    def test_cubic_shot_budget_keeps_ratio_bounded(self):
        # at m = n^3 and p = 0 the noise/ideal ratio stays below a small
        # constant (computed: 2.61 at n=5, decreasing in n)
        delta, c_q = 0.05, 1.0
        for n in range(5, 201):
            c2 = bounds.c2_constant(n, n**3, 0.0, c_q, 2, delta)
            ratio = math.sqrt(n / (c2 * math.sqrt(float(n) ** 3)))  # term_ideal = 1
            assert ratio <= 5.0, (n, ratio)


class TestSaturationDiagnostic:
    def test_equal_matrices_are_zero(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(6, 2))
        q = kernels.gram_ideal(x).matrix
        report = bounds.saturation_diagnostic(q, q, ridge=0.1)
        assert report.s2 == 0.0
        assert report.s_frob == 0.0
        assert report.lower_ok

    def test_diagonal_perturbation_closed_form(self):
        # inverses differ by eps * I on n = 4: s_frob = 2 eps, s2 = eps
        eps = 0.25
        q = np.eye(4)
        w = np.eye(4) / (1.0 + eps)
        report = bounds.saturation_diagnostic(q, w, ridge=0.0)
        assert report.s2 == pytest.approx(eps, rel=1e-12)
        assert report.s_frob == pytest.approx(2 * eps, rel=1e-12)
        assert report.lower_ok
        assert report.eps_mean == pytest.approx(eps / 4, rel=1e-12)

    def test_norm_relation_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=(int(rng.integers(2, 12)), 2))
            q = kernels.gram_ideal(x)
            qt = kernels.apply_noise(q, noise(0.05), True)
            w = kernels.sample_shots(qt, 50, int(rng.integers(0, 1000)))
            report = bounds.saturation_diagnostic(q.matrix, w.matrix, ridge=2.0)
            assert report.lower_ok

    def test_error_grows_with_pool_size(self):
        # median over 20 seeds of s2 is nondecreasing across n; ridge 2.0
        # keeps every indefinite estimate invertible (worst lambda_min over
        # this sweep is about -1.06)
        medians = []
        for n in (5, 50, 100, 200):
            vals = []
            for seed in range(20):
                ds = datasets.generate_synthetic(n, 2, seed=seed)
                q = kernels.gram_ideal(ds.features)
                qt = kernels.apply_noise(q, noise(0.05), True)
                w = kernels.sample_shots(qt, 100, seed)
                vals.append(bounds.saturation_diagnostic(q.matrix, w.matrix, 2.0).s2)
            medians.append(float(np.median(vals)))
        assert all(b >= a for a, b in zip(medians, medians[1:])), medians


class TestHoeffding:
    def test_degenerate_probabilities_never_violate(self):
        for q in (0.0, 1.0):
            report = bounds.hoeffding_violation_test(q, 20, 0.1, 2000, seed=1)
            assert report.empirical_rate == 0.0
            assert report.passed

    def test_impossible_gap(self):
        report = bounds.hoeffding_violation_test(0.5, 10, 2.0, 2000, seed=2)
        assert report.empirical_rate == 0.0
        assert report.passed

    def test_fair_coin_hundred_shots(self):
        report = bounds.hoeffding_violation_test(0.5, 100, 0.2, 10**4, seed=3)
        assert report.bound == pytest.approx(2 * math.exp(-2.0))
        assert report.passed

    @pytest.mark.parametrize("q, m, gap, seed", [
        (0.1, 10, 0.1, 0), (0.5, 100, 0.2, 3), (0.9, 20, 0.15, 2**64 - 1),
    ])
    def test_draws_through_the_sweep_sampler(self, q, m, gap, seed):
        means = kernels.sample_cross(np.full((1, 2000), q), None, 1, m, seed)[0]
        rate = float(np.mean(np.abs(means - q) >= gap / 2.0))
        report = bounds.hoeffding_violation_test(q, m, gap, 2000, seed)
        assert report.empirical_rate == rate

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            bounds.hoeffding_violation_test(0.5, 10, 0.1, 10, seed=0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            bounds.hoeffding_violation_test(1.5, 10, 0.1, 2000, seed=0)


class TestOneSpectrumPerMatrix:
    """Each bound function checks a matrix once: through its one Spectrum."""

    @staticmethod
    def kernel(n=12, seed=4):
        x = np.random.default_rng(seed).uniform(-1, 1, size=(n, 2))
        return kernels.gram_ideal(x).matrix + 0.1 * np.eye(n)

    @staticmethod
    def count_checks(monkeypatch, target):
        calls, check = [0], linalg.check_symmetric

        def spy(m, name="matrix"):
            a = linalg.as_matrix(m)
            calls[0] += a.shape == target.shape and a.tobytes() == target.tobytes()
            return check(m, name)

        monkeypatch.setattr(linalg, "check_symmetric", spy)
        return calls

    def test_checks_q_no_more_than_one_spectrum(self, monkeypatch):
        q = self.kernel()
        y = np.array([1.0, -1.0] * 6)
        calls = self.count_checks(monkeypatch, q)
        linalg.Spectrum(q, "Q").decomposition
        one = calls[0]
        for run in (
            lambda: bounds.ideal_terms(q, y),
            lambda: bounds.theorem1_bound(q, y, 10, noise(0.0), 2),
            lambda: bounds.saturation_diagnostic(q, q + 0.01),
        ):
            calls[0] = 0
            run()
            assert calls[0] == one

    def test_same_bits_as_separate_inverses(self):
        q, w = self.kernel(), self.kernel(seed=5)
        y = np.array([1.0, -1.0] * 6)
        q_inv = linalg.inv_ridge(q, 0.0)
        terms = bounds.ideal_terms(q, y)
        assert terms.c1 == float(y @ q_inv @ y)
        assert terms.c_q == linalg.spectral_norm(q_inv)
        got = bounds.theorem1_bound(q, y, 10, noise(0.0), 2).breakdown_p
        assert got == 1.0 / (12 * terms.c_q * (1.0 + 2.0**-3))
        diff = linalg.inv_ridge(q, 0.1) - linalg.inv_ridge(w, 0.1)
        report = bounds.saturation_diagnostic(q, w, ridge=0.1)
        assert report.s2 == float(np.linalg.norm(diff, 2))
        assert report.eps_mean == float(np.mean(np.abs(diff)))

    def test_ideal_terms_add_the_ridge_themselves(self):
        q = self.kernel()
        y = np.array([1.0, -1.0] * 6)
        for ridge in (0.0, 0.5):
            want = bounds.ideal_terms(q + ridge * np.eye(12), y)
            assert bounds.ideal_terms(q, y, ridge) == want
        with pytest.raises(ValueError, match="^ridge must be nonnegative, got -1$"):
            bounds.ideal_terms(q, y, -1)
        with pytest.raises(ValueError, match=r"^Q must be square, got shape \(2, 3\)$"):
            bounds.ideal_terms(np.ones((2, 3)), y, 0.5)

    def test_error_texts_and_order(self):
        bad = np.array([[1.0, 0.2], [0.7, 1.0]])
        nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="^Q is not symmetric$"):
            bounds.ideal_terms(bad, np.ones(3))  # Q before the labels
        with pytest.raises(ValueError, match="^labels must have length 2$"):
            bounds.ideal_terms(np.eye(2), np.ones(3))
        with pytest.raises(ValueError, match="^Q has non-finite entries$"):
            bounds.theorem1_bound(nan, np.ones(2), 10, noise(0.0), 2)
        with pytest.raises(ValueError, match="^Q must be square, got shape"):
            bounds.saturation_diagnostic(np.ones((2, 3)), bad)  # Q before W
        with pytest.raises(ValueError, match="^W is not symmetric$"):
            bounds.saturation_diagnostic(np.eye(3), bad)  # W before the shapes
        with pytest.raises(ValueError, match=r"^shape mismatch: \(3, 3\) vs \(2, 2\)$"):
            bounds.saturation_diagnostic(np.eye(3), np.eye(2))
