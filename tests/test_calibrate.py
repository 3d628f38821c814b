import numpy as np
import pytest

import oracles
from qksim import calibrate, kernels, linalg


def random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return linalg.sym_matrix((a + a.T) / 2)


def pipeline_pair(rng, n, m=10, p_tilde=0.05):
    """(ideal Q, shot-sampled W) with the diagonal pinned at 1."""
    x = rng.uniform(-1, 1, size=(n, 2))
    q = kernels.gram_ideal(x)
    noise = kernels.NoiseModel(rate_per_layer=p_tilde, layers=4)
    qt = kernels.apply_noise(q, noise, fix_diagonal=True)
    w = kernels.sample_shots(qt, m, seed=int(rng.integers(0, 2**31)))
    return q.matrix, w.matrix


class TestClip:
    def test_diagonal_example(self):
        assert np.allclose(calibrate.clip(np.diag([2.0, -1.0])), np.diag([2.0, 0.0]))

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(4, 4))
        a = linalg.sym_matrix(b.T @ b)
        assert np.max(np.abs(calibrate.clip(a) - a)) <= 1e-10

    def test_output_psd(self):
        rng = np.random.default_rng(1)
        w = random_symmetric(rng, 8)
        out = calibrate.clip(w)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    def test_equals_zero_floor_projection(self):
        rng = np.random.default_rng(2)
        w = random_symmetric(rng, 8)
        assert np.max(np.abs(calibrate.clip(w) - calibrate.nearest_psd(w, 0.0))) <= 1e-9


class TestFlip:
    def test_diagonal_examples(self):
        assert np.allclose(calibrate.flip(np.diag([2.0, -1.0])), np.diag([2.0, 1.0]))
        assert np.allclose(calibrate.flip(np.diag([-3.0])), np.diag([3.0]))

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(4, 4))
        a = linalg.sym_matrix(b.T @ b)
        assert np.max(np.abs(calibrate.flip(a) - a)) <= 1e-9

    def test_spectrum_is_absolute_values(self):
        rng = np.random.default_rng(4)
        w = random_symmetric(rng, 7)
        want = np.sort(np.abs(np.linalg.eigvalsh(w)))
        got = np.sort(np.linalg.eigvalsh(calibrate.flip(w)))
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_frobenius_norm_preserved(self):
        rng = np.random.default_rng(5)
        w = random_symmetric(rng, 9)
        assert np.linalg.norm(calibrate.flip(w), "fro") == pytest.approx(
            np.linalg.norm(w, "fro"), abs=1e-10
        )


class TestShift:
    def test_diagonal_example(self):
        assert np.allclose(calibrate.shift(np.diag([2.0, -1.0])), np.diag([3.0, 0.0]))

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=(4, 4))
        a = linalg.sym_matrix(b.T @ b)
        assert np.array_equal(calibrate.shift(a), a)

    def test_offdiagonal_matrix(self):
        out = calibrate.shift(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(out, np.ones((2, 2)))

    def test_offdiagonal_entries_untouched(self):
        rng = np.random.default_rng(7)
        w = random_symmetric(rng, 6)
        out = calibrate.shift(w)
        off = ~np.eye(6, dtype=bool)
        assert np.array_equal(out[off], w[off])
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


class TestNearestPsd:
    def test_delta_zero_is_clip(self):
        rng = np.random.default_rng(8)
        w = random_symmetric(rng, 5)
        assert np.max(np.abs(calibrate.nearest_psd(w, 0.0) - calibrate.clip(w))) <= 1e-10

    def test_floor_applied(self):
        out = calibrate.nearest_psd(np.diag([2.0, -1.0]), 0.1)
        assert np.allclose(out, np.diag([2.0, 0.1]))

    def test_floor_raises_small_eigenvalues(self):
        out = calibrate.nearest_psd(np.eye(3), 2.0)
        assert np.allclose(out, 2.0 * np.eye(3))

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            calibrate.nearest_psd(np.eye(2), -0.5)

    def test_minimizes_distance_in_own_eigenbasis(self):
        # floor map is the closest spectrum with all eigenvalues >= delta:
        # grid perturbations around it never do better
        rng = np.random.default_rng(9)
        delta = 0.05
        for _ in range(20):
            w = random_symmetric(rng, 3)
            dec = linalg.eig_sym(w)
            base = np.maximum(dec.eigenvalues, delta)
            best = np.linalg.norm(base - dec.eigenvalues)
            for shifts in np.ndindex(3, 3, 3):
                lam = base + (np.array(shifts) - 1) * 0.02
                if np.any(lam < delta - 1e-15):
                    continue
                assert np.linalg.norm(lam - dec.eigenvalues) >= best - 1e-9


class TestIdempotence:
    def test_all_transforms(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            w = random_symmetric(rng, 6)
            for op in (calibrate.clip, calibrate.flip, calibrate.shift):
                once = op(w)
                twice = op(once)
                assert np.max(np.abs(twice - once)) <= 1e-9, op.__name__


class TestCalibrateAndReport:
    def test_identical_psd_pair(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=(4, 4))
        q = linalg.sym_matrix(b.T @ b)
        out, report = calibrate.calibrate_and_report(q, q, calibrate.CLIP)
        assert report.dist_before == 0.0
        assert report.dist_after <= 1e-9
        assert report.passed_lemma

    def test_hand_distances(self):
        q = np.eye(2)
        w = np.diag([1.0, -0.2])
        out, report = calibrate.calibrate_and_report(q, w, calibrate.CLIP)
        assert report.dist_before == pytest.approx(1.2)
        assert report.dist_after == pytest.approx(1.0)
        assert report.passed_lemma
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_shift_requires_unit_trace_average(self):
        q = np.eye(2)
        w = np.diag([5.0, -0.2])  # trace far from dim
        _, report = calibrate.calibrate_and_report(q, w, calibrate.SHIFT)
        assert report.passed_lemma is None

    def test_nearest_has_no_guarantee(self):
        q = np.eye(2)
        w = np.diag([1.0, -0.2])
        _, report = calibrate.calibrate_and_report(q, w, calibrate.NEAREST, delta=0.1)
        assert report.passed_lemma is None

    def test_indefinite_reference_not_applicable(self):
        q = np.diag([1.0, -1.0])
        w = np.diag([1.0, -0.2])
        _, report = calibrate.calibrate_and_report(q, w, calibrate.CLIP)
        assert report.passed_lemma is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            calibrate.calibrate_and_report(np.eye(2), np.eye(3), calibrate.CLIP)

    def test_pipeline_pairs_clip_flip_pass(self):
        # smaller copy of the acceptance sweep: clip and flip obey their
        # distance guarantee on (ideal, sampled) pairs with unit diagonal
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            q, w = pipeline_pair(rng, n)
            for method in (calibrate.CLIP, calibrate.FLIP):
                _, report = calibrate.calibrate_and_report(q, w, method)
                assert report.passed_lemma is True, (method, report)

    def test_pipeline_pairs_shift_reports_observed_direction(self):
        # with unit diagonals on both sides the shifted kernel is farther by
        # exactly n * lambda_min^2, so an indefinite input must report False
        rng = np.random.default_rng(21)
        seen_indefinite = 0
        for _ in range(50):
            n = int(rng.integers(4, 17))
            q, w = pipeline_pair(rng, n, m=8)
            lam_min = float(np.min(np.linalg.eigvalsh(w)))
            _, report = calibrate.calibrate_and_report(q, w, calibrate.SHIFT)
            if lam_min < -1e-12:
                seen_indefinite += 1
                assert report.passed_lemma is False
                gap = report.dist_after**2 - report.dist_before**2
                assert gap == pytest.approx(n * lam_min**2, rel=1e-9, abs=1e-12)
            else:
                assert report.passed_lemma is True
        assert seen_indefinite >= 25


class TestLemmaInequalitiesRandom:
    def test_clip_and_flip_on_random_pairs(self):
        # PSD reference vs arbitrary symmetric estimate, dims 2..64
        rng = np.random.default_rng(13)
        for _ in range(300):
            dim = int(rng.integers(2, 65))
            b = rng.normal(size=(dim, dim))
            q = linalg.sym_matrix(b.T @ b / dim)
            w = q + random_symmetric(rng, dim) * 0.3
            base = np.linalg.norm(q - w, "fro")
            for op in (calibrate.clip, calibrate.flip):
                assert np.linalg.norm(q - op(w), "fro") <= base * (1 + 1e-9)

    def test_shift_distance_identity(self):
        # ||Q - shift(W)||^2 - ||Q - W||^2 == 2 lam_min (trQ - trW) + n lam_min^2
        rng = np.random.default_rng(14)
        for _ in range(300):
            dim = int(rng.integers(2, 65))
            b = rng.normal(size=(dim, dim))
            q = linalg.sym_matrix(b.T @ b / dim)
            w = q + random_symmetric(rng, dim) * 0.3
            lam_min = min(float(np.min(np.linalg.eigvalsh(w))), 0.0)
            base_sq = np.linalg.norm(q - w, "fro") ** 2
            shift_sq = np.linalg.norm(q - calibrate.shift(w), "fro") ** 2
            want = 2 * lam_min * (np.trace(q) - np.trace(w)) + dim * lam_min**2
            assert shift_sq - base_sq == pytest.approx(want, rel=1e-9, abs=1e-9)


ALL_METHODS = calibrate.METHODS + (calibrate.NONE,)
DELTA = 0.1


def spectral_matrix(rng, eigenvalues):
    """A symmetric matrix with the given spectrum in a random eigenbasis."""
    v, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    return linalg.sym_matrix((v * np.asarray(eigenvalues)) @ v.T)


def equivalence_pairs():
    """(name, Q, W) pairs covering each branch of the repairs and the report."""
    rng = np.random.default_rng(30)
    q, w = pipeline_pair(rng, 12)
    b = rng.normal(size=(7, 7))
    pairs = {
        "indefinite": (q, w),
        "psd-fixed-point": (q[:7, :7], linalg.sym_matrix(b.T @ b / 7 + np.eye(7))),
        "under-the-floor": (q[:6, :6], spectral_matrix(rng, [0.03, 0.2, 0.5, 1, 2, 3])),
        "trace-off-dimension": (q[:8, :8], random_symmetric(rng, 8)),
        "non-psd-reference": (random_symmetric(rng, 12), w),
    }
    return [(name, qm, wm) for name, (qm, wm) in pairs.items()]


def assert_same_outcome(got, want):
    """Bit-identical repaired matrices and equal report fields of equal types."""
    (got_m, got_r), (want_m, want_r) = got, want
    assert got_m.dtype == want_m.dtype and got_m.shape == want_m.shape
    assert np.array_equal(got_m, want_m) and got_m.tobytes() == want_m.tobytes()
    got_d, want_d = got_r.to_dict(), want_r.to_dict()
    assert got_d == want_d
    assert [type(v) for v in got_d.values()] == [type(v) for v in want_d.values()]


def failure(func, *args):
    """The exception type and text ``func`` raises on ``args``."""
    with pytest.raises(Exception) as info:
        func(*args)
    return type(info.value), str(info.value)


class TestSpectrumMatchesReference:
    """One shared Spectrum gives the bits of the per-call decompositions."""

    def test_the_pairs_reach_every_branch(self):
        pairs = {name: (q, w) for name, q, w in equivalence_pairs()}

        def reference(name, method):
            q, w = pairs[name]
            out, report = oracles.calibrate_and_report_reference(q, w, method, DELTA)
            return np.array_equal(out, w), report.passed_lemma

        assert reference("indefinite", calibrate.CLIP) == (False, True)
        assert reference("indefinite", calibrate.SHIFT) == (False, False)
        for method in (calibrate.CLIP, calibrate.FLIP, calibrate.NEAREST):
            assert reference("psd-fixed-point", method)[0]
        assert reference("under-the-floor", calibrate.CLIP) == (True, True)
        assert reference("under-the-floor", calibrate.NEAREST) == (False, None)
        assert reference("trace-off-dimension", calibrate.SHIFT) == (False, None)
        assert reference("trace-off-dimension", calibrate.FLIP) == (False, True)
        assert reference("non-psd-reference", calibrate.CLIP) == (False, None)

    @pytest.mark.parametrize("name, q, w", equivalence_pairs())
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_matrix_and_spectrum_arguments(self, name, q, w, method):
        want = oracles.calibrate_and_report_reference(q, w, method, DELTA)
        qs, ws = calibrate.Spectrum(q, "reference"), calibrate.Spectrum(w, "kernel")
        for args in ((q, w), (qs, w), (q, ws), (qs, ws)):
            assert_same_outcome(
                calibrate.calibrate_and_report(*args, method, DELTA), want
            )

    @pytest.mark.parametrize("name, q, w", equivalence_pairs())
    @pytest.mark.parametrize("order", [ALL_METHODS, ALL_METHODS[::-1]])
    def test_one_spectrum_serves_every_method(self, name, q, w, order):
        qs, ws = calibrate.Spectrum(q, "reference"), calibrate.Spectrum(w, "kernel")
        for method in order:
            assert_same_outcome(
                calibrate.calibrate_and_report(qs, ws, method, DELTA),
                oracles.calibrate_and_report_reference(q, w, method, DELTA),
            )

    @pytest.mark.parametrize("name, q, w", equivalence_pairs())
    def test_public_repairs(self, name, q, w):
        ref = oracles.REPAIR_REFERENCES
        assert calibrate.clip(w).tobytes() == ref[calibrate.CLIP](w).tobytes()
        assert calibrate.flip(w).tobytes() == ref[calibrate.FLIP](w).tobytes()
        assert calibrate.shift(w).tobytes() == ref[calibrate.SHIFT](w).tobytes()
        want = ref[calibrate.NEAREST](w, DELTA).tobytes()
        assert calibrate.nearest_psd(w, DELTA).tobytes() == want

    @pytest.mark.parametrize("q, w, method, delta", [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2), calibrate.CLIP, 0.0),
        (np.eye(2), np.array([[1.0, 0.5], [0.1, 1.0]]), calibrate.FLIP, 0.0),
        (np.eye(2), np.eye(3), calibrate.SHIFT, 0.0),
        (np.eye(2), np.eye(2), "bogus", 0.0),
        (np.eye(2), np.diag([1.0, -1.0]), calibrate.NEAREST, -0.5),
    ])
    def test_same_failures(self, q, w, method, delta):
        want = failure(oracles.calibrate_and_report_reference, q, w, method, delta)
        got = failure(calibrate.calibrate_and_report, q, w, method, delta)
        assert got == want

    def test_negative_nearest_delta(self):
        w = np.diag([1.0, -1.0])
        want = failure(oracles.REPAIR_REFERENCES[calibrate.NEAREST], w, -0.5)
        assert failure(calibrate.nearest_psd, w, -0.5) == want
        assert want == (ValueError, "delta must be nonnegative, got -0.5")
