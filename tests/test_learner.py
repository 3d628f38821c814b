import json

import numpy as np
import pytest

from qksim import calibrate, cli, kernels, learner, linalg, qsim

from oracles import (
    grid_search_rbf_reference,
    primal_ridge_norm_sq,
    real_embedding,
    two_pass_variance,
)


def noisy_circle_data(seed, n, d):
    """Labels from a circle in the first two coordinates, 20% flipped."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.where(np.sum(x[:, :2] ** 2, axis=1) > 1.4, 1.0, -1.0)
    y[rng.random(n) < 0.2] *= -1.0
    return x, y


class TestFitKrr:
    def test_identity_kernel_returns_labels(self):
        y = np.array([1.0, -1.0, 1.0])
        model = learner.fit_krr(np.eye(3), y, 0.0)
        assert np.allclose(model.dual_coef, y)

    def test_scaled_identity(self):
        model = learner.fit_krr(2.0 * np.eye(2), np.array([1.0, -1.0]), 0.0)
        assert np.allclose(model.dual_coef, [0.5, -0.5])

    def test_residual_contract(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(6, 6))
        k = linalg.sym_matrix(b.T @ b) + np.eye(6)
        y = np.where(rng.normal(size=6) > 0, 1.0, -1.0)
        ridge = 0.3
        model = learner.fit_krr(k, y, ridge)
        resid = (k + ridge * np.eye(6)) @ model.dual_coef - y
        assert np.linalg.norm(resid) <= 1e-7 * np.linalg.norm(y)

    def test_interpolates_at_negligible_ridge(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(8, 8))
        k = linalg.sym_matrix(b.T @ b) + 0.5 * np.eye(8)
        y = np.where(rng.normal(size=8) > 0, 1.0, -1.0)
        model = learner.fit_krr(k, y, 1e-8)
        assert np.max(np.abs(k @ model.dual_coef - y)) <= 1e-5

    def test_training_accuracy_one_when_nonsingular(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(10, 2))
        k = kernels.gram_ideal(x)
        y = np.where(rng.normal(size=10) > 0, 1.0, -1.0)
        model = learner.fit_krr(k, y, 1e-10)
        _, labels = learner.predict(model, k.matrix)
        assert learner.accuracy(labels, y.astype(int)) == 1.0

    def test_singular_kernel_message_tells_remedy(self):
        # every ridge solve shares EigenDecomposition.shifted and its message
        k, y = np.diag([1.0, -1e-3]), np.array([1.0, -1.0])
        for solve in (
            lambda: learner.fit_krr(k, y, 0.0),
            lambda: learner.model_complexity_c1(k, y, 0.0),
            lambda: kernels.geometric_difference(np.eye(2), k, y, 0.0),
            lambda: kernels.geometric_difference(k, np.eye(2), y, 0.0),
        ):
            with pytest.raises(linalg.SingularMatrixError) as got:
                solve()
            assert str(got.value) == (
                "singular system: lambda_min + ridge = -1.000e-03; "
                "calibrate the kernel to PSD or increase the ridge"
            )

    @pytest.mark.parametrize("rank, ridge", [(8, 0.3), (8, 1e-8), (3, 1e-3), (3, 1e-8)])
    def test_dual_coef_matches_the_inverse(self, rank, ridge):
        # the fit solves V (V'y / (lam + ridge)); the inverse linalg.inv_ridge
        # forms on the same basis gives the same vector up to rounding, also
        # where a round-off eigenvalue weights its direction by 1 / ridge
        rng = np.random.default_rng(rank)
        b = rng.normal(size=(rank, 8))
        k = linalg.sym_matrix(b.T @ b / rank)
        y = np.where(rng.normal(size=8) > 0, 1.0, -1.0)
        want = linalg.inv_ridge(k, ridge) @ y
        got = learner.fit_krr(k, y, ridge).dual_coef
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_a_held_decomposition_is_solved_without_a_matrix(self, monkeypatch):
        # a Spectrum that holds its decomposition, W's own or a repair's
        # carried one, is fitted with no reconstruct and no decomposition
        rng = np.random.default_rng(5)
        b = rng.normal(size=(8, 8))
        psd = linalg.Spectrum(linalg.sym_matrix(b.T @ b / 8))
        psd.decomposition  # decomposed before the spies are set
        clipped = calibrate.repair(linalg.sym_matrix(b + b.T), calibrate.CLIP, 0.0)
        y = np.where(rng.normal(size=8) > 0, 1.0, -1.0)
        calls = []

        def spy(name, func):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)
            return wrapped

        reconstruct = linalg.EigenDecomposition.reconstruct
        monkeypatch.setattr(linalg.EigenDecomposition, "reconstruct",
                            spy("reconstruct", reconstruct))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        for spec in (psd, clipped):
            learner.fit_krr(spec, y, learner.DEFAULT_QUANTUM_RIDGE)
        assert calls == []

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            learner.fit_krr(np.eye(2), np.array([1.0, 0.5]), 0.0)

    def test_model_json_holds_the_model(self):
        model = learner.fit_krr(np.eye(3), np.array([1.0, -1.0, 1.0]), 0.5)
        raw = json.loads(model.to_json())
        assert np.array_equal(raw["dual_coef"], model.dual_coef)
        assert np.array_equal(raw["train_labels"], model.train_labels)
        assert raw["ridge"] == model.ridge


class TestPredict:
    def test_zero_row_ties_to_plus_one(self):
        model = learner.fit_krr(np.eye(2), np.array([1.0, -1.0]), 0.0)
        values, labels = learner.predict(model, np.zeros((1, 2)))
        assert values[0] == 0.0
        assert labels[0] == 1

    def test_identity_cross_reproduces_training_labels(self):
        y = np.array([1.0, -1.0, -1.0])
        model = learner.fit_krr(np.eye(3), y, 0.0)
        _, labels = learner.predict(model, np.eye(3))
        assert np.array_equal(labels, y.astype(int))

    def test_sign_thresholding(self):
        model = learner.KernelModel(
            dual_coef=np.array([1.0]), train_labels=np.array([1]), ridge=0.0
        )
        values, labels = learner.predict(model, np.array([[0.3], [-0.2]]))
        assert np.allclose(values, [0.3, -0.2])
        assert np.array_equal(labels, [1, -1])

    def test_dimension_mismatch(self):
        model = learner.fit_krr(np.eye(2), np.array([1.0, -1.0]), 0.0)
        with pytest.raises(ValueError):
            learner.predict(model, np.zeros((1, 3)))


class TestAccuracy:
    def test_identical(self):
        assert learner.accuracy(np.array([1, -1]), np.array([1, -1])) == 1.0

    def test_opposite(self):
        assert learner.accuracy(np.array([1, -1]), np.array([-1, 1])) == 0.0

    def test_half(self):
        pred = np.array([1, 1, -1, -1])
        true = np.array([1, -1, -1, 1])
        assert learner.accuracy(pred, true) == 0.5

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(3)
        pred = rng.choice([-1, 1], size=20)
        true = rng.choice([-1, 1], size=20)
        perm = rng.permutation(20)
        assert learner.accuracy(pred, true) == learner.accuracy(pred[perm], true[perm])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            learner.accuracy(np.array([]), np.array([]))


class TestModelComplexity:
    def test_identity(self):
        assert learner.model_complexity_c1(np.eye(2), np.array([1.0, -1.0])) == 2.0

    def test_scaled_identity(self):
        got = learner.model_complexity_c1(2 * np.eye(2), np.array([1.0, -1.0]))
        assert got == pytest.approx(1.0)

    def test_matches_explicit_feature_primal(self):
        # dual value Y' (Q + r I)^-1 Y against the primal ||w*||^2 computed in
        # the explicit density-matrix embedding, ridge 1e-8
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(6, 2))
        q = kernels.gram_ideal(x)
        assert float(np.min(np.linalg.eigvalsh(q.matrix))) > 1e-3  # well-posed
        y = np.where(rng.normal(size=6) > 0, 1.0, -1.0)
        ridge = 1e-8
        states = qsim.feature_states(x)
        phi = np.array([real_embedding(np.outer(psi, psi.conj())) for psi in states])
        want = primal_ridge_norm_sq(phi, y, ridge)
        got = learner.model_complexity_c1(q, y, ridge)
        assert got == pytest.approx(want, rel=1e-6)


class TestSpectrumArguments:
    """fit_krr and c1 give a matrix's bits and failures for its Spectrum."""

    @staticmethod
    def failure(func, *args):
        with pytest.raises(Exception) as info:
            func(*args)
        return type(info.value), str(info.value)

    def test_same_bits(self):
        rng = np.random.default_rng(42)
        b = rng.normal(size=(8, 8))
        k = linalg.sym_matrix(b.T @ b / 8)
        y = np.where(rng.normal(size=8) > 0, 1.0, -1.0)
        spec = linalg.Spectrum(k)
        gram = kernels.KernelMatrix(k, kernels.IDEAL)
        for ridge in (1e-8, 0.5):
            alpha = linalg.eig_sym(k).solve(y, (ridge,))[:, 0]  # the unshared path
            inv = linalg.inv_ridge(k, ridge)
            for arg in (k, gram, spec):
                assert learner.fit_krr(arg, y, ridge).dual_coef.tobytes() == (
                    alpha.tobytes()
                )
                assert learner.model_complexity_c1(arg, y, ridge) == float(y @ inv @ y)

    @pytest.mark.parametrize("bad", [
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
        np.array([[1.0, 0.5], [0.1, 1.0]]),
    ])
    def test_same_failures(self, bad):
        y = np.array([1.0, -1.0])
        want = self.failure(linalg.eig_sym, bad)
        assert self.failure(learner.fit_krr, bad, y, 0.1) == want
        assert self.failure(learner.model_complexity_c1, bad, y, 0.1) == want
        for func in (learner.fit_krr, learner.model_complexity_c1):
            assert self.failure(lambda: func(linalg.Spectrum(bad), y, 0.1)) == want
        # the labels and the size are checked before the matrix
        assert self.failure(learner.fit_krr, bad, np.array([1.0, 0.0]), 0.1) == (
            ValueError, "labels must be +1 or -1"
        )
        assert self.failure(learner.fit_krr, bad, np.ones(3), 0.1) == (
            ValueError, "kernel dim 2 does not match 3 labels"
        )


class TestGridSearchRbf:
    def test_grid_sizes(self):
        assert len(learner.GAMMA_GRID) == 10
        assert len(learner.LAMBDA_GRID) == 18
        # the first maximum of the ridge-major table is the tie rule's pick
        # only while both grids strictly ascend
        for grid in (learner.GAMMA_GRID, learner.LAMBDA_GRID):
            assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_pooled_variance_matches_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(13, 5))
        assert learner.pooled_variance(x) == pytest.approx(
            two_pass_variance(x), rel=1e-12
        )

    def test_width_unit_is_scale_over_width_times_variance(self):
        x = np.random.default_rng(6).normal(size=(9, 3))
        var = float(np.var(x))
        assert learner.rbf_gamma_unit(x) == 1.0 / (3 * var)
        assert learner.rbf_gamma_unit(x, 2.5) == 2.5 / (3 * var)

    def test_grid_and_pool_share_the_width_rule(self):
        # one rule, one error: the grid's unit and the pool's relabelling width
        flat, y = np.ones((4, 2)), np.array([1.0, -1.0, 1.0, -1.0])
        message = (r"all training coordinates are identical; the gamma scale "
                   r"1 / \(d \* Var\) is undefined")
        for call in (
            lambda: learner.rbf_gamma_unit(flat),
            lambda: learner.grid_search_rbf(flat, y, flat, y),
            lambda: cli._engineer_labels(flat, 1.0, 1e-8),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_separable_blobs_reach_full_accuracy(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(20, 2)) * 0.2 + np.array([2.0, 2.0])
        b = rng.normal(size=(20, 2)) * 0.2 - np.array([2.0, 2.0])
        x = np.vstack([a, b])
        y = np.array([1.0] * 20 + [-1.0] * 20)
        result = learner.grid_search_rbf(x, y, x, y)
        assert result.accuracy == 1.0

    def test_train_as_validation_ties_to_smallest_lambda(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=(12, 2))
        y = np.array([1.0, -1.0] * 6)
        result = learner.grid_search_rbf(x, y, x, y)
        # interpolation regime: accuracy 1.0 somewhere, tie rule picks the
        # smallest ridge then the smallest gamma
        assert result.accuracy == 1.0
        assert result.ridge == learner.LAMBDA_GRID[0]

    @pytest.mark.parametrize("seed, n_fit, n_val, d", [
        (0, 10, 10, 2), (1, 17, 9, 2), (2, 24, 24, 3), (3, 31, 12, 2),
        (4, 40, 40, 5), (5, 60, 30, 4),
    ])
    def test_matches_per_ridge_reference(self, seed, n_fit, n_val, d):
        x, y = noisy_circle_data(seed, n_fit + n_val, d)
        args = (x[:n_fit], y[:n_fit], x[n_fit:], y[n_fit:])
        assert learner.grid_search_rbf(*args) == grid_search_rbf_reference(*args)

    @pytest.mark.parametrize("num_qubits", [2, 12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_ridge_reference_on_sweep_pools(self, num_qubits, seed):
        # the sweep's own grid inputs at the benchmark's shape: a 200-row
        # training set, halved into fit and validation sets
        config = cli.SweepConfig.from_dict({
            "dataset": {"kind": "synthetic"}, "num_qubits": num_qubits,
            "train_sizes": [200], "test_size": 100, "shots": ["inf"],
            "noise_rates": [0.0], "methods": ["nearest"], "seeds": [seed],
        })
        pool = cli.build_pool(config, 200, seed)
        args = learner.validation_split(
            pool.features[pool.train_idx], pool.y_train, seed
        )
        assert learner.grid_search_rbf(*args) == grid_search_rbf_reference(*args)

    def test_distances_are_computed_once_per_call(self, monkeypatch):
        # one train and one validation table serve all 10 widths
        calls = []
        sq_dists = kernels._sq_dists

        def spy(a, b):
            calls.append((a.shape, b.shape))
            return sq_dists(a, b)

        monkeypatch.setattr(kernels, "_sq_dists", spy)
        x, y = noisy_circle_data(7, 30, 2)
        learner.grid_search_rbf(x[:18], y[:18], x[18:], y[18:])
        assert calls == [((18, 2), (18, 2)), ((12, 2), (18, 2))]

    def test_matches_reference_through_ridge_ties(self):
        x, y = noisy_circle_data(6, 12, 2)
        args = (x[:8], y[:8], x[8:], y[8:])
        best = learner.grid_search_rbf(*args)
        assert best == grid_search_rbf_reference(*args)
        k_train = kernels.rbf_gram(args[0], best.gamma)
        k_val = kernels.rbf_cross(args[0], args[2], best.gamma)
        tied = [
            lam
            for lam in learner.LAMBDA_GRID
            if learner.accuracy(
                learner.predict(learner.fit_krr(k_train, args[1], lam), k_val)[1],
                args[3],
            )
            == best.accuracy
        ]
        assert len(tied) >= 2 and best.ridge == min(tied)

    def test_decomposes_once_per_gamma(self, monkeypatch):
        calls = []
        eig_sym = linalg.eig_sym

        def spy(m):
            calls.append(m)
            return eig_sym(m)

        monkeypatch.setattr(linalg, "eig_sym", spy)
        x, y = noisy_circle_data(7, 30, 2)
        learner.grid_search_rbf(x[:15], y[:15], x[15:], y[15:])
        assert len(calls) == len(learner.GAMMA_GRID)

    def test_forms_no_matrix_per_ridge(self, monkeypatch):
        calls = []
        reconstruct = linalg.EigenDecomposition.reconstruct

        def spy(dec, *args):
            calls.append(dec)
            return reconstruct(dec, *args)

        monkeypatch.setattr(linalg.EigenDecomposition, "reconstruct", spy)
        x, y = noisy_circle_data(7, 30, 2)
        learner.grid_search_rbf(x[:15], y[:15], x[15:], y[15:])
        assert calls == []

    @pytest.mark.parametrize("which, rows, labels", [
        ("train", 15, 14), ("validation", 15, 1),
    ])
    def test_label_count_must_match_rows(self, which, rows, labels):
        x, y = noisy_circle_data(10, 30, 2)
        args = [x[:15], y[:15], x[15:], y[15:]]
        args[1 if which == "train" else 3] = y[:labels]
        with pytest.raises(ValueError) as got:
            learner.grid_search_rbf(*args)
        assert str(got.value) == f"{which} set has {rows} rows, {labels} labels"

    def test_singular_ridge_error_reads_as_fit_krr(self, monkeypatch):
        monkeypatch.setattr(learner, "LAMBDA_GRID", (0.5, 0.0))
        x, y = noisy_circle_data(8, 12, 2)
        x[1] = x[0]
        y[1] = y[0]
        scale = 1.0 / (x.shape[1] * learner.pooled_variance(x))
        k_train = kernels.rbf_gram(x, learner.GAMMA_GRID[0] * scale)
        with pytest.raises(linalg.SingularMatrixError) as want:
            learner.fit_krr(k_train, y, 0.0)
        with pytest.raises(linalg.SingularMatrixError) as ref:
            grid_search_rbf_reference(x, y, x, y)
        with pytest.raises(linalg.SingularMatrixError) as got:
            learner.grid_search_rbf(x, y, x, y)
        assert str(got.value) == str(ref.value) == str(want.value)
        assert str(got.value).endswith(
            "; calibrate the kernel to PSD or increase the ridge"
        )

    def test_non_finite_features_rejected(self):
        x, y = noisy_circle_data(9, 10, 2)
        x[3, 1] = np.nan
        with pytest.raises(ValueError) as ref:
            grid_search_rbf_reference(x, y, x, y)
        with pytest.raises(ValueError) as got:
            learner.grid_search_rbf(x, y, x, y)
        assert type(got.value) is type(ref.value) is ValueError
        assert str(got.value) == str(ref.value) == "matrix has non-finite entries"

    def test_zero_variance_rejected(self):
        x = np.ones((4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="[Vv]ar"):
            learner.grid_search_rbf(x, y, x, y)

    def test_validation_split_halves_are_disjoint(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(11, 2))
        y = np.where(rng.normal(size=11) > 0, 1.0, -1.0)
        xf, yf, xv, yv = learner.validation_split(x, y, seed=3)
        assert xf.shape[0] + xv.shape[0] == 11
        # same seed reproduces the same split
        xf2, _, _, _ = learner.validation_split(x, y, seed=3)
        assert np.array_equal(xf, xf2)
