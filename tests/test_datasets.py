import numpy as np
import pytest

from qksim import datasets, kernels, linalg

from oracles import covariance_eigensolve


class TestCsvIO:
    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n0.5,-0.25,1\n0.125,2,-1\n")
        ds = datasets.load_csv(path)
        assert ds.n == 2 and ds.dim == 2
        assert np.array_equal(ds.labels, [1, -1])
        assert ds.features[1, 1] == 2.0

    def test_zero_one_labels_remap(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\n2.0,1\n")
        ds = datasets.load_csv(path)
        assert np.array_equal(ds.labels, [-1, 1])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = datasets.Dataset(
            features=rng.normal(size=(7, 3)),
            labels=np.array([1, -1, 1, 1, -1, -1, 1]),
        )
        path = tmp_path / "d.csv"
        datasets.save_csv(ds, path, meta={"seed": 0})
        back = datasets.load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert path.with_suffix(".csv.json").exists()

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,1\nbogus,1\n")
        with pytest.raises(ValueError, match="line 3"):
            datasets.load_csv(path)

    def test_unknown_label_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,7\n")
        with pytest.raises(ValueError, match="label"):
            datasets.load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            datasets.load_csv(path)


class TestPca:
    def test_diagonal_covariance_is_identity_map(self):
        # data already expressed in its principal basis (diagonal sample
        # covariance, centered) projects onto itself
        rng = np.random.default_rng(1)
        raw = np.column_stack(
            [rng.normal(scale=3.0, size=40), rng.normal(scale=1.0, size=40)]
        )
        x = datasets.pca(raw, 2)
        out = datasets.pca(x, 2)
        assert np.max(np.abs(np.abs(out) - np.abs(x))) <= 1e-10

    def test_rank_one_reconstruction(self):
        base = np.outer(np.arange(6, dtype=float), np.array([1.0, 2.0, -1.0]))
        out = datasets.pca(base, 1)
        # single component captures everything: reprojecting loses nothing
        centered = base - base.mean(axis=0)
        assert np.allclose(
            np.linalg.norm(centered, "fro") ** 2,
            np.linalg.norm(out, "fro") ** 2,
            rtol=1e-12,
        )

    def test_explained_variance_matches_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 6))
        out = datasets.pca(x, 2)
        vals, _ = covariance_eigensolve(x)
        got = np.var(out, axis=0, ddof=1)
        assert np.max(np.abs(got - vals[:2])) <= 1e-9

    def test_orthonormal_projection(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(15, 4))
        centered = x - x.mean(axis=0)
        cov = linalg.sym_matrix(centered.T @ centered / 14)
        vecs = linalg.eig_sym(cov).eigenvectors[:, :2]
        assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) <= 1e-10

    def test_rank_deficient_request_rejected(self):
        base = np.outer(np.arange(5, dtype=float), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="rank"):
            datasets.pca(base, 2)


class TestSynthetic:
    def test_same_seed_identical(self):
        a = datasets.generate_synthetic(10, 3, seed=5)
        b = datasets.generate_synthetic(10, 3, seed=5)
        assert np.array_equal(a.features, b.features)

    def test_different_seeds_differ(self):
        a = datasets.generate_synthetic(10, 3, seed=5)
        b = datasets.generate_synthetic(10, 3, seed=6)
        assert not np.array_equal(a.features, b.features)

    def test_range(self):
        ds = datasets.generate_synthetic(10**5, 1, seed=0)
        assert ds.features.min() >= -1.0 and ds.features.max() <= 1.0

    def test_placeholder_labels(self):
        ds = datasets.generate_synthetic(4, 2, seed=1)
        assert np.all(ds.labels == 1)


def pool_kernels(n_pool=16, seed=0):
    ds = datasets.generate_synthetic(n_pool, 2, seed=seed)
    q = kernels.gram_ideal(ds.features).matrix
    gamma = 1.0 / (2 * np.var(ds.features))
    k = kernels.rbf_gram(ds.features, gamma).matrix
    return ds, q, k


class TestRelabel:
    def test_median_threshold_example(self):
        # scores (0.3, -0.2, 0.5, 0.1): median 0.2 -> (+1, -1, +1, -1)
        scores = np.array([0.3, -0.2, 0.5, 0.1])
        med = np.median(scores)
        assert med == pytest.approx(0.2)
        labels = np.where(scores > med, 1, -1)
        assert np.array_equal(labels, [1, -1, 1, -1])

    def test_balance(self):
        for seed in range(10):
            _, q, k = pool_kernels(n_pool=15, seed=seed)
            labels = datasets.relabel_for_advantage(q, k, ridge=1e-8)
            assert abs(int(np.sum(labels == 1)) - int(np.sum(labels == -1))) <= 1

    def test_degenerate_equal_kernels_still_balanced(self):
        _, q, _ = pool_kernels(n_pool=12, seed=3)
        labels = datasets.relabel_for_advantage(q, q, ridge=1e-8)
        assert abs(int(np.sum(labels == 1)) - int(np.sum(labels == -1))) <= 1

    def test_rayleigh_dominance_over_random_directions(self):
        # the continuous score vector beats 10^4 random unit directions
        rng = np.random.default_rng(4)
        for trial in range(5):
            b = rng.normal(size=(8, 8))
            k = linalg.sym_matrix(b.T @ b) + 0.1 * np.eye(8)
            c = rng.normal(size=(8, 8))
            q = linalg.sym_matrix(c.T @ c) + 0.1 * np.eye(8)
            core = linalg.sym_matrix(
                linalg.mat_sqrt_psd(q) @ linalg.inv_ridge(k, 0.0) @ linalg.mat_sqrt_psd(q)
            )
            top = linalg.eig_sym(core).eigenvalues[0]
            w = rng.normal(size=(8, 10**4))
            rayleigh = np.sum(w * (core @ w), axis=0) / np.sum(w * w, axis=0)
            assert np.max(rayleigh) <= top + 1e-9

    def test_engineered_labels_beat_random_median(self):
        # pipeline instance: engineered labels dominate the median of random
        # balanced labelings in the complexity ratio.  Evaluated at ridge 0.1:
        # the two-feature encoding spans at most a 16-dimensional state space,
        # so Q on a 40-point pool is singular and the lambda -> 0 ratio is
        # dominated by each label vector's out-of-range mass.
        ridge = 0.1
        for seed in (0, 1, 2, 3, 7):
            ds, q, k = pool_kernels(n_pool=40, seed=seed)
            y_star = datasets.relabel_for_advantage(q, k, ridge=ridge)
            g_star = kernels.geometric_difference(k, q, y_star, ridge)
            rng = np.random.default_rng(11)
            ratios = []
            base = np.array([1] * 20 + [-1] * 20)
            for _ in range(100):
                y = base[rng.permutation(40)].astype(float)
                ratios.append(kernels.geometric_difference(k, q, y, ridge))
            assert g_star >= np.median(ratios), seed


class TestSplit:
    def test_all_train(self):
        ds = datasets.generate_synthetic(8, 2, seed=0)
        out = datasets.split(ds, 8, 0, seed=1)
        assert np.array_equal(np.sort(out.train_indices), np.arange(8))
        assert out.test_indices.size == 0

    def test_same_seed_same_split(self):
        ds = datasets.generate_synthetic(20, 2, seed=0)
        a = datasets.split(ds, 12, 8, seed=5)
        b = datasets.split(ds, 12, 8, seed=5)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)

    def test_disjoint_and_exact_sizes(self):
        ds = datasets.generate_synthetic(30, 2, seed=0)
        for seed in range(100):
            out = datasets.split(ds, 18, 12, seed=seed)
            assert out.train_indices.size == 18
            assert out.test_indices.size == 12
            assert not set(out.train_indices) & set(out.test_indices)

    def test_insufficient_rows(self):
        ds = datasets.generate_synthetic(5, 2, seed=0)
        with pytest.raises(ValueError):
            datasets.split(ds, 4, 2, seed=0)
