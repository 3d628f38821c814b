import numpy as np
import pytest

from qksim import cli, datasets, kernels, learner, linalg
from qksim.rng import stream

from oracles import covariance_eigensolve, relabel_reference


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

    @pytest.mark.parametrize("labels, line, token, first", [
        ("1,0,-1", 4, "-1", "line 3: '0'"),
        ("-1,1,0", 4, "0", "line 2: '-1'"),
        ("0.0,-1.0", 3, "-1.0", "line 2: '0.0'"),
    ])
    def test_mixed_label_conventions_rejected(self, tmp_path, labels, line, token, first):
        path = tmp_path / "d.csv"
        rows = "".join(f"{k}.5,{v}\n" for k, v in enumerate(labels.split(",")))
        path.write_text("f0,label\n" + rows)
        with pytest.raises(ValueError) as got:
            datasets.load_csv(path)
        assert str(got.value) == (
            f"{path}: line {line}: label {token!r} mixes 0/1 and +/-1 labels ({first})"
        )

    def test_unknown_label_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,7\n")
        with pytest.raises(ValueError, match="label"):
            datasets.load_csv(path)

    def test_a_leading_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbff0,label\n0.5,1\n-2,-1\n")
        ds = datasets.load_csv(path)
        assert np.array_equal(ds.features, [[0.5], [-2.0]])
        assert np.array_equal(ds.labels, [1, -1])

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

    def test_an_overflowing_covariance_is_rejected_by_eig_sym(self):
        # sym_matrix checks nothing; eig_sym's check_symmetric rejects the
        # infinite covariance
        x = np.array([[1e200, 0.0, 1.0], [-1e200, 1.0, 0.0], [0.0, 2.0, 2.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="^matrix has non-finite entries$"
        ) as got:
            datasets.pca(x, 2)
        assert [entry.name for entry in got.traceback[-2:]] == [
            "eig_sym", "check_symmetric",
        ]


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

    def test_median_ties_are_promoted_in_index_order(self):
        # Q = I and a diagonal K give the exact score vector e_3 (the smallest
        # k): the seven zeros tie at the median 0, and the first three by index
        # join index 3 on +1
        k = np.diag([3.0, 2.0, 5.0, 1.5, 4.0, 6.0, 2.5, 7.0])
        labels = datasets.relabel_for_advantage(np.eye(8), k, ridge=0.0)
        assert labels.tolist() == [1, 1, 1, 1, -1, -1, -1, -1]

    def test_median_ties_are_promoted_by_score_then_index(self, monkeypatch):
        # the scores are v; median 0.25 leaves two entries above it, so two
        # of the -1 entries are promoted: the tied 0.25s at indices 2 and 4,
        # not index 1 (0.1) before them nor the tied index 6 after them
        v = np.array([0.5, 0.1, 0.25, -0.5, 0.25, 0.0, 0.25, 0.75])
        monkeypatch.setattr(datasets, "_advantage_scores", lambda *args: v)
        labels = datasets.relabel_for_advantage(np.eye(8), np.eye(8))
        assert labels.tolist() == [1, -1, 1, -1, 1, -1, -1, 1]

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


def error_of(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return type(info.value), str(info.value)


class TestRelabelInQsEigenbasis:
    """Relabelling in Q's top ``min(4^N, n)`` eigenvectors against the n x n
    core matrix of ``oracles.relabel_reference``."""

    CASES = [
        (num_qubits, n, seed, ridge)
        for num_qubits in (1, 2, 3)
        for n in (4**num_qubits - 1, 4**num_qubits, 4**num_qubits + 1, 3 * 4**num_qubits)
        for seed in (0, 1, 2)
        for ridge in (1e-8, 1e-3)
    ] + [(12, 40, 0, 1e-8), (12, 40, 1, 1e-3)]

    @pytest.mark.parametrize("num_qubits, n, seed, ridge", CASES)
    def test_labels_equal_and_scores_agree_inside_the_margin(self, num_qubits, n, seed, ridge):
        feats = datasets.generate_synthetic(n, num_qubits, seed).features
        q = linalg.Spectrum(kernels.gram_ideal(feats))
        k = linalg.Spectrum(kernels.rbf_gram(feats, learner.rbf_gamma_unit(feats, 1.0)))
        want, ref = relabel_reference(q.matrix, k.matrix, ridge)
        got = datasets.relabel_for_advantage(q, k, ridge, rank=4**num_qubits)
        assert got.tolist() == want.tolist()
        scores = datasets._advantage_scores(q, k, ridge, 4**num_qubits)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(scores - ref)) <= 1e-8 * scale
        # the labels split the scores between the n//2-th and next largest;
        # a change below half that gap cannot move a label
        top = np.sort(ref)[::-1]
        assert top[n // 2 - 1] - top[n // 2] > 2e-8 * scale

    @pytest.mark.parametrize("rank", [None, 1, 4])
    def test_errors_read_as_the_reference_s(self, rank):
        # the PSD check covers all n eigenvalues of Q, also those past rank
        not_psd = np.diag([1.0, 0.5, 0.0, -0.5])
        singular = np.diag([1.0, 1.0, 1.0, 0.0])
        for q, k, ridge, kind in [(not_psd, np.eye(4), 1e-8, linalg.NotPSDError),
                                  (np.eye(4), singular, 0.0, linalg.SingularMatrixError),
                                  (np.eye(4), np.eye(4), -1.0, ValueError)]:
            want = error_of(lambda: relabel_reference(q, k, ridge))
            assert want[0] is kind
            assert error_of(
                lambda: datasets.relabel_for_advantage(q, k, ridge, rank=rank)
            ) == want

    def test_a_cell_decomposes_nothing_larger_than_4_to_the_n(self, monkeypatch):
        # an N=2 cell with a 24-row pool: relabelling decomposes Q's and K's
        # own Spectrums and one 16 x 16 core, and forms no n x n root or inverse
        config = cli.SweepConfig.from_dict(dict(
            dataset={"kind": "synthetic"}, num_qubits=2, train_sizes=[16],
            test_size=8, shots=["inf"], noise_rates=[0.0], methods=["clip"], seeds=[0],
        ))
        relabel, pool, sizes, refused = datasets.relabel_for_advantage, [], [], []

        def spy_relabel(q_all, k_all, *args, **kwargs):
            pool.extend([q_all.matrix, k_all.matrix])
            try:
                return relabel(q_all, k_all, *args, **kwargs)
            finally:
                pool.append(None)  # relabelling is over

        def spy_decomposition(fn):
            def spy(a, *args, **kwargs):
                if pool and pool[-1] is not None and not any(a is m for m in pool):
                    sizes.append(a.shape)
                return fn(a, *args, **kwargs)
            return spy

        def refuse(name, fn):
            def spy(*args, **kwargs):
                if pool and pool[-1] is not None:
                    refused.append(name)
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(datasets, "relabel_for_advantage", spy_relabel)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy_decomposition(getattr(np.linalg, name)))
        for name in ("inv_ridge", "mat_sqrt_psd"):
            monkeypatch.setattr(linalg, name, refuse(name, getattr(linalg, name)))
        cli.build_pool(config, 16, 0)
        assert len(pool) == 3 and pool[0].shape == (24, 24)
        assert (sizes, refused) == ([(16, 16)], [])


class TestSplit:
    def test_all_train(self):
        train, test = datasets.split(8, 8, 0, seed=1)
        assert np.array_equal(train, np.arange(8))
        assert test.size == 0

    def test_same_seed_same_split(self):
        a = datasets.split(20, 12, 8, seed=5)
        b = datasets.split(20, 12, 8, seed=5)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_disjoint_and_exact_sizes(self):
        for seed in range(100):
            train, test = datasets.split(30, 18, 12, seed=seed)
            assert train.size == 18
            assert test.size == 12
            assert not set(train) & set(test)

    def test_sorted_heads_of_the_split_stream_permutation(self):
        perm = stream(3, "split").permutation(30)
        train, test = datasets.split(30, 18, 7, seed=3)
        assert np.array_equal(train, np.sort(perm[:18]))
        assert np.array_equal(test, np.sort(perm[18:25]))

    def test_insufficient_rows(self):
        with pytest.raises(ValueError, match="cannot draw 4\\+2 rows from a pool of 5"):
            datasets.split(5, 4, 2, seed=0)
