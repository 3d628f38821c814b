import argparse
import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qksim import bounds, calibrate, cli, datasets, kernels, learner, linalg, qsim, rng


def small_config(**overrides):
    raw = {
        "dataset": {"kind": "synthetic"},
        "num_qubits": 2,
        "train_sizes": [8],
        "test_size": 8,
        "shots": [10, "inf"],
        "noise_rates": [0.0, 0.05],
        "methods": ["nearest"],
        "seeds": [0, 1],
        "output": None,
    }
    raw.update(overrides)
    return raw


def run_qksim(argv, **kwargs):
    """``python -m qksim *argv`` in a child interpreter on this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-B", "-m", "qksim", *argv],
        env=env, capture_output=True, text=True, timeout=120, **kwargs,
    )


class TestSweepConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown config keys"):
            cli.SweepConfig.from_dict(small_config(shotz=[1]))

    def test_missing_keys_rejected(self):
        raw = small_config()
        del raw["seeds"]
        with pytest.raises(cli.ConfigError, match="missing"):
            cli.SweepConfig.from_dict(raw)

    def test_bad_method_rejected(self):
        with pytest.raises(cli.ConfigError, match="methods"):
            cli.SweepConfig.from_dict(small_config(methods=["sharpen"]))

    def test_bad_shots_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.SweepConfig.from_dict(small_config(shots=[0]))

    def test_bad_noise_rate_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.SweepConfig.from_dict(small_config(noise_rates=[1.5]))

    def test_empty_seeds_rejected(self):
        with pytest.raises(cli.ConfigError, match="seeds"):
            cli.SweepConfig.from_dict(small_config(seeds=[]))

    def test_bad_cross_mode_rejected(self):
        with pytest.raises(cli.ConfigError, match="cross_shots"):
            cli.SweepConfig.from_dict(small_config(cross_shots="sometimes"))

    def test_unknown_dataset_keys_rejected(self):
        with pytest.raises(cli.ConfigError, match="dataset"):
            cli.SweepConfig.from_dict(
                small_config(dataset={"kind": "synthetic", "scale": 2})
            )

    def test_inf_sentinel_parses(self):
        config = cli.SweepConfig.from_dict(small_config(shots=["inf", 5]))
        assert config.shots[0] == float("inf")
        assert config.shots[1] == 5

    @pytest.mark.parametrize("key, value, message", [
        ("bound_delta", 1.5, "bound_delta must be in (0, 1), got 1.5"),
        ("mixing", "bogus", "bad noise model: unknown mixing variant: 'bogus'"),
        ("layers", 0, "bad noise model: layers must be >= 1, got 0"),
        ("ridge", -1, "ridge must be >= 0, got -1.0"),
        ("nearest_delta", -0.5, "nearest_delta must be >= 0, got -0.5"),
        ("test_size", 0, "test_size must be >= 1, got 0"),
        ("relabel_gamma_scale", 0.0, "relabel_gamma_scale must be > 0, got 0.0"),
        ("output", 5, "output must be a path string or null, got 5"),
        ("train_sizes", ["x"],
         "bad train_sizes entry: invalid literal for int() with base 10: 'x'"),
        ("noise_rates", None, "bad noise_rates entry: expected a list, got NoneType"),
        ("seeds", "01", "bad seeds entry: expected a list, got str"),
        ("num_qubits", math.inf,
         "bad num_qubits entry: cannot convert float infinity to integer"),
        ("num_qubits", 2.7, "bad num_qubits entry: expected an integer, got 2.7"),
        ("num_qubits", True, "bad num_qubits entry: expected an integer, got True"),
        ("train_sizes", [8.5],
         "bad train_sizes entry: expected an integer, got 8.5"),
        ("test_size", 8.5, "bad test_size entry: expected an integer, got 8.5"),
        ("shots", [2.5], "bad shots entry: shot count must be an integer, got 2.5"),
        ("shots", [True],
         "bad shots entry: shot count must be an integer, got True"),
        ("seeds", [True], "bad seeds entry: expected an integer, got True"),
        ("seeds", [0.5], "bad seeds entry: expected an integer, got 0.5"),
        ("layers", 8.5, "bad layers entry: expected an integer, got 8.5"),
        ("ridge", math.inf, "bad ridge entry: expected a finite number, got inf"),
        ("nearest_delta", math.inf,
         "bad nearest_delta entry: expected a finite number, got inf"),
        ("relabel_gamma_scale", math.inf,
         "bad relabel_gamma_scale entry: expected a finite number, got inf"),
        ("dataset", {"kind": "csv", "path": 5}, "dataset path must be a string"),
        # booleans are not reals
        ("noise_rates", [True],
         "bad noise_rates entry: expected a finite number, got True"),
        ("ridge", True, "bad ridge entry: expected a finite number, got True"),
        ("nearest_delta", False,
         "bad nearest_delta entry: expected a finite number, got False"),
        ("relabel_gamma_scale", True,
         "bad relabel_gamma_scale entry: expected a finite number, got True"),
        # with no noise rate, layers and mixing still make one noise model
        pytest.param({"noise_rates": [], "layers": 0}, None,
                     "bad noise model: layers must be >= 1, got 0",
                     id="no-noise-rates-layers-0"),
        pytest.param({"noise_rates": [], "mixing": "bogus"}, None,
                     "bad noise model: unknown mixing variant: 'bogus'",
                     id="no-noise-rates-mixing-bogus"),
        # numpy's binomial takes a C long: this failed every finite-shot record
        ("shots", [10**19],
         "bad shots entry: shot count must be <= 2**63 - 1, got 10000000000000000000"),
        # a repeated grid value wrote its records twice; checked entries are
        # compared, so 0.0 and -0.0 or 10 and 10.0 repeat
        pytest.param({"seeds": [0, 0], "noise_rates": [0.0, -0.0]}, None,
                     "noise_rates must be distinct, got (0.0, -0.0)",
                     id="repeated-seeds-and-noise-rates"),
        ("seeds", [0, 1, 0], "seeds must be distinct, got (0, 1, 0)"),
        ("shots", [10, "inf", 10.0], "shots must be distinct, got (10, inf, 10)"),
        ("shots", ["inf", "inf"], "shots must be distinct, got (inf, inf)"),
        ("train_sizes", [8, 8.0], "train_sizes must be distinct, got (8, 8)"),
        ("methods", ["clip", "flip", "clip"],
         "methods must be distinct, got ('clip', 'flip', 'clip')"),
    ])
    def test_bad_value_fails_the_sweep_at_load(
        self, tmp_path, capsys, key, value, message
    ):
        # each of these used to load and then fail every record, crash, or
        # silently run another config; a dict ``key`` holds several overrides
        overrides = key if isinstance(key, dict) else {key: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(**overrides)))
        out = tmp_path / "r.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_integral_numbers_load_as_integers(self):
        config = cli.SweepConfig.from_dict(
            small_config(
                num_qubits=2.0, train_sizes=[8.0], test_size=8.0, shots=[10.0, "inf"],
                seeds=[0.0], layers=4.0,
            )
        )
        assert (config.num_qubits, config.train_sizes, config.test_size) == (2, (8,), 8)
        assert (config.shots, config.seeds, config.layers) == ((10, math.inf), (0,), 4)
        ints = [
            config.num_qubits, *config.train_sizes, config.test_size,
            config.shots[0], *config.seeds, config.layers,
        ]
        assert all(type(v) is int for v in ints)

    @pytest.mark.parametrize("raw", [[small_config()], "sweep", None])
    def test_non_object_config_rejected(self, raw):
        with pytest.raises(cli.ConfigError, match="config must be a JSON object"):
            cli.SweepConfig.from_dict(raw)

    def test_missing_keys_listed_in_field_order(self):
        raw = small_config()
        for key in ("seeds", "num_qubits", "shots"):
            del raw[key]
        with pytest.raises(cli.ConfigError) as info:
            cli.SweepConfig.from_dict(raw)
        want = "missing config keys: ['num_qubits', 'shots', 'seeds']"
        assert str(info.value) == want

    def test_defaults_come_from_the_fields(self):
        config = cli.SweepConfig.from_dict(small_config())
        for field in dataclasses.fields(cli.SweepConfig):
            if field.name not in small_config():
                assert getattr(config, field.name) == field.default


class TestRunSweep:
    def test_record_count(self):
        config = cli.SweepConfig.from_dict(small_config())
        records = cli.run_sweep(config)
        # |n| * |m| * |p~| * |methods| * |seeds| + |n| * |seeds| baselines
        assert len(records) == 1 * 2 * 2 * 1 * 2 + 1 * 2
        kinds = {r.kind for r in records}
        assert kinds == {cli.QUANTUM, cli.RBF_BASELINE}

    def test_records_sorted_by_coordinate(self):
        config = cli.SweepConfig.from_dict(small_config())
        records = cli.run_sweep(config)
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_error_captured_not_raised(self):
        # method "none" with few shots leaves an indefinite kernel that the
        # tiny default ridge cannot invert; the record carries the error
        config = cli.SweepConfig.from_dict(
            small_config(methods=["none"], shots=[5], noise_rates=[0.05])
        )
        records = cli.run_sweep(config)
        quantum = [r for r in records if r.kind == cli.QUANTUM]
        assert any(r.error for r in quantum)
        assert all(r.error is None for r in records if r.kind == cli.RBF_BASELINE)

    def test_accuracies_in_range(self):
        config = cli.SweepConfig.from_dict(small_config())
        for rec in cli.run_sweep(config):
            if rec.error is None:
                assert 0.0 <= rec.train_accuracy <= 1.0
                assert 0.0 <= rec.test_accuracy <= 1.0

    def test_pool_matches_its_unshared_reference(self):
        # build_pool checks and decomposes each pool kernel once for the labels
        # and the geometric difference; the reference does so for each reader
        config = cli.SweepConfig.from_dict(small_config(train_sizes=[8, 40]))
        for n in config.train_sizes:
            for seed in config.seeds:
                pool = cli.build_pool(config, n, seed)
                labels, geo = oracles.pool_labels_reference(config, n, seed)
                assert pool.labels.tobytes() == labels.tobytes()
                assert np.float64(pool.geometric_difference).tobytes() == (
                    np.float64(geo).tobytes()
                )

    def test_rbf_selection_never_sees_test_rows(self, monkeypatch):
        config = cli.SweepConfig.from_dict(small_config())
        pool = cli.build_pool(config, 8, 0)
        test_rows = {tuple(row) for row in pool.features[pool.test_idx]}
        seen = []
        original = learner.grid_search_rbf

        def spy(x_train, y_train, x_val, y_val):
            seen.extend(map(tuple, np.asarray(x_train)))
            seen.extend(map(tuple, np.asarray(x_val)))
            return original(x_train, y_train, x_val, y_val)

        monkeypatch.setattr(learner, "grid_search_rbf", spy)
        cli._rbf_record(config, {}, 8, 0)
        assert seen, "grid search was not exercised"
        assert not (set(seen) & test_rows)


def same_value(a, b) -> bool:
    """Exact equality, with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return type(a) is type(b) and a == b


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in cli.RESULT_FIELDS:
            va, vb = getattr(a, name), getattr(b, name)
            assert same_value(va, vb), (name, va, vb, a.sort_key())


def reference_sweep(config):
    """Every record built on its own, with no stage shared between records."""
    records = []
    for n in config.train_sizes:
        for seed in config.seeds:
            pool = cli.build_pool(config, n, seed)
            for m in config.shots:
                for p_tilde in config.noise_rates:
                    for method in config.methods:
                        records.append(
                            oracles.sweep_quantum_record(
                                config, pool, n, m, p_tilde, method, seed
                            )
                        )
            records.append(cli._rbf_record(config, {}, n, seed))
    records.sort(key=cli.ResultRecord.sort_key)
    return records


class TestStagedSweep:
    """Shared stages give the records of the unshared per-record pipeline."""

    @staticmethod
    def config(cross_shots):
        # "none" at 5 shots leaves indefinite kernels that fail in the fit
        return cli.SweepConfig.from_dict(
            small_config(
                shots=[5, "inf"],
                methods=["none", "clip", "shift"],
                cross_shots=cross_shots,
            )
        )

    @pytest.mark.parametrize("cross_shots", ["pipeline", "exact"])
    def test_matches_per_record_reference(self, cross_shots):
        config = self.config(cross_shots)
        records = cli.run_sweep(config)
        assert_same_records(records, reference_sweep(config))
        assert any(r.error for r in records)
        assert any(r.error is None for r in records if r.kind == cli.QUANTUM)

    @pytest.mark.parametrize(
        "module, name", [(kernels, "sample_cross"), (bounds, "theorem1_bound")]
    )
    def test_shared_stage_failure_keeps_earlier_fields(self, monkeypatch, module, name):
        def broken(*args, **kwargs):
            raise ValueError(f"{name} failed, on purpose")

        monkeypatch.setattr(module, name, broken)
        config = self.config("pipeline")
        records = cli.run_sweep(config)
        assert_same_records(records, reference_sweep(config))
        trained = [
            r for r in records if r.kind == cli.QUANTUM and r.train_accuracy is not None
        ]
        assert trained
        for rec in trained:
            assert rec.error == f"ValueError: {name} failed, on purpose"
            assert rec.dist_before is not None
            assert rec.breakdown_p is None
            assert (rec.c1 is not None) == (name == "theorem1_bound")

    def test_failed_ideal_terms_fail_the_bound_of_every_record(self, monkeypatch):
        ideal_terms = bounds.ideal_terms

        def broken(q, y, ridge=0.0):  # a kernel fails; the rest reach the real one
            if isinstance(q, np.ndarray):
                raise ValueError("ideal_terms failed, on purpose")
            return ideal_terms(q, y, ridge)

        monkeypatch.setattr(bounds, "ideal_terms", broken)
        config = self.config("pipeline")
        records = cli.run_sweep(config)
        assert_same_records(records, reference_sweep(config))
        trained = [r for r in records if r.c1 is not None and r.kind == cli.QUANTUM]
        assert trained
        for rec in trained:
            assert rec.error == "ValueError: ideal_terms failed, on purpose"
            assert rec.breakdown_p is None

    @pytest.mark.parametrize("module, name, level", [
        (cli, "build_pool", "cell"),
        (kernels, "sample_cross", "point"),
        (bounds, "ideal_terms", "cell"),
    ])
    def test_failing_shared_stage_runs_once_at_its_level(
        self, monkeypatch, module, name, level
    ):
        calls = []

        def broken(*args):
            calls.append(args)
            raise ValueError(f"{name} failed, on purpose")

        monkeypatch.setattr(module, name, broken)
        config = self.config("pipeline")
        records = cli.run_sweep(config)
        cells = len(config.train_sizes) * len(config.seeds)
        points = cells * len(config.shots) * len(config.noise_rates)
        assert len(calls) == {"cell": cells, "point": points}[level]
        if name == "build_pool":  # the unshared reference needs a pool
            errors = {r.error for r in records}
            assert errors == {"ValueError: build_pool failed, on purpose"}
            assert all(r.ridge is None for r in records)
        else:
            assert_same_records(records, reference_sweep(config))

    @pytest.mark.parametrize("corrupt", ["kernel", "reference", "reference-nan"])
    def test_failed_matrix_check_fails_at_calibration(self, monkeypatch, corrupt):
        build_pool, sample_shots = cli.build_pool, kernels.sample_shots

        def bad_pool(*args):
            pool = build_pool(*args)
            pool.q_train_ideal[0, 1] = np.nan if corrupt == "reference-nan" else 0.25
            return pool

        def bad_shots(qt, m, seed):
            out = sample_shots(qt, m, seed)
            if m == 5:
                out.matrix[0, 1] += 0.5
            return out

        if corrupt == "kernel":
            monkeypatch.setattr(kernels, "sample_shots", bad_shots)
        else:
            monkeypatch.setattr(cli, "build_pool", bad_pool)
        config = self.config("pipeline")
        records = cli.run_sweep(config)
        assert_same_records(records, reference_sweep(config))
        errors = {}
        for r in records:
            if r.kind == cli.QUANTUM:
                errors.setdefault(r.m, set()).add(r.error)
        if corrupt == "kernel":
            assert errors == {5: {"ValueError: kernel is not symmetric"}, "inf": {None}}
        elif corrupt == "reference":
            text = "ValueError: reference is not symmetric"
            assert errors == {5: {text}, "inf": {text}}
        else:  # at finite shots the NaN fails the shot sampler first
            text = "ValueError: reference has non-finite entries"
            assert errors["inf"] == {text}
            assert len(errors[5]) == 1 and errors[5] != {text}

    def test_failed_pool_fails_every_record_of_its_cell(self, tmp_path):
        ds = datasets.generate_synthetic(10, 2, 3)
        path = tmp_path / "small.csv"
        datasets.save_csv(ds, path)
        config = cli.SweepConfig.from_dict(
            small_config(
                dataset={"kind": "csv", "path": str(path)},
                train_sizes=[4, 8],
                test_size=6,
                methods=["clip", "nearest"],
            )
        )
        records = cli.run_sweep(config)
        assert all(r.error is None for r in records if r.n == 4)
        failed = [r for r in records if r.n == 8]
        assert len(failed) == 2 * 2 * 2 * 2 + 2
        error = "ConfigError: csv has 10 rows, need 14 for this sweep cell"
        for rec in failed:
            assert rec.error == error
            assert rec.ridge is None and rec.geometric_difference is None
            assert rec.train_accuracy is None

    def test_a_csv_dataset_is_read_and_projected_once_per_sweep(self, tmp_path, monkeypatch):
        # it was read and PCA-projected in every cell's build_pool
        ds = datasets.generate_synthetic(30, 3, 3)
        path = tmp_path / "wide.csv"
        datasets.save_csv(ds, path)
        config = cli.SweepConfig.from_dict(small_config(
            dataset={"kind": "csv", "path": str(path)}, train_sizes=[4, 8], test_size=6,
        ))
        rows = cli._csv_features(path, config.num_qubits)
        want = [cli.build_pool(config, n, seed, rows) for n in (4, 8) for seed in (0, 1)]
        with pytest.raises(TypeError, match="read once per sweep"):
            cli.build_pool(config, 4, 0)  # no cell reads the file on its own
        reads, projections, got = [], [], []
        load_csv, pca, build_pool = datasets.load_csv, datasets.pca, cli.build_pool

        def spy_load(p):
            reads.append(p)
            return load_csv(p)

        def spy_pca(x, k):
            projections.append(k)
            return pca(x, k)

        def spy_pool(*args):
            got.append(build_pool(*args))
            return got[-1]

        monkeypatch.setattr(datasets, "load_csv", spy_load)
        monkeypatch.setattr(datasets, "pca", spy_pca)
        monkeypatch.setattr(cli, "build_pool", spy_pool)
        records = cli.run_sweep(config)
        assert (reads, projections) == ([str(path)], [2])
        assert all(r.error is None for r in records)
        assert [pool.features.tobytes() for pool in got] == [
            pool.features.tobytes() for pool in want
        ]

    def test_each_stage_runs_once_where_it_varies(self, monkeypatch):
        calls = {"shots": [], "cross": [], "encoded_cross": [], "c1": [], "q_inv": []}
        sample_shots, sample_cross = kernels.sample_shots, kernels.sample_cross
        quantum_cross, feature_states = kernels.quantum_cross, qsim.feature_states
        model_complexity_c1 = learner.model_complexity_c1
        inv_ridge = linalg.inv_ridge
        encoded, families = [], {}

        def seed_of(role, n, m, seed):
            """The int seed of a call; a finite-shot call gets its cell's family."""
            if m is kernels.INF_SHOTS:
                return seed
            assert isinstance(seed, rng.EntryStreams) and seed.role == role
            families.setdefault((role, n, seed.seed), []).append(seed)
            return seed.seed

        def spy_shots(qt, m, seed):
            calls["shots"].append((qt.dim, seed_of("shots", qt.dim, m, seed), m,
                                   qt.params["p_tilde"]))
            return sample_shots(qt, m, seed)

        def spy_quantum_cross(x_train, x_test, *args):
            calls["encoded_cross"].append((len(x_train), np.asarray(x_train).tobytes()))
            return quantum_cross(x_train, x_test, *args)

        def spy_cross(fid, noise, num_qubits, m, seed):
            calls["cross"].append((fid.shape[1], seed_of("cross", fid.shape[1], m, seed),
                                   m, noise.rate_per_layer))
            return sample_cross(fid, noise, num_qubits, m, seed)

        def spy_encode(x_rows):
            encoded.append(len(x_rows))
            return feature_states(x_rows)

        def spy_c1(q, y, ridge):
            if ridge == config.ridge:  # the RBF baseline's c1 uses a grid ridge
                calls["c1"].append((len(y), linalg.as_matrix(q).tobytes()))
            return model_complexity_c1(q, y, ridge)

        def spy_inv(m, ridge=0.0):
            if ridge == 0.0:  # the bound inverts the already ridged ideal kernel
                q = linalg.as_matrix(m)  # an array or a Spectrum
                calls["q_inv"].append((len(q), q.tobytes()))
            return inv_ridge(m, ridge)

        monkeypatch.setattr(kernels, "sample_shots", spy_shots)
        monkeypatch.setattr(kernels, "quantum_cross", spy_quantum_cross)
        monkeypatch.setattr(kernels, "sample_cross", spy_cross)
        monkeypatch.setattr(qsim, "feature_states", spy_encode)
        monkeypatch.setattr(learner, "model_complexity_c1", spy_c1)
        monkeypatch.setattr(linalg, "inv_ridge", spy_inv)
        config = cli.SweepConfig.from_dict(
            small_config(train_sizes=[6, 8], methods=["clip", "flip", "nearest"])
        )
        cli.run_sweep(config)
        coords = {
            (n, seed, m, p)
            for n in config.train_sizes
            for seed in config.seeds
            for m in config.shots
            for p in config.noise_rates
        }
        # at noise rate 0 and exact shots W is Q, so that point samples nothing
        exact = {c for c in coords if c[2] is kernels.INF_SHOTS and c[3] == 0.0}
        assert exact
        assert sorted(calls["shots"], key=str) == sorted(coords - exact, key=str)
        assert sorted(calls["cross"], key=str) == sorted(coords, key=str)
        # one stream family per role and cell, shared by its finite-shot points
        cells = len(config.train_sizes) * len(config.seeds)
        assert len(families) == 2 * cells
        assert all(len({id(f) for f in fs}) == 1 for fs in families.values())
        assert len(calls["c1"]) == len(set(calls["c1"])) == 2 * 2
        # per cell the pool rows are encoded once, for the pool Gram matrix;
        # the cross block is sliced from it, so no row is encoded again
        assert calls["encoded_cross"] == []
        pools = [n + config.test_size for n in config.train_sizes for _ in config.seeds]
        assert sorted(encoded) == sorted(pools)
        assert len(calls["q_inv"]) == len(set(calls["q_inv"])) == 2 * 2

    def test_exact_point_w_is_q_and_takes_q_spectrum(self, monkeypatch):
        # the fact the sweep relies on: at rate 0 and exact shots the sampled
        # kernel has Q's bytes, so the sweep hands Q's own Spectrum to the repair
        calibrate_and_report = calibrate.calibrate_and_report
        seen = []

        def spy_report(q, w, method, delta=0.0):
            seen.append(w is q)
            return calibrate_and_report(q, w, method, delta)

        for mixing in kernels.MIXINGS:
            for p_tilde in (0.0, -0.0, 1e-300):
                config = cli.SweepConfig.from_dict(small_config(
                    shots=["inf"], noise_rates=[p_tilde], mixing=mixing, seeds=[0]
                ))
                noise = kernels.NoiseModel(p_tilde, config.layers, mixing)
                assert noise.rate == 0.0
                pool = cli.build_pool(config, 8, 0)
                w = cli._sampled_kernel(config, pool, noise, kernels.INF_SHOTS, 0)
                assert w.tobytes() == pool.q_train_ideal.tobytes()
                seen.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(calibrate, "calibrate_and_report", spy_report)
                    records = cli.run_sweep(config)
                assert seen == [True]
                assert all(r.error is None for r in records)

    def test_each_spectrum_is_computed_once_where_it_varies(self, monkeypatch):
        sampled, references, repairs, rbf_grams = [], [], [], []
        pool_qs, eig_sym_calls, eigvalsh_calls, checks = [], [], [], []
        sample_shots, build_pool = kernels.sample_shots, cli.build_pool
        rbf_gram, gram_ideal = kernels.rbf_gram, kernels.gram_ideal
        calibrate_and_report = calibrate.calibrate_and_report
        eig_sym, eigvalsh = linalg.eig_sym, np.linalg.eigvalsh
        check_symmetric = linalg.check_symmetric

        def spy_shots(qt, m, seed):
            out = sample_shots(qt, m, seed)
            sampled.append(out.matrix.copy())
            return out

        def spy_pool(*args):
            pool = build_pool(*args)
            references.append(pool.q_train_ideal.tobytes())
            return pool

        def spy_report(q, w, method, delta=0.0):
            repaired, report = calibrate_and_report(q, w, method, delta)
            repairs.append((repaired is w, repaired.matrix.tobytes()))
            return repaired, report

        def spy_rbf(x, gamma):
            out = rbf_gram(x, gamma)
            rbf_grams.append((len(x), out.matrix.tobytes()))
            return out

        def spy_gram_ideal(x):
            out = gram_ideal(x)
            pool_qs.append(out.matrix.tobytes())
            return out

        def spy_eig_sym(m):  # m may be a Spectrum
            eig_sym_calls.append(linalg.as_matrix(m).tobytes())
            return eig_sym(m)

        def spy_check(m, name="matrix"):
            checks.append(linalg.as_matrix(m).tobytes())
            return check_symmetric(m, name)

        def spy_eigvalsh(a, UPLO="L"):
            eigvalsh_calls.append(np.asarray(a).tobytes())
            return eigvalsh(a, UPLO)

        monkeypatch.setattr(kernels, "sample_shots", spy_shots)
        monkeypatch.setattr(cli, "build_pool", spy_pool)
        monkeypatch.setattr(calibrate, "calibrate_and_report", spy_report)
        monkeypatch.setattr(kernels, "rbf_gram", spy_rbf)
        monkeypatch.setattr(kernels, "gram_ideal", spy_gram_ideal)
        monkeypatch.setattr(linalg, "eig_sym", spy_eig_sym)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
        monkeypatch.setattr(linalg, "check_symmetric", spy_check)
        config = cli.SweepConfig.from_dict(
            small_config(
                train_sizes=[6, 8], shots=[5, 20], methods=list(calibrate.METHODS)
            )
        )
        records = cli.run_sweep(config)
        assert all(r.dist_before is not None for r in records if r.kind == cli.QUANTUM)
        sampled = [w.tobytes() for w in sampled]
        assert len(set(sampled)) == len(sampled) == 2 * 2 * 2 * 2
        assert len(set(references)) == len(references) == 2 * 2
        # a repair at its fixed point returns W's own Spectrum, whose report and
        # fit take W's eigvalsh and eig_sym; any other repair is one new Spectrum
        # that carries W's eigenvectors, so nothing decomposes it again
        assert any(kept for kept, _ in repairs)
        assert all((r in sampled) == kept for kept, r in repairs)
        for w in sampled:
            assert eig_sym_calls.count(w) == eigvalsh_calls.count(w) == 1
        changed = [r for kept, r in repairs if not kept]
        assert changed and len(set(changed)) == len(changed)
        for r in changed:
            assert checks.count(r) == eigvalsh_calls.count(r) == 1
            assert eig_sym_calls.count(r) == 0
        for q in references:
            assert eigvalsh_calls.count(q) == 1
            assert eig_sym_calls.count(q) <= 1
        # the final RBF kernel on the n training rows, shared by the fit and c1
        finals = [k for rows, k in rbf_grams if rows in config.train_sizes]
        assert len(set(finals)) == len(finals) == 2 * 2
        for k in finals:
            assert eig_sym_calls.count(k) == 1
        # each cell's pool Q and K, shared by the labels and the geometric difference
        pool_rows = {n + config.test_size for n in config.train_sizes}
        pool_ks = [k for rows, k in rbf_grams if rows in pool_rows]
        assert len(set(pool_qs)) == len(pool_qs) == 2 * 2
        assert len(set(pool_ks)) == len(pool_ks) == 2 * 2
        for k in pool_qs + pool_ks:
            assert eig_sym_calls.count(k) == 1
        # each matrix a Spectrum wraps is checked once, by the Spectrum: its
        # decomposition does not check it again
        for m in sampled + changed + references + finals + pool_qs + pool_ks:
            assert checks.count(m) == 1


class TestCrossBlock:
    """The sweep's ideal cross block is the test x train block of the pool Gram
    matrix, which encodes every pool row once."""

    @staticmethod
    def pool(num_qubits, n, test_size, seed=0):
        config = cli.SweepConfig.from_dict(
            small_config(num_qubits=num_qubits, train_sizes=[n], test_size=test_size)
        )
        return cli.build_pool(config, n, seed)

    @staticmethod
    def fidelities(pool):
        return oracles.with_cross_fidelity(pool).q_cross_ideal

    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_cross_fidelity_bit_for_bit(self, num_qubits, seed):
        pool = self.pool(num_qubits, n=40, test_size=20, seed=seed)
        assert pool.q_cross_ideal.shape == (20, 40)
        assert np.array_equal(pool.q_cross_ideal, self.fidelities(pool))

    def test_wide_states_agree_to_round_off(self):
        # at N=12 a row's amplitudes depend on the rows encoded with it (BLAS
        # blocking in the phase table), so the two blocks may differ in the
        # last bits: 51 of these 1800 entries do with scipy-openblas 0.3.31
        pool = self.pool(12, n=60, test_size=30)
        gap = np.abs(pool.q_cross_ideal - self.fidelities(pool))
        assert float(np.max(gap)) <= 1e-15

    def test_wide_sweep_matches_the_cross_fidelity_path(self, monkeypatch):
        config = cli.SweepConfig.from_dict(
            small_config(
                num_qubits=12, train_sizes=[60], test_size=30, shots=[10, "inf"],
                methods=["clip", "nearest"],
            )
        )
        records = cli.run_sweep(config)
        build_pool = cli.build_pool
        monkeypatch.setattr(
            cli, "build_pool", lambda *args: oracles.with_cross_fidelity(build_pool(*args))
        )
        assert_same_records(records, cli.run_sweep(config))


class TestSweepMetamorphic:
    """A sweep is the union of the sweeps over the parts of any one split grid
    axis, and does not depend on the order of the config lists."""

    LISTS = dict(
        train_sizes=[6, 10],
        test_size=6,
        seeds=[0, 1],
        shots=[5, 50, "inf"],
        noise_rates=[0.0, 0.05],
        methods=list(calibrate.METHODS),
    )

    @staticmethod
    def file_bytes(records, path):
        cli.emit_results(sorted(records, key=cli.ResultRecord.sort_key), path, "csv")
        return path.read_bytes()

    def sweep(self, **overrides):
        raw = small_config(**dict(self.LISTS, **overrides))
        return cli.run_sweep(cli.SweepConfig.from_dict(raw))

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        return self.file_bytes(self.sweep(), tmp_path_factory.mktemp("full") / "r.csv")

    @pytest.mark.parametrize(
        "axis", ["train_sizes", "seeds", "shots", "noise_rates", "methods"]
    )
    def test_split_axis_merges_to_the_full_sweep(self, full, tmp_path, axis):
        values = self.LISTS[axis]
        # a cell's RBF row does not depend on shots, noise or method: keep one
        per_cell = axis in ("train_sizes", "seeds")
        merged = []
        for k, value in enumerate(values):
            for rec in self.sweep(**{axis: [value]}):
                if k == 0 or per_cell or rec.kind == cli.QUANTUM:
                    merged.append(rec)
        assert self.file_bytes(merged, tmp_path / "r.csv") == full

    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_fits_on_w_eigenbasis_give_the_refit_file(
        self, tmp_path, monkeypatch, num_qubits
    ):
        # a repair's fit on W's eigenvectors changes only the last bits of its
        # dual coefficients: the file equals that of a sweep whose repairs are
        # decomposed afresh
        got = self.file_bytes(self.sweep(num_qubits=num_qubits), tmp_path / "a.csv")
        monkeypatch.setattr(calibrate, "repair", oracles.repair_refit_reference)
        records = self.sweep(num_qubits=num_qubits)
        assert self.file_bytes(records, tmp_path / "b.csv") == got

    def test_reversed_lists_give_the_same_file(self, full, tmp_path):
        reversed_lists = {
            key: value[::-1] for key, value in self.LISTS.items()
            if isinstance(value, list)
        }
        records = self.sweep(**reversed_lists)
        assert self.file_bytes(records, tmp_path / "r.csv") == full

    # tiny N=2 grids, each axis a nonempty subset of its values; noise rate
    # 1e-300 folds to 0, so it lands on the exact point like 0.0 does
    GRIDS = st.fixed_dictionaries({
        axis: st.lists(st.sampled_from(values), min_size=1, unique=True)
        for axis, values in dict(
            train_sizes=[4, 6],
            seeds=[0, 1],
            shots=[5, 40, "inf"],
            noise_rates=[0.0, 1e-300, 0.05],
            methods=list(calibrate.METHODS + (calibrate.NONE,)),
        ).items()
    })

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        grid=GRIDS,
        mixing=st.sampled_from(kernels.MIXINGS),
        cross_shots=st.sampled_from(["pipeline", "exact"]),
        data=st.data(),
    )
    def test_generated_grids_split_reverse_and_round_trip(
        self, grid, mixing, cross_shots, data
    ):
        def sweep(**lists):
            raw = small_config(
                test_size=4, mixing=mixing, cross_shots=cross_shots,
                **dict(grid, **lists),
            )
            return cli.run_sweep(cli.SweepConfig.from_dict(raw))

        full = sweep()
        axes = sorted(axis for axis, values in grid.items() if len(values) > 1)
        if axes:  # split one axis in two and merge the halves' records
            axis = data.draw(st.sampled_from(axes))
            cut = data.draw(st.integers(1, len(grid[axis]) - 1))
            per_cell = axis in ("train_sizes", "seeds")
            merged = []
            for k, part in enumerate((grid[axis][:cut], grid[axis][cut:])):
                merged += [
                    rec for rec in sweep(**{axis: part})
                    if k == 0 or per_cell or rec.kind == cli.QUANTUM
                ]
            assert_same_records(sorted(merged, key=cli.ResultRecord.sort_key), full)
        assert_same_records(sweep(**{a: v[::-1] for a, v in grid.items()}), full)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("csv", "json"):
                path = Path(tmp) / f"r.{fmt}"
                cli.emit_results(full, path, fmt)
                assert_same_records(cli.load_results(path), full)


class TestEmitResults:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.emit_results([], path, "csv")
        assert path.read_text() == ",".join(cli.RESULT_FIELDS) + "\n"

    def test_csv_round_trip(self, tmp_path):
        config = cli.SweepConfig.from_dict(small_config())
        records = cli.run_sweep(config)
        path = tmp_path / "r.csv"
        cli.emit_results(records, path, "csv")
        back = cli.load_results(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.kind == b.kind and a.m == b.m and a.seed == b.seed
            if a.test_accuracy is not None:
                assert b.test_accuracy == pytest.approx(a.test_accuracy)

    def test_json_round_trip_identical(self, tmp_path):
        config = cli.SweepConfig.from_dict(small_config())
        records = cli.run_sweep(config)
        path = tmp_path / "r.json"
        cli.emit_results(records, path, "json")
        back = cli.load_results(path)
        for a, b in zip(records, back):
            for name in cli.RESULT_FIELDS:
                va, vb = getattr(a, name), getattr(b, name)
                if isinstance(va, float) and va is not None:
                    assert vb == pytest.approx(va, rel=1e-15)
                else:
                    assert va == vb or (va is None and vb is None)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_of_awkward_values(self, tmp_path, fmt):
        records = [
            cli.ResultRecord(
                kind=cli.QUANTUM, n=3, n_test=2, m="inf", p_tilde=0.05,
                method="none", seed=1, c1=math.inf, min_eig_before=-math.inf,
                c2=math.nan, passed_lemma=False,
                error="ValueError: shapes (3,) and (4,) not aligned",
            ),
            cli.ResultRecord(
                kind=cli.QUANTUM, n=3, n_test=2, m=10, p_tilde=0.0,
                method="clip", seed=1, term_noise=math.inf, passed_lemma=True,
                error='RuntimeError: "quoted", then\na second line',
            ),
            cli.ResultRecord(
                kind=cli.QUANTUM, n=3, n_test=2, m=5, p_tilde=0.0,
                method="flip", seed=2, error="OSError: cr\rx",
            ),
            cli.ResultRecord(
                kind=cli.RBF_BASELINE, n=3, n_test=2, method="rbf-grid", seed=1,
                gamma=0.5, ridge=1e-8, test_accuracy=0.1,
            ),
        ]
        path = tmp_path / f"r.{fmt}"
        cli.emit_results(records, path, fmt)
        assert_same_records(cli.load_results(path), records)

    def test_comma_free_rows_are_plain_joins(self, tmp_path):
        rec = cli.ResultRecord(
            kind=cli.QUANTUM, n=3, n_test=2, m=5, p_tilde=0.5, method="clip",
            c1=math.nan, error="SingularMatrixError: singular system",
        )
        path = tmp_path / "r.csv"
        cli.emit_results([rec], path, "csv")
        row = ",".join(cli._format_cell(getattr(rec, f)) for f in cli.RESULT_FIELDS)
        header = ",".join(cli.RESULT_FIELDS)
        assert path.read_bytes() == f"{header}\n{row}\n".encode()

    def test_column_order_stable(self, tmp_path):
        path = tmp_path / "r.csv"
        cli.emit_results([], path, "csv")
        header = path.read_text().strip().split(",")
        assert header[:7] == ["kind", "n", "n_test", "m", "p_tilde", "method", "seed"]


class TestLoadResults:
    """``load_results`` reads back what ``emit_results`` writes, and nothing else."""

    RECORDS = [
        cli.ResultRecord(kind=cli.QUANTUM, n=3, n_test=2, m=10, p_tilde=0.0,
                         method="clip", seed=4, c1=math.nan, error="a, b"),
        cli.ResultRecord(kind=cli.RBF_BASELINE, n=3, n_test=2, method="rbf-grid",
                         seed=4, gamma=0.5, test_accuracy=0.5),
    ]

    def emit(self, tmp_path, fmt):
        path = tmp_path / f"r.{fmt}"
        cli.emit_results(self.RECORDS, path, fmt)
        return path

    @staticmethod
    def rejects(path, message):
        with pytest.raises(ValueError) as got:
            cli.load_results(path)
        assert str(got.value) == f"{path}: {message}"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, fmt):
        # a csv file failed with "unexpected keyword argument '\ufeffkind'",
        # a json one with "Unexpected UTF-8 BOM"
        path = self.emit(tmp_path, fmt)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert_same_records(cli.load_results(path), self.RECORDS)

    def test_a_short_csv_row_names_the_path_and_row(self, tmp_path):
        # it read back with seed = 0 and method = None
        path = self.emit(tmp_path, "csv")
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:5])
        path.write_text("\n".join(lines) + "\n")
        self.rejects(path, "row 2 does not have the results header's fields")

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_a_json_row_with_other_fields_names_the_path_and_row(self, tmp_path, change):
        # a missing field read back as its default, an unknown one was ignored
        path = self.emit(tmp_path, "json")
        rows = json.loads(path.read_text())
        if change == "drop":
            del rows[1]["seed"]
        else:
            rows[1]["extra"] = 1
        path.write_text(json.dumps(rows))
        self.rejects(path, "row 2 does not have the results header's fields")

    @pytest.mark.parametrize("header", [
        "kind,n", ",".join(cli.RESULT_FIELDS + ["extra"]), ",".join(cli.RESULT_FIELDS[::-1]),
    ], ids=["short", "unknown-column", "reordered"])
    def test_another_csv_header_is_rejected(self, tmp_path, header):
        path = self.emit(tmp_path, "csv")
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        self.rejects(path, "header is not the results header")

    def test_an_empty_csv_file_is_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        self.rejects(path, "header is not the results header")

    def test_a_field_over_the_csv_field_limit_is_rejected(self, tmp_path):
        path = self.emit(tmp_path, "csv")
        path.write_text(path.read_text().replace("a, b", "a" * 131073, 1))
        self.rejects(path, "field larger than field limit (131072)")

    def test_a_repeated_json_key_is_rejected(self, tmp_path):
        path = self.emit(tmp_path, "json")
        path.write_text(path.read_text().replace('"seed": 4', '"seed": 4, "seed": 5', 1))
        self.rejects(path, "not valid JSON: repeated key 'seed'")

    @pytest.mark.parametrize("text, message", [
        ('{"kind": "rbf"}', "not a JSON list of records"),
        ("[1]", "row 1 does not have the results header's fields"),
    ])
    def test_json_that_is_not_a_list_of_records_is_rejected(self, tmp_path, text, message):
        path = tmp_path / "r.json"
        path.write_text(text)
        self.rejects(path, message)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_bad_cell_names_the_path_and_row(self, tmp_path, fmt):
        path = self.emit(tmp_path, fmt)
        cell = {"csv": ",10,", "json": '"m": 10'}[fmt]
        bad = {"csv": ",ten,", "json": '"m": "ten"'}[fmt]
        path.write_text(path.read_text().replace(cell, bad, 1))
        self.rejects(path, "row 1: invalid literal for int() with base 10: 'ten'")

    @pytest.mark.parametrize("field, value, message", [
        ("n", 2.7, "invalid literal for int() with base 10: '2.7000000000000002'"),
        ("seed", True, "invalid literal for int() with base 10: 'true'"),
        ("n_test", None, "invalid literal for int() with base 10: ''"),
        ("passed_lemma", "yes",
         "passed_lemma must be one of ['true', 'false', ''], got 'yes'"),
        ("kind", 5, "kind must be one of ['quantum', 'rbf'], got '5'"),
        ("n", "1_0", "n '1_0' should read '10'"),
        ("test_accuracy", " 0.5", "test_accuracy ' 0.5' should read '0.5'"),
    ])
    def test_a_json_value_is_read_as_its_csv_text(self, tmp_path, field, value, message):
        # these read back as 2, 1, None, False, 5, 10 and 0.5
        path = self.emit(tmp_path, "json")
        rows = json.loads(path.read_text())
        rows[1][field] = value
        path.write_text(json.dumps(rows))
        self.rejects(path, f"row 2: {message}")

    @pytest.mark.parametrize("field, text, message", [
        ("passed_lemma", "yes",
         "passed_lemma must be one of ['true', 'false', ''], got 'yes'"),
        ("kind", "foo", "kind must be one of ['quantum', 'rbf'], got 'foo'"),
        ("n", "1_0", "n '1_0' should read '10'"),
        ("seed", "+0", "seed '+0' should read '0'"),
        ("train_accuracy", " 1 ", "train_accuracy ' 1 ' should read '1'"),
        ("p_tilde", "0.0", "p_tilde '0.0' should read '0'"),
        ("m", "010", "m '010' should read '10'"),
    ])
    def test_a_csv_cell_outside_its_texts_names_the_path_and_row(
        self, tmp_path, field, text, message
    ):
        # these read back as False, "foo", 10, 0, 1.0, 0.0 and 10, and the
        # file re-emitted as if it had never been edited
        path = self.emit(tmp_path, "csv")
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[cli.RESULT_FIELDS.index(field)] = text
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        self.rejects(path, f"row 1: {message}")


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        config = cli.SweepConfig.from_dict(small_config())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.emit_results(cli.run_sweep(config), a, "csv")
        cli.emit_results(cli.run_sweep(config), b, "csv")
        assert a.read_bytes() == b.read_bytes()


class TestCommands:
    def write_dataset(self, tmp_path, n=12, d=2, seed=3):
        ds = datasets.generate_synthetic(n, d, seed)
        labels = np.array([1, -1] * (n // 2))
        ds = datasets.Dataset(features=ds.features, labels=labels)
        path = tmp_path / "data.csv"
        datasets.save_csv(ds, path)
        return path

    def test_sweep_command_and_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        out = tmp_path / "results.csv"
        code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert out.exists()

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(small_config(bogus=1)))
        assert cli.main(["sweep", "--config", str(bad), "--out", str(out)]) == 1

    def test_kernel_calibrate_train_round_trip(self, tmp_path, capsys):
        data = self.write_dataset(tmp_path)
        ideal = tmp_path / "q.csv"
        sampled = tmp_path / "w.csv"
        assert cli.main([
            "kernel", "--data", str(data), "--num-qubits", "2",
            "--out", str(ideal),
        ]) == 0
        assert cli.main([
            "kernel", "--data", str(data), "--num-qubits", "2",
            "--p-tilde", "0.05", "--shots", "20", "--seed", "1",
            "--out", str(sampled),
        ]) == 0
        fixed = tmp_path / "wc.csv"
        assert cli.main([
            "calibrate", "--kernel", str(sampled), "--method", "clip",
            "--reference", str(ideal), "--out", str(fixed),
        ]) == 0
        report = json.loads(
            "".join(
                line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("wrote")
            )
        )
        assert report["method"] == "clip"
        assert report["dist_after"] <= report["dist_before"] * (1 + 1e-9)

        model_path = tmp_path / "model.json"
        assert cli.main([
            "train", "--kernel", str(fixed), "--data", str(data),
            "--ridge", "0.01", "--out", str(model_path),
        ]) == 0
        summary = json.loads(
            capsys.readouterr().out
        )
        assert 0.0 <= summary["train_accuracy"] <= 1.0
        assert model_path.exists()

    def test_sweep_seed_writes_the_full_sweeps_rows_of_that_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(seeds=[0, 1, 2])))
        full, one = tmp_path / "full.csv", tmp_path / "one.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(full)]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(one),
                         "--seed", "1"]) == 0
        header, *rows = full.read_bytes().splitlines(keepends=True)
        column = header.decode().rstrip("\n").split(",").index("seed")
        of_seed = [row for row in rows if row.decode().split(",")[column] == "1"]
        assert len(of_seed) == len(rows) // 3
        assert one.read_bytes() == b"".join([header, *of_seed])

    def test_calibrate_without_reference_writes_the_repair(self, tmp_path, capsys):
        data = self.write_dataset(tmp_path, n=16)
        sampled, fixed = tmp_path / "w.csv", tmp_path / "wc.csv"
        assert cli.main([
            "kernel", "--data", str(data), "--num-qubits", "2",
            "--p-tilde", "0.05", "--shots", "10", "--seed", "2", "--out", str(sampled),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "calibrate", "--kernel", str(sampled), "--method", "nearest",
            "--delta", "0.1", "--out", str(fixed),
        ]) == 0
        assert capsys.readouterr().out == f"wrote calibrated kernel to {fixed}\n"
        w = kernels.load_kernel(sampled)
        assert float(np.min(np.linalg.eigvalsh(w.matrix))) < 0.1  # the repair acts
        want = calibrate.repair(w.matrix, calibrate.NEAREST, 0.1).matrix
        got = kernels.load_kernel(fixed)
        assert got.matrix.tobytes() == want.tobytes()
        assert got.provenance == "calibrated:nearest"
        assert got.params == dict(w.params, method="nearest", delta=0.1)

    def test_train_with_cross_kernel_scores_the_test_rows(self, tmp_path, capsys):
        train = datasets.generate_synthetic(12, 2, 3)
        test = datasets.generate_synthetic(8, 2, 4)
        y_train, y_test = np.array([1, -1] * 6), np.array([1, 1, -1, 1, -1, -1, 1, -1])
        data, test_data = tmp_path / "data.csv", tmp_path / "test.csv"
        datasets.save_csv(datasets.Dataset(train.features, y_train), data)
        datasets.save_csv(datasets.Dataset(test.features, y_test), test_data)
        gram = kernels.gram_ideal(train.features)
        kernel, cross_path = tmp_path / "q.csv", tmp_path / "cross.csv"
        kernels.save_kernel(gram, kernel)
        cross = kernels.quantum_cross(train.features, test.features)
        linalg.save_matrix_csv(cross, cross_path)
        assert cli.main([
            "train", "--kernel", str(kernel), "--data", str(data), "--ridge", "0.01",
            "--cross", str(cross_path), "--test-data", str(test_data),
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        # the library on the matrices as the files hold them
        model = learner.fit_krr(kernels.load_kernel(kernel), y_train.astype(float), 0.01)
        _, pred = learner.predict(model, linalg.load_matrix_csv(cross_path))
        assert summary["test_accuracy"] == learner.accuracy(pred, y_test)
        _, train_pred = learner.predict(model, gram.matrix)
        assert summary["train_accuracy"] == learner.accuracy(train_pred, y_train)
        assert summary["ridge"] == 0.01

    @pytest.mark.parametrize("command", ["kernel", "relabel"])
    def test_too_few_features_is_config_error(self, tmp_path, capsys, command):
        data = self.write_dataset(tmp_path, d=2)
        out = tmp_path / "out.csv"
        code = cli.main([
            command, "--data", str(data), "--num-qubits", "4", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: {data}: csv has 2 features, fewer than num_qubits=4\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("corrupt, message", [
        # a non-finite feature ended in the PCA's path-less
        # "matrix has non-finite entries"
        (lambda cells: ["nan"] + cells[1:], "line 3: non-finite feature value"),
        (lambda cells: ["1e400"] + cells[1:], "line 3: non-finite feature value"),
        (lambda cells: cells[:2], "line 3: expected 4 fields, got 2"),
        (lambda cells: cells[:-1] + ["0"],
         "line 5: label '-1' mixes 0/1 and +/-1 labels (line 3: '0')"),
        (lambda cells: cells[:-1] + ["x"], "line 3: label 'x' is not numeric"),
    ])
    def test_relabel_bad_row_is_runtime_error(self, tmp_path, capsys, corrupt, message):
        data = self.write_dataset(tmp_path, d=3)
        lines = data.read_text().splitlines()
        lines[2] = ",".join(corrupt(lines[2].split(",")))
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        code = cli.main([
            "relabel", "--data", str(data), "--num-qubits", "2", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"runtime error: {data}: {message}\n"
        assert not out.exists()

    def test_relabel_of_a_header_without_rows_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("f0,f1,f2,label\n")
        out = tmp_path / "out.csv"
        argv = ["relabel", "--data", str(data), "--num-qubits", "2", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"runtime error: {data}: no data rows\n"
        assert not out.exists()

    def test_an_overflowing_covariance_prints_one_line(self, tmp_path):
        # numpy's two RuntimeWarning lines came first; a child process shows
        # stderr as a user sees it, outside pytest's warning capture
        (tmp_path / "big.csv").write_text(
            "f0,f1,f2,label\n1e200,0.5,0.1,1\n0.2,0.3,0.4,-1\n0.9,0.1,0.7,1\n"
        )
        argv = ["relabel", "--data", "big.csv", "--num-qubits", "2", "--out", "o.csv"]
        done = run_qksim(argv, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (
            2, "runtime error: big.csv: matrix has non-finite entries\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["big.csv"]

    def test_runs_as_python_module(self):
        done = run_qksim(["check", "--help"])
        assert done.returncode == 0, done.stderr
        assert "--trials" in done.stdout

    def test_relabel_command(self, tmp_path, capsys):
        data = self.write_dataset(tmp_path)
        out = tmp_path / "relabeled.csv"
        assert cli.main([
            "relabel", "--data", str(data), "--num-qubits", "2",
            "--out", str(out),
        ]) == 0
        back = datasets.load_csv(out)
        counts = int(np.sum(back.labels == 1)), int(np.sum(back.labels == -1))
        assert abs(counts[0] - counts[1]) <= 1

    def test_bound_command(self, tmp_path, capsys):
        data = self.write_dataset(tmp_path)
        ideal = tmp_path / "q.csv"
        cli.main(["kernel", "--data", str(data), "--num-qubits", "2",
                  "--out", str(ideal)])
        capsys.readouterr()
        assert cli.main([
            "bound", "--kernel", str(ideal), "--data", str(data),
            "--shots", "100", "--p-tilde", "0.001", "--ridge", "1e-6",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["m"] == 100
        assert report["c1"] > 0
        # the default ridge was 0, and an ideal kernel with more rows than 4^N
        # has rank at most 4^N: every such N=2 kernel failed as a singular system
        (tmp_path / "wide").mkdir()
        data = self.write_dataset(tmp_path / "wide", n=24)
        ideal = tmp_path / "wide" / "q.csv"
        cli.main(["kernel", "--data", str(data), "--num-qubits", "2",
                  "--out", str(ideal)])
        capsys.readouterr()
        assert cli.main([
            "bound", "--kernel", str(ideal), "--data", str(data),
            "--shots", "100", "--p-tilde", "0.01",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 24 and report["c1"] > 0

    def test_check_command(self, capsys):
        assert cli.main(["check", "--trials", "50", "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS noise-folding: max entry deviation 5.56e-16",
            "PASS hoeffding-envelope: 1000 trials per cell",
            "PASS inverse-perturbation: 50/50 applicable",
            "PASS clip-distance: never increases Frobenius distance",
            "PASS flip-distance: never increases Frobenius distance",
            "PASS shift-identity: distance gap equals 2*lam_min*(trQ-trW) + n*lam_min^2",
            "PASS norm-sandwich: spectral <= frobenius <= sqrt(n)*spectral",
        ]

    def test_check_fails_a_clip_that_moves_away(self, monkeypatch, capsys):
        repair = calibrate.repair

        def bad_clip(w, method, delta=0.0):
            if method != calibrate.CLIP:
                return repair(w, method, delta)
            m = linalg.spectrum(w).matrix
            return linalg.Spectrum(m + np.eye(len(m)))  # W + I: further from Q than W

        monkeypatch.setattr(calibrate, "repair", bad_clip)
        assert cli.main(["check", "--trials", "20"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL clip-distance: never increases Frobenius distance" in lines
        assert [line.split()[0] for line in lines].count("PASS") == 6

    def test_check_takes_the_largest_seed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "qksim", "check", "--trials", "20",
             "--seed", str(2**64 - 1)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stdout + done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 7 and all(line.startswith("PASS ") for line in lines)


class TestExitCodes:
    """``main`` maps ConfigError to exit 1 and any other failure to exit 2."""

    @staticmethod
    def main(capsys, *argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().err

    @staticmethod
    def kernel_and_data(tmp_path, n_kernel=12, n_data=12):
        """A kernel whose sidecar has no num_qubits, and a labelled dataset."""
        ds = datasets.generate_synthetic(n_data, 2, 3)
        labels = np.array([1, -1] * (n_data // 2))
        data = tmp_path / "data.csv"
        datasets.save_csv(datasets.Dataset(features=ds.features, labels=labels), data)
        gram = kernels.gram_ideal(datasets.generate_synthetic(n_kernel, 2, 4).features)
        kernel = tmp_path / "k.csv"
        kernels.save_kernel(kernels.KernelMatrix(gram.matrix, kernels.IDEAL), kernel)
        return str(kernel), str(data)

    def sweep(self, tmp_path, capsys, raw, *extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        return self.main(capsys, "sweep", "--config", str(cfg), *extra)

    def test_train_size_mismatch_is_config_error(self, tmp_path, capsys):
        kernel, data = self.kernel_and_data(tmp_path, n_kernel=12, n_data=10)
        assert self.main(capsys, "train", "--kernel", kernel, "--data", data) == (
            1, "config error: kernel is 12x12 but data has 10 rows\n"
        )

    def test_bound_size_mismatch_is_config_error(self, tmp_path, capsys):
        # it exited 2 with "runtime error: labels must have length 4"
        kernel, data = self.kernel_and_data(tmp_path, n_kernel=4, n_data=6)
        argv = ["bound", "--kernel", kernel, "--data", data, "--num-qubits", "2"]
        assert self.main(capsys, *argv) == (
            1, "config error: kernel is 4x4 but data has 6 rows\n"
        )

    def test_calibrate_reference_size_mismatch_is_config_error(self, tmp_path, capsys):
        kernel, _ = self.kernel_and_data(tmp_path, n_kernel=12)
        reference = tmp_path / "q.csv"
        gram = kernels.gram_ideal(datasets.generate_synthetic(5, 2, 5).features)
        kernels.save_kernel(gram, reference)
        out = tmp_path / "o.csv"
        argv = ["calibrate", "--kernel", kernel, "--reference", str(reference),
                "--method", "clip", "--out", str(out)]
        assert self.main(capsys, *argv) == (
            1, "config error: reference is 5x5, kernel 12x12\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("cross_shape, n_test, message", [
        ((12, 11), 12, "cross kernel is 12x11 but test data has 12 rows "
                       "and kernel is 12x12"),
        ((12, 12), 10, "cross kernel is 12x12 but test data has 10 rows "
                       "and kernel is 12x12"),
    ], ids=["columns", "rows"])
    def test_train_cross_size_mismatch_is_config_error(
        self, tmp_path, capsys, cross_shape, n_test, message
    ):
        kernel, data = self.kernel_and_data(tmp_path)
        cross = tmp_path / "cross.csv"
        linalg.save_matrix_csv(np.full(cross_shape, 0.5), cross)
        test = datasets.generate_synthetic(n_test, 2, 6)
        test_data = tmp_path / "test.csv"
        labels = np.array([1, -1] * (n_test // 2))
        datasets.save_csv(datasets.Dataset(features=test.features, labels=labels), test_data)
        out = tmp_path / "model.json"
        argv = ["train", "--kernel", kernel, "--data", data, "--cross", str(cross),
                "--test-data", str(test_data), "--out", str(out)]
        assert self.main(capsys, *argv) == (1, f"config error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--kernel", "--reference", "--cross"])
    def test_ragged_matrix_csv_names_its_file_and_row(self, tmp_path, capsys, flag):
        kernel, data = self.kernel_and_data(tmp_path)
        ragged = tmp_path / "ragged.csv"
        argv = {
            "--kernel": ["train", "--kernel", str(ragged), "--data", data],
            "--reference": ["calibrate", "--kernel", kernel, "--reference",
                            str(ragged), "--method", "clip",
                            "--out", str(tmp_path / "o.csv")],
            "--cross": ["train", "--kernel", kernel, "--data", data,
                        "--cross", str(ragged), "--test-data", data],
        }[flag]
        for text, error in [
            ("1.0,0.5\n0.5\n", "row 2 has 1 entries, row 1 has 2"),
            ("1.0,0.5\n0.5,abc\n", "row 2: could not convert string to float: 'abc'"),
        ]:
            ragged.write_text(text)
            assert self.main(capsys, *argv) == (
                2, f"runtime error: {ragged}: {error}\n"
            )

    @pytest.mark.parametrize("flag", ["--kernel", "--reference", "--cross"])
    def test_non_finite_kernel_entry_names_its_file_and_row(self, tmp_path, capsys, flag):
        # a non-finite --cross exited 1 with "cross kernel <path> has non-finite
        # entries"; every matrix flag now shares load_matrix_csv's rule
        kernel, data = self.kernel_and_data(tmp_path, n_kernel=2, n_data=2)
        bad = tmp_path / "bad.csv"
        out = tmp_path / "o.csv"
        argv = {
            "--kernel": ["calibrate", "--kernel", str(bad), "--method", "clip",
                         "--out", str(out)],
            "--reference": ["calibrate", "--kernel", kernel, "--reference", str(bad),
                            "--method", "clip", "--out", str(out)],
            "--cross": ["train", "--kernel", kernel, "--data", data, "--cross",
                        str(bad), "--test-data", data, "--out", str(out)],
        }[flag]
        for text, row in [("1.0,0.5\n0.5,1e400\n", 2), ("\nnan,0.5\n0.5,1.0\n", 1)]:
            bad.write_text(text)
            assert self.main(capsys, *argv) == (
                2, f"runtime error: {bad}: row {row} has a non-finite entry\n"
            )
            assert not out.exists()

    def test_bound_without_num_qubits_is_config_error(self, tmp_path, capsys):
        kernel, data = self.kernel_and_data(tmp_path)
        assert self.main(capsys, "bound", "--kernel", kernel, "--data", data) == (
            1, "config error: pass --num-qubits (kernel sidecar lacks it)\n"
        )

    @pytest.mark.parametrize("value, message", [
        (99, "num_qubits must be in [1, 14], got 99"),
        (2.5, "bad num_qubits entry: expected an integer, got 2.5"),
        (True, "bad num_qubits entry: expected an integer, got True"),
        ("abc", "bad num_qubits entry: invalid literal for int() with base 10: 'abc'"),
    ])
    def test_bad_sidecar_num_qubits_is_config_error(
        self, tmp_path, capsys, value, message
    ):
        # the sidecar's value follows the --num-qubits rule: these ran as 99,
        # 2 and 1 qubits, or exited 2
        kernel, data = self.kernel_and_data(tmp_path)
        sidecar = Path(kernel + ".json")
        raw = json.loads(sidecar.read_text(encoding="utf-8"))
        raw["params"]["num_qubits"] = value
        sidecar.write_text(json.dumps(raw), encoding="utf-8")
        assert self.main(capsys, "bound", "--kernel", kernel, "--data", data) == (
            1, f"config error: {message}\n"
        )

    @pytest.mark.parametrize("command", ["calibrate", "bound"])
    @pytest.mark.parametrize("text, problem", [
        ("{bad", "not valid JSON: "),  # then the parser's own text
        ('["ideal"]', "sidecar must be a JSON object"),
        ('{"provenance": "ideal", "params": [2]}', "params must be a JSON object"),
        ('{"provenance": "ideal", "pbrams": {"num_qubits": 2}}',
         "sidecar keys must be 'provenance' and 'params', got ['pbrams', 'provenance']"),
        ('{"provenance": 7, "params": {"num_qubits": 2}}', "provenance must be a string"),
    ], ids=["not-json", "list", "params-list", "misspelt-params", "provenance-number"])
    def test_malformed_sidecar_names_its_file(
        self, tmp_path, capsys, command, text, problem
    ):
        # these ended in the JSON parser's text or in "'list' object has no
        # attribute 'get'", naming no file; a misspelt params loaded as {} and
        # a provenance of 7 as itself, and both commands exited 0
        kernel, data = self.kernel_and_data(tmp_path)
        sidecar = Path(kernel + ".json")
        sidecar.write_text(text, encoding="utf-8")
        if problem.startswith("not valid JSON"):
            with pytest.raises(json.JSONDecodeError) as parsed:
                json.loads(text)
            problem += str(parsed.value)
        extra = {
            "calibrate": ["--method", "clip", "--out", str(tmp_path / "o.csv")],
            "bound": ["--data", data, "--num-qubits", "2"],
        }[command]
        assert self.main(capsys, command, "--kernel", kernel, *extra) == (
            2, f"runtime error: {sidecar}: {problem}\n"
        )

    @staticmethod
    def pca_failures(tmp_path):
        """A one-row and a rank-1 3-feature dataset, and the PCA error of each at 2 qubits."""
        one_row = tmp_path / "one-row.csv"
        datasets.save_csv(datasets.Dataset(np.array([[0.1, 0.2, 0.3]]), np.array([1])),
                          one_row)
        rank_one = tmp_path / "rank-one.csv"
        feats = np.outer(np.linspace(-1.0, 1.0, 20), [1.0, 0.5, -0.5])
        datasets.save_csv(datasets.Dataset(feats, np.array([1, -1] * 10)), rank_one)
        return [
            (one_row, "target_dim must be in [1, 1], got 2"),
            (rank_one, "data rank is 1, cannot extract 2 components"),
        ]

    def test_relabel_pca_errors_name_the_dataset(self, tmp_path, capsys):
        # these exited 2 naming no file
        out = tmp_path / "out.csv"
        for data, problem in self.pca_failures(tmp_path):
            argv = ["relabel", "--data", str(data), "--num-qubits", "2", "--out", str(out)]
            assert self.main(capsys, *argv) == (2, f"runtime error: {data}: {problem}\n")
            assert not out.exists()

    def test_sweep_pca_errors_name_the_dataset(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        for data, problem in self.pca_failures(tmp_path):
            raw = small_config(dataset={"kind": "csv", "path": str(data)}, output=str(out))
            assert self.sweep(tmp_path, capsys, raw) == (
                2, f"runtime error: {data}: {problem}\n"
            )
            assert not out.exists()

    @pytest.mark.parametrize("old, new, key", [
        ('{"dataset"', '{"seeds": [5], "dataset"', "seeds"),
        ('{"kind": "synthetic"}', '{"kind": "csv", "kind": "synthetic"}', "kind"),
    ], ids=["top-level", "nested"])
    def test_repeated_config_key_is_config_error(self, tmp_path, capsys, old, new, key):
        # these loaded with the last value and the sweep exited 0
        out = tmp_path / "r.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(output=str(out))).replace(old, new, 1))
        assert self.main(capsys, "sweep", "--config", str(cfg)) == (
            1, f"config error: cannot read config {cfg}: repeated key {key!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["config", "data", "matrix", "sidecar"])
    def test_undecodable_bytes_name_their_file(self, tmp_path, capsys, reader):
        # each exited 2 with the codec's bare "'utf-8' codec can't decode ...";
        # a config's bytes are bad input (exit 1), a data file's stay exit 2
        kernel, data = self.kernel_and_data(tmp_path)
        out = tmp_path / "o.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(output=str(out))))
        calibrate = ["calibrate", "--kernel", kernel, "--method", "clip", "--out", str(out)]
        bad, argv, code, prefix = {
            "config": (cfg, ["sweep", "--config", str(cfg)], 1,
                       f"config error: cannot read config {cfg}: "),
            "data": (Path(data), ["relabel", "--data", data, "--num-qubits", "2",
                                  "--out", str(out)], 2, f"runtime error: {data}: "),
            "matrix": (Path(kernel), calibrate, 2, f"runtime error: {kernel}: "),
            "sidecar": (Path(kernel + ".json"), calibrate, 2,
                        f"runtime error: {kernel}.json: not valid JSON: "),
        }[reader]
        bad.write_bytes(b"\xff" + bad.read_bytes())
        with pytest.raises(UnicodeDecodeError) as decoded:
            bad.read_bytes().decode("utf-8")
        assert self.main(capsys, *argv) == (code, f"{prefix}{decoded.value}\n")
        assert not out.exists()

    def test_a_config_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # it exited 1 with "Unexpected UTF-8 BOM (decode using utf-8-sig)"
        out = tmp_path / "r.csv"
        cfg = tmp_path / "cfg.json"
        raw = small_config(output=str(out), shots=["inf"], noise_rates=[0.0], seeds=[0])
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps(raw).encode("utf-8"))
        assert self.main(capsys, "sweep", "--config", str(cfg)) == (0, "")
        assert cli.load_results(out) == cli.run_sweep(cli.SweepConfig.from_dict(raw))

    @pytest.mark.parametrize("dataset", ["undecodable", "missing"])
    def test_an_unreadable_csv_dataset_ends_the_sweep(self, tmp_path, capsys, dataset):
        # an undecodable file exited 0, with its error in every record
        path = tmp_path / "bad.csv"
        if dataset == "undecodable":
            datasets.save_csv(datasets.generate_synthetic(20, 2, 3), path)
            path.write_bytes(b"\xff" + path.read_bytes())
        out = tmp_path / "r.csv"
        raw = small_config(dataset={"kind": "csv", "path": str(path)}, output=str(out))
        code, err = self.sweep(tmp_path, capsys, raw)
        assert code == 2
        assert err.startswith("runtime error: ") and str(path) in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("dataset, message", [
        ([], 'dataset must be {"kind": "synthetic"|"csv", ...}'),
        ({"kind": "hdf5"}, 'dataset must be {"kind": "synthetic"|"csv", ...}'),
        ({"kind": "csv"}, "csv dataset needs a path"),
    ])
    def test_a_dataset_without_a_known_kind_or_path_is_config_error(
        self, tmp_path, capsys, dataset, message
    ):
        out = tmp_path / "r.csv"
        raw = small_config(dataset=dataset, output=str(out))
        assert self.sweep(tmp_path, capsys, raw) == (1, f"config error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_failed_results_write_keeps_the_old_file(self, tmp_path, capsys, fmt):
        # under a 2 KiB file-size limit the sweep left 2048 bytes of the new
        # file where a good results file was
        out = tmp_path / f"r.{fmt}"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(output=str(out))))
        argv = ["sweep", "--config", str(cfg), "--format", fmt]
        assert self.main(capsys, *argv, "--seed", "0") == (0, "")
        old = out.read_bytes()
        assert self.main(capsys, *argv) == (0, "") and out.stat().st_size > 2048
        out.write_bytes(old)

        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048))

        done = run_qksim(argv, preexec_fn=limit)
        assert (done.returncode, done.stderr) == (
            2, f"runtime error: cannot write results to {out}: [Errno 27] File too large\n"
        )
        assert out.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", out.name]

    @pytest.mark.parametrize("command, rows, old, new", [
        ("kernel", 24, [], ["--p-tilde", "0.01", "--shots", "100"]),
        # a 12 x 12 matrix fits in one write buffer: its sidecar must not be
        # replaced before the matrix has reached its temporary file
        ("calibrate", 12, ["--method", "none"], ["--method", "nearest", "--delta", "0.5"]),
        ("relabel", 24, [], ["--gamma-scale", "2"]),
        ("train", 24, [], ["--ridge", "0.01"]),
    ])
    def test_a_failed_write_keeps_every_old_file(
        self, tmp_path, capsys, command, rows, old, new
    ):
        # under a 512-byte file-size limit each command left the first 512
        # bytes of its new output where a good file was
        kernel, data = self.kernel_and_data(tmp_path, rows, rows)
        out = str(tmp_path / "out")
        argv = {
            "kernel": ["kernel", "--data", data, "--num-qubits", "2", "--out", out],
            "calibrate": ["calibrate", "--kernel", kernel, "--out", out],
            "relabel": ["relabel", "--data", data, "--num-qubits", "2", "--out", out],
            "train": ["train", "--kernel", kernel, "--data", data, "--out", out],
        }[command]
        outputs = [out] if command == "train" else [out, out + ".json"]
        assert self.main(capsys, *argv, *new) == (0, "")
        written = [Path(f).read_bytes() for f in outputs]
        assert len(written[0]) > 512
        assert self.main(capsys, *argv, *old) == (0, "")
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert all(before[Path(f).name] != w for f, w in zip(outputs, written))

        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (512, 512))

        done = run_qksim([*argv, *new], preexec_fn=limit)
        assert (done.returncode, done.stderr) == (
            2, "runtime error: [Errno 27] File too large\n"
        )
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_sweep_without_output_is_config_error(self, tmp_path, capsys):
        assert self.sweep(tmp_path, capsys, small_config()) == (
            1, "config error: no output path (config.output or --out)\n"
        )

    def test_sweep_past_max_qubits_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        raw = small_config(num_qubits=15)
        assert self.sweep(tmp_path, capsys, raw, "--out", str(out)) == (
            1, "config error: num_qubits must be in [1, 14], got 15\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "train", "bound"])
    def test_missing_kernel_file_is_runtime_error(self, tmp_path, capsys, command):
        _, data = self.kernel_and_data(tmp_path)
        missing = str(tmp_path / "missing.csv")
        extra = {
            "calibrate": ["--method", "clip", "--out", str(tmp_path / "o.csv")],
            "train": ["--data", data],
            "bound": ["--data", data, "--num-qubits", "2"],
        }[command]
        assert self.main(capsys, command, "--kernel", missing, *extra) == (
            2, f"runtime error: [Errno 2] No such file or directory: {missing!r}\n"
        )

    @staticmethod
    def flag_files(tmp_path, argv):
        """Input and output flags naming files that do not exist."""
        missing = str(tmp_path / "missing.csv")
        files = {
            "sweep": ["--config", missing],
            "kernel": ["--data", missing, "--out", missing],
            "calibrate": ["--kernel", missing, "--out", missing],
            "train": ["--kernel", missing, "--data", missing],
            "relabel": ["--data", missing, "--out", missing],
            "bound": ["--kernel", missing, "--data", missing],
            "check": [],
        }[argv[0]]
        given = any(a.startswith("--num-qubits") for a in argv)
        if argv[0] in ("kernel", "relabel") and not given:
            files += ["--num-qubits", "2"]  # required there
        return files

    @pytest.mark.parametrize("argv, message", [
        (["calibrate", "--method", "clip", "--delta", "-1"],
         "delta must be >= 0, got -1.0"),
        (["calibrate", "--method", "nearest", "--delta", "-1"],
         "delta must be >= 0, got -1.0"),
        (["train", "--ridge", "-1"], "ridge must be >= 0, got -1.0"),
        (["relabel", "--ridge", "-1"], "ridge must be >= 0, got -1.0"),
        (["relabel", "--gamma-scale", "0"], "gamma_scale must be > 0, got 0.0"),
        (["check", "--trials", "0"], "trials must be >= 1, got 0"),
        (["check", "--trials", "-3"], "trials must be >= 1, got -3"),
        (["kernel", "--shots", "0"], "bad shots entry: shot count must be >= 1, got 0"),
        (["kernel", "--p-tilde", "2"],
         "bad noise model: rate_per_layer must be in [0, 1], got 2.0"),
        (["kernel", "--layers", "0", "--p-tilde", "0.1"],
         "bad noise model: layers must be >= 1, got 0"),
        (["kernel", "--layers", "0"], "bad noise model: layers must be >= 1, got 0"),
        (["bound", "--shots", "0"], "bad shots entry: shot count must be >= 1, got 0"),
        (["bound", "--delta", "2"], "delta must be in (0, 1), got 2.0"),
        (["bound", "--p-tilde", "-1"],
         "bad noise model: rate_per_layer must be in [0, 1], got -1.0"),
        (["kernel", "--num-qubits", "0"], "num_qubits must be in [1, 14], got 0"),
        (["kernel", "--num-qubits", "15"], "num_qubits must be in [1, 14], got 15"),
        (["relabel", "--num-qubits", "0"], "num_qubits must be in [1, 14], got 0"),
        (["bound", "--num-qubits", "0"], "num_qubits must be in [1, 14], got 0"),
        (["bound", "--num-qubits", "-1"], "num_qubits must be in [1, 14], got -1"),
        (["bound", "--ridge", "-1"], "ridge must be >= 0, got -1.0"),
        # non-finite values the config rejects: each exited 0 or 2 before
        (["train", "--ridge", "inf"], "bad ridge entry: expected a finite number, got inf"),
        (["relabel", "--ridge", "inf"],
         "bad ridge entry: expected a finite number, got inf"),
        (["relabel", "--gamma-scale", "inf"],
         "bad gamma_scale entry: expected a finite number, got inf"),
        (["calibrate", "--method", "clip", "--delta", "inf"],
         "bad delta entry: expected a finite number, got inf"),
        (["calibrate", "--method", "nearest", "--delta", "inf"],
         "bad delta entry: expected a finite number, got inf"),
        (["bound", "--ridge", "inf"], "bad ridge entry: expected a finite number, got inf"),
        # exited 2 with "Python int too large to convert to C long"
        (["kernel", "--shots", "10000000000000000000", "--p-tilde", "0.01"],
         "bad shots entry: shot count must be <= 2**63 - 1, got 10000000000000000000"),
        (["bound", "--shots", "9223372036854775808"],
         "bad shots entry: shot count must be <= 2**63 - 1, got 9223372036854775808"),
        # wrong-kind values that argparse's own type= rejected with exit 2
        (["kernel", "--num-qubits", "2.5"],
         "bad num_qubits entry: expected an integer, got 2.5"),
        (["kernel", "--p-tilde", "abc"],
         "bad p_tilde entry: could not convert string to float: 'abc'"),
        (["train", "--ridge", "abc"],
         "bad ridge entry: could not convert string to float: 'abc'"),
        (["check", "--trials", "2.5"], "bad trials entry: expected an integer, got 2.5"),
        (["kernel", "--layers", "1.5"], "bad layers entry: expected an integer, got 1.5"),
        (["sweep", "--seed", "1.5"], "bad seed entry: expected an integer, got 1.5"),
        # seeds outside [0, 2**64) would alias seeds inside it
        (["sweep", "--seed", "-1"], "seed must be in [0, 2**64), got -1"),
        (["sweep", "--seed", "18446744073709551616"],
         "seed must be in [0, 2**64), got 18446744073709551616"),
        (["kernel", "--seed", "-1"], "seed must be in [0, 2**64), got -1"),
        (["check", "--seed", "18446744073709551616"],
         "seed must be in [0, 2**64), got 18446744073709551616"),
        (["kernel", "--shots", "2.5"],
         "bad shots entry: shot count must be an integer, got 2.5"),
    ])
    def test_bad_library_flag_is_config_error_before_any_file_is_read(
        self, tmp_path, capsys, argv, message
    ):
        files = self.flag_files(tmp_path, argv)
        assert self.main(capsys, *argv, *files) == (1, f"config error: {message}\n")
        assert not (tmp_path / "missing.csv").exists()

    @pytest.mark.parametrize("key, flag, value", [
        ("ridge", ["train", "--ridge"], -1),
        ("ridge", ["train", "--ridge"], math.inf),
        ("ridge", ["relabel", "--ridge"], -1),
        ("ridge", ["bound", "--ridge"], math.nan),
        ("nearest_delta", ["calibrate", "--method", "nearest", "--delta"], -1),
        ("nearest_delta", ["calibrate", "--method", "clip", "--delta"], math.inf),
        ("bound_delta", ["bound", "--delta"], 0),
        ("bound_delta", ["bound", "--delta"], 1.5),
        ("bound_delta", ["bound", "--delta"], math.inf),
        ("relabel_gamma_scale", ["relabel", "--gamma-scale"], 0),
        ("relabel_gamma_scale", ["relabel", "--gamma-scale"], -math.inf),
        ("num_qubits", ["kernel", "--num-qubits"], 0),
        ("num_qubits", ["relabel", "--num-qubits"], 15),
        ("num_qubits", ["bound", "--num-qubits"], -1),
        # wrong-kind values; a list key holds the value as its one entry
        ("num_qubits", ["kernel", "--num-qubits"], 2.5),
        ("noise_rates", ["kernel", "--p-tilde"], "abc"),
        ("ridge", ["train", "--ridge"], "abc"),
        ("test_size", ["check", "--trials"], 2.5),
        ("layers", ["kernel", "--layers"], 1.5),
        ("seeds", ["sweep", "--seed"], 1.5),
        ("seeds", ["sweep", "--seed"], -1),
        ("seeds", ["kernel", "--seed"], 2**64),
        ("seeds", ["check", "--seed"], -1),
    ])
    def test_config_key_and_flag_print_the_same_condition(
        self, tmp_path, capsys, key, flag, value
    ):
        out = tmp_path / "r.csv"
        entry = [value] if key in ("noise_rates", "seeds") else value
        code, from_config = self.sweep(
            tmp_path, capsys, small_config(**{key: entry}), "--out", str(out)
        )
        argv = [*flag[:-1], f"{flag[-1]}={value}"]  # "-inf" is not read as a flag
        flag_code, from_flag = self.main(capsys, *argv, *self.flag_files(tmp_path, argv))
        dest = flag[-1].lstrip("-").replace("-", "_")
        condition = from_config.replace(f" {key} ", " <name> ")
        assert code == flag_code == 1
        assert "<name>" in condition
        assert condition == from_flag.replace(f" {dest} ", " <name> ")

    def test_every_flag_rule_names_a_dest_of_its_subcommand(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(cli.FLAG_RULES) <= set(sub.choices)
        for command, rules in cli.FLAG_RULES.items():
            dests = {action.dest for action in sub.choices[command]._actions}
            assert set(rules) <= dests, command

    def test_no_ruled_flag_is_judged_by_argparse_too(self):
        # a type= or choices= would reject a value with exit 2 before its rule
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for command, rules in cli.FLAG_RULES.items():
            for action in sub.choices[command]._actions:
                if action.dest in rules:
                    assert action.type is None, (command, action.dest)
                    assert action.choices is None, (command, action.dest)

    def test_flag_text_reads_as_its_config_value(self, tmp_path, capsys):
        # "1e3" is the float 1000.0, a whole shot count, as in a config
        _, data = self.kernel_and_data(tmp_path)
        written = []
        for shots in ("1000", "1e3"):
            out = tmp_path / f"k{shots}.csv"
            argv = ["kernel", "--data", data, "--num-qubits", "2", "--shots", shots,
                    "--p-tilde", "0.05", "--seed", "3", "--out", str(out)]
            assert self.main(capsys, *argv)[0] == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert cli.SweepConfig.from_dict(small_config(shots=[1e3])).shots == (1000,)

    @pytest.mark.parametrize("flag", ["--cross", "--test-data"])
    def test_train_cross_without_test_data_is_config_error_before_any_file_is_read(
        self, tmp_path, capsys, flag
    ):
        missing = str(tmp_path / "missing.csv")
        argv = ["train", "--kernel", missing, "--data", missing, flag, missing]
        assert self.main(capsys, *argv) == (
            1, "config error: --cross and --test-data must be given together\n"
        )
        assert not (tmp_path / "missing.csv").exists()

    @pytest.mark.parametrize("command", ["kernel", "bound"])
    def test_unknown_mixing_is_a_usage_error(self, capsys, command):
        files = {
            "kernel": ["--data", "d.csv", "--num-qubits", "2", "--out", "k.csv"],
            "bound": ["--kernel", "k.csv", "--data", "d.csv"],
        }[command]
        with pytest.raises(SystemExit) as info:
            cli.main([command, *files, "--mixing", "bogus"])
        assert info.value.code == 2
        assert "argument --mixing: invalid choice: 'bogus'" in capsys.readouterr().err

    def test_badly_typed_config_prints_no_traceback(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(train_sizes=["x"])))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "qksim", "sweep", "--config", str(cfg),
             "--out", str(tmp_path / "r.csv")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.splitlines() == [
            "config error: bad train_sizes entry: "
            "invalid literal for int() with base 10: 'x'"
        ]

    def test_singular_uncalibrated_kernel_is_an_error_record(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        raw = small_config(methods=["none"], shots=[5], ridge=1e-12)
        assert self.sweep(tmp_path, capsys, raw, "--out", str(out)) == (0, "")
        quantum = [r for r in cli.load_results(out) if r.kind == cli.QUANTUM]
        assert quantum
        suffix = "; calibrate the kernel to PSD or increase the ridge"
        for rec in quantum:
            assert rec.error.startswith("SingularMatrixError: singular system: ")
            assert rec.error.endswith(suffix)

    def test_max_qubits_sweep_has_no_error_records(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        raw = small_config(num_qubits=14, train_sizes=[4], test_size=4, seeds=[0])
        assert self.sweep(tmp_path, capsys, raw, "--out", str(out)) == (0, "")
        records = cli.load_results(out)
        assert len(records) == 2 * 2 * 1 + 1
        assert all(r.error is None for r in records)
