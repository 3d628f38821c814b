import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from qksim import bounds, calibrate, cli, datasets, kernels, learner, linalg, qsim


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
        ("bound_delta", 1.5, "bound_delta must be in (0, 1)"),
        ("mixing", "bogus", "bad noise model: unknown mixing variant: 'bogus'"),
        ("layers", 0, "bad noise model: layers must be >= 1, got 0"),
        ("ridge", -1, "ridge must be >= 0"),
        ("nearest_delta", -0.5, "nearest_delta must be >= 0"),
        ("test_size", 0, "test_size must be >= 1"),
        ("relabel_gamma_scale", 0.0, "relabel_gamma_scale must be positive"),
        ("output", 5, "output must be a path string or null"),
        ("train_sizes", ["x"],
         "bad train_sizes entry: invalid literal for int() with base 10: 'x'"),
        ("noise_rates", None, "bad noise_rates entry: expected a list, got NoneType"),
        ("seeds", "01", "bad seeds entry: expected a list, got str"),
        ("num_qubits", math.inf,
         "bad num_qubits entry: cannot convert float infinity to integer"),
    ])
    def test_bad_value_fails_the_sweep_at_load(
        self, tmp_path, capsys, key, value, message
    ):
        # each of these used to load and then fail every record, or crash
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_config(**{key: value})))
        out = tmp_path / "r.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

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
        cli._rbf_record(config, pool, 8, 0)
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
            records.append(cli._rbf_record(config, pool, n, seed))
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

        def broken(q, y):  # fails on a kernel; anything else reaches the real one
            if isinstance(q, np.ndarray):
                raise ValueError("ideal_terms failed, on purpose")
            return ideal_terms(q, y)

        monkeypatch.setattr(bounds, "ideal_terms", broken)
        config = self.config("pipeline")
        records = cli.run_sweep(config)
        assert_same_records(records, reference_sweep(config))
        trained = [r for r in records if r.c1 is not None and r.kind == cli.QUANTUM]
        assert trained
        for rec in trained:
            assert rec.error == "ValueError: ideal_terms failed, on purpose"
            assert rec.breakdown_p is None

    @pytest.mark.parametrize("corrupt", ["kernel", "reference", "reference-nan"])
    def test_failed_matrix_check_fails_at_calibration(self, monkeypatch, corrupt):
        build_pool, sample_shots = cli.build_pool, kernels.sample_shots

        def bad_pool(config, n, seed):
            pool = build_pool(config, n, seed)
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

    def test_each_stage_runs_once_where_it_varies(self, monkeypatch):
        calls = {"shots": [], "cross": [], "fid": [], "c1": [], "q_inv": []}
        sample_shots, sample_cross = kernels.sample_shots, kernels.sample_cross
        cross_fidelity, feature_states = kernels.cross_fidelity, qsim.feature_states
        model_complexity_c1 = learner.model_complexity_c1
        inv_ridge = linalg.inv_ridge
        encoded = []

        def spy_shots(qt, m, seed):
            calls["shots"].append((qt.dim, seed, m, qt.params["p_tilde"]))
            return sample_shots(qt, m, seed)

        def spy_fid(x_train, x_test):
            calls["fid"].append((len(x_train), np.asarray(x_train).tobytes()))
            return cross_fidelity(x_train, x_test)

        def spy_cross(fid, noise, num_qubits, m, seed):
            calls["cross"].append((fid.shape[1], seed, m, noise.rate_per_layer))
            return sample_cross(fid, noise, num_qubits, m, seed)

        def spy_encode(x_rows):
            encoded.append(len(x_rows))
            return feature_states(x_rows)

        def spy_c1(q, y, ridge):
            if ridge == config.ridge:  # the RBF baseline's c1 uses a grid ridge
                calls["c1"].append((len(y), np.asarray(q).tobytes()))
            return model_complexity_c1(q, y, ridge)

        def spy_inv(m, ridge=0.0):
            if ridge == 0.0:  # the bound inverts the already ridged ideal kernel
                calls["q_inv"].append((len(m), np.asarray(m).tobytes()))
            return inv_ridge(m, ridge)

        monkeypatch.setattr(kernels, "sample_shots", spy_shots)
        monkeypatch.setattr(kernels, "cross_fidelity", spy_fid)
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
        for key in ("shots", "cross"):
            assert sorted(calls[key], key=str) == sorted(coords, key=str)
        for key in ("fid", "c1"):
            assert len(calls[key]) == len(set(calls[key])) == 2 * 2
        # per cell: the pool Gram matrix, then the train and the test rows
        assert len(encoded) == 3 * 2 * 2
        assert len(calls["q_inv"]) == len(set(calls["q_inv"])) == 2 * 2

    def test_each_spectrum_is_computed_once_where_it_varies(self, monkeypatch):
        sampled, references, repairs = [], [], []
        eig_sym_calls, eigvalsh_calls = [], []
        sample_shots, build_pool = kernels.sample_shots, cli.build_pool
        calibrate_and_report = calibrate.calibrate_and_report
        eig_sym, eigvalsh = linalg.eig_sym, np.linalg.eigvalsh

        def spy_shots(qt, m, seed):
            out = sample_shots(qt, m, seed)
            sampled.append(out.matrix.copy())
            return out

        def spy_pool(config, n, seed):
            pool = build_pool(config, n, seed)
            references.append(pool.q_train_ideal.tobytes())
            return pool

        def spy_report(q, w, method, delta=0.0):
            repaired, report = calibrate_and_report(q, w, method, delta)
            repairs.append(repaired.tobytes())
            return repaired, report

        def spy_eig_sym(m):
            eig_sym_calls.append(np.asarray(m).tobytes())
            return eig_sym(m)

        def spy_eigvalsh(a, UPLO="L"):
            eigvalsh_calls.append(np.asarray(a).tobytes())
            return eigvalsh(a, UPLO)

        monkeypatch.setattr(kernels, "sample_shots", spy_shots)
        monkeypatch.setattr(cli, "build_pool", spy_pool)
        monkeypatch.setattr(calibrate, "calibrate_and_report", spy_report)
        monkeypatch.setattr(linalg, "eig_sym", spy_eig_sym)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
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
        for w in sampled:
            # a repair that returns W unchanged is a new matrix with W's bytes:
            # the report takes its eigvalsh and the fit its eig_sym
            copies = repairs.count(w)
            assert eig_sym_calls.count(w) == eigvalsh_calls.count(w) == 1 + copies
        for q in references:
            assert eigvalsh_calls.count(q) == 1
        for q in references:
            assert eigvalsh_calls.count(q) == 1


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

    def test_reversed_lists_give_the_same_file(self, full, tmp_path):
        reversed_lists = {
            key: value[::-1] for key, value in self.LISTS.items()
            if isinstance(value, list)
        }
        records = self.sweep(**reversed_lists)
        assert self.file_bytes(records, tmp_path / "r.csv") == full


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

    @pytest.mark.parametrize("command", ["kernel", "relabel"])
    def test_too_few_features_is_config_error(self, tmp_path, capsys, command):
        data = self.write_dataset(tmp_path, d=2)
        out = tmp_path / "out.csv"
        code = cli.main([
            command, "--data", str(data), "--num-qubits", "4", "--out", str(out),
        ])
        assert code == 1
        assert "config error: csv has 2 features, fewer than num_qubits=4" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda cells: ["nan"] + cells[1:], "matrix has non-finite entries"),
        (lambda cells: cells[:2], "line 3: expected 4 fields, got 2"),
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
        assert capsys.readouterr().err == f"runtime error: {message}\n"
        assert not out.exists()

    def test_runs_as_python_module(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "qksim", "check", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
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

    def test_check_command(self, capsys):
        assert cli.main(["check", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "PASS noise-folding" in out
        assert "FAIL" not in out


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

    def test_bound_without_num_qubits_is_config_error(self, tmp_path, capsys):
        kernel, data = self.kernel_and_data(tmp_path)
        assert self.main(capsys, "bound", "--kernel", kernel, "--data", data) == (
            1, "config error: pass --num-qubits (kernel sidecar lacks it)\n"
        )

    def test_sweep_without_output_is_config_error(self, tmp_path, capsys):
        assert self.sweep(tmp_path, capsys, small_config()) == (
            1, "config error: no output path (config.output or --out)\n"
        )

    def test_sweep_past_max_qubits_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        raw = small_config(num_qubits=15)
        assert self.sweep(tmp_path, capsys, raw, "--out", str(out)) == (
            1, "config error: num_qubits must be in [1, 14]\n"
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

    @pytest.mark.parametrize("argv, message", [
        (["kernel", "--shots", "0"], "shot count must be >= 1, got 0"),
        (["kernel", "--p-tilde", "2"], "rate_per_layer must be in [0, 1], got 2.0"),
        (["kernel", "--layers", "0", "--p-tilde", "0.1"], "layers must be >= 1, got 0"),
        (["kernel", "--layers", "0"], "layers must be >= 1, got 0"),
        (["bound", "--shots", "0"], "shot count must be >= 1, got 0"),
        (["bound", "--delta", "2"], "delta must be in (0, 1), got 2.0"),
        (["bound", "--p-tilde", "-1"], "rate_per_layer must be in [0, 1], got -1.0"),
    ])
    def test_bad_flag_value_is_config_error_before_any_file_is_read(
        self, tmp_path, capsys, argv, message
    ):
        missing = str(tmp_path / "missing.csv")
        files = {
            "kernel": ["--data", missing, "--num-qubits", "2", "--out", missing],
            "bound": ["--kernel", missing, "--data", missing],
        }[argv[0]]
        assert self.main(capsys, *argv, *files) == (1, f"config error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["calibrate", "--method", "clip", "--delta", "-1"],
         "delta must be nonnegative, got -1.0"),
        (["calibrate", "--method", "nearest", "--delta", "-1"],
         "delta must be nonnegative, got -1.0"),
        (["train", "--ridge", "-1"], "ridge must be nonnegative, got -1.0"),
        (["relabel", "--ridge", "-1"], "ridge must be nonnegative, got -1.0"),
        (["relabel", "--gamma-scale", "0"], "gamma scale must be positive, got 0.0"),
        (["check", "--trials", "0"], "trials must be >= 1, got 0"),
        (["check", "--trials", "-3"], "trials must be >= 1, got -3"),
    ])
    def test_bad_library_flag_is_config_error_before_any_file_is_read(
        self, tmp_path, capsys, argv, message
    ):
        missing = str(tmp_path / "missing.csv")
        files = {
            "calibrate": ["--kernel", missing, "--out", missing],
            "train": ["--kernel", missing, "--data", missing],
            "relabel": ["--data", missing, "--num-qubits", "2", "--out", missing],
            "check": [],
        }[argv[0]]
        assert self.main(capsys, *argv, *files) == (1, f"config error: {message}\n")
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
