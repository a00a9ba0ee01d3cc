"""Experiment configs, training schedule, sweeps, and run artifacts."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lcalearn
from lcalearn import experiment, lca
from lcalearn.data import (
    FrameSequence,
    LabeledSample,
    SyntheticSpec,
    generate_synthetic,
    save_dataset_npy,
    save_events,
)
from lcalearn.dictionary import InputDims, init_random, load_checkpoint
from lcalearn.errors import ConfigError
from lcalearn.experiment import (
    METRICS_HEADER,
    ExperimentConfig,
    SweepResult,
    collect_features,
    config_from_dict,
    config_to_dict,
    evaluate_codes,
    load_config,
    resolve_dict_size,
    rmse,
    run_sweep,
    run_training,
    sparsity,
)
from lcalearn.lca import LcaParams


def base_raw(**overrides):
    raw = {
        "dataset": {
            "kind": "synthetic", "seed": 1, "height": 8, "width": 8, "frames": 2,
            "train_per_class": 3, "valid_per_class": 2,
        },
        "dict_size": 24,
        "lambda": 0.3,
        "dt": 1.0, "tau": 10.0, "display_ms": 30.0,
        "epochs": 2, "learning_rate": 0.01, "seed": 0,
    }
    raw.update(overrides)
    return raw


class TestConfig:
    def test_lambda_key_maps_to_lam(self):
        config = config_from_dict(base_raw())
        assert config.lam == 0.3

    def test_round_trip_through_dict(self):
        config = config_from_dict(base_raw())
        again = config_from_dict(config_to_dict(config))
        assert again == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            config_from_dict(base_raw(momentum=0.9))

    def test_unknown_dataset_key_rejected(self):
        raw = base_raw()
        raw["dataset"]["shuffle"] = True
        with pytest.raises(ConfigError, match="shuffle"):
            config_from_dict(raw)

    def test_unknown_filter_key_rejected(self):
        raw = base_raw(filter={"kind": "boxcar", "window_ms": 40.0, "order": 2})
        with pytest.raises(ConfigError, match="order"):
            config_from_dict(raw)

    def test_missing_required_key_rejected(self):
        raw = base_raw()
        del raw["lambda"]
        with pytest.raises(ConfigError, match="lambda"):
            config_from_dict(raw)

    def test_display_must_be_integral_steps(self):
        with pytest.raises(ConfigError, match="display_ms"):
            config_from_dict(base_raw(display_ms=10.5, dt=1.0))

    def test_gap_must_be_integral_steps(self):
        with pytest.raises(ConfigError, match="gap_ms"):
            config_from_dict(base_raw(gap_ms=3.7))

    def test_step_counts(self):
        config = config_from_dict(base_raw(display_ms=100.0, gap_ms=40.0, dt=2.0, tau=20.0))
        assert config.display_steps == 50
        assert config.gap_steps == 20

    def test_dt_larger_than_tau_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_raw(dt=50.0, tau=10.0))

    def test_negative_lambda_rejected(self):
        raw = base_raw()
        raw["lambda"] = -0.2
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_bad_input_encoding_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_raw(input_encoding="poisson"))

    def test_load_config_reports_json_errors(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_ratio_dict_size(self):
        assert resolve_dict_size({"ratio": 0.5}, 768) == 384
        assert resolve_dict_size({"ratio": 5.0}, 768) == 3840
        assert resolve_dict_size(64, 768) == 64

    def test_ratio_rounding_is_floor(self):
        assert resolve_dict_size({"ratio": 0.5}, 9) == 4

    def test_tiny_ratio_rejected(self):
        with pytest.raises(ConfigError):
            resolve_dict_size({"ratio": 0.001}, 100)


class TestMetricsFunctions:
    def test_rmse_identical_is_zero(self):
        x = np.array([0.3, -0.5, 1.0])
        assert rmse(x, x) == 0.0

    def test_rmse_unit_difference(self):
        assert rmse(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 1.0

    def test_rmse_of_differences_whose_squares_overflow(self):
        # The suite turns a RuntimeWarning (such as an overflow) into an error.
        x = np.array([1e200, -1e200, 1e200])
        assert rmse(x, -x) == 2e200
        assert rmse(np.array([1e308]), np.array([-5e307])) == 1e308 + 5e307

    def test_rmse_keeps_the_plain_form_on_ordinary_data(self):
        diff = np.random.default_rng(0).normal(size=50) * 1e150
        assert rmse(diff, np.zeros(50)) == float(np.sqrt(np.mean(diff * diff)))

    def test_rmse_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))

    def test_sparsity_extremes(self):
        assert sparsity(np.zeros(50)) == 0.0
        assert sparsity(np.ones(50)) == 100.0

    def test_sparsity_counts_strictly_positive(self):
        assert sparsity(np.array([0.0, 0.5, 0.0, 0.1])) == 50.0


class TestRunTraining:
    def test_zero_epochs_keeps_initialization(self, tmp_path):
        config = config_from_dict(base_raw(epochs=0))
        result = run_training(config, out_dir=tmp_path)
        reference = init_random(config.seed, 24, result.dictionary.dims)
        assert np.array_equal(result.dictionary.elements, reference.elements)
        assert load_checkpoint(tmp_path / "dict_epoch_0.lcad").dims == reference.dims

    def test_training_reduces_validation_rmse(self):
        config = config_from_dict(base_raw(epochs=4, learning_rate=0.05))
        metrics = run_training(config).metrics
        assert metrics.rmse_val[-1] < metrics.rmse_val[0]

    def test_reproducible_bitwise(self, tmp_path):
        config = config_from_dict(base_raw())
        run_training(config, out_dir=tmp_path / "a")
        run_training(config, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "dict_epoch_2.lcad").read_bytes() == (
            tmp_path / "b" / "dict_epoch_2.lcad"
        ).read_bytes()

    def test_seed_changes_results(self):
        a = run_training(config_from_dict(base_raw(seed=0))).metrics
        b = run_training(config_from_dict(base_raw(seed=1))).metrics
        assert a.rmse_val[-1] != b.rmse_val[-1]

    def test_metrics_csv_layout(self, tmp_path):
        config = config_from_dict(base_raw())
        run_training(config, out_dir=tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(METRICS_HEADER)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) > 0

    def test_checkpoint_interval(self, tmp_path):
        config = config_from_dict(base_raw(epochs=4, checkpoint_every=2))
        run_training(config, out_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.lcad"))
        assert names == ["dict_epoch_2.lcad", "dict_epoch_4.lcad"]

    def test_spiking_metrics_recorded(self):
        config = config_from_dict(base_raw(
            spike_height=0.5, filter={"kind": "boxcar", "window_ms": 10.0}, epochs=1
        ))
        metrics = run_training(config).metrics
        assert metrics.max_spikes_per_step[0] >= 1
        assert metrics.mean_rate[0] > 0

    def test_graded_run_reports_no_spikes(self):
        config = config_from_dict(base_raw(epochs=1))
        metrics = run_training(config).metrics
        assert metrics.max_spikes_per_step == [0]
        assert math.isnan(metrics.mean_rate[0])

    def test_classifier_accuracy_logged(self):
        config = config_from_dict(base_raw(epochs=1, classifier={"epochs": 60}))
        result = run_training(config)
        assert 0.0 <= result.metrics.accuracy[0] <= 1.0
        assert result.train_features.shape[1] == 24

    def test_no_classifier_logs_nan(self):
        config = config_from_dict(base_raw(epochs=1))
        assert math.isnan(run_training(config).metrics.accuracy[0])

    def test_gap_without_warm_start_is_noop(self):
        base = config_from_dict(base_raw(epochs=2))
        gapped = config_from_dict(base_raw(epochs=2, gap_ms=20.0))
        a = run_training(base).metrics
        b = run_training(gapped).metrics
        assert a.rmse_val == b.rmse_val

    def test_warm_start_changes_results(self):
        cold = config_from_dict(base_raw(epochs=1))
        warm = config_from_dict(base_raw(epochs=1, warm_start=True))
        a = run_training(cold).metrics
        b = run_training(warm).metrics
        assert a.rmse_val[-1] != b.rmse_val[-1]

    def test_batched_updates_run(self):
        config = config_from_dict(base_raw(epochs=1, batch_size=4))
        metrics = run_training(config).metrics
        assert metrics.rmse_val[0] > 0

    def test_empty_training_set_rejected(self):
        config = config_from_dict(base_raw())
        with pytest.raises(ConfigError):
            run_training(config, train_samples=[], valid_samples=[])

    def test_initial_dictionary_override(self):
        config = config_from_dict(base_raw(epochs=0))
        train, valid = generate_synthetic(
            1, SyntheticSpec(height=8, width=8, frames=2, train_per_class=3, valid_per_class=2)
        )
        custom = init_random(99, 24, train[0].input.dims)
        result = run_training(config, train, valid, initial_dictionary=custom)
        assert np.array_equal(result.dictionary.elements, custom.elements)


class TestEvaluateCodes:
    def trained(self):
        config = config_from_dict(base_raw(epochs=2, learning_rate=0.05))
        result = run_training(config)
        train, valid = generate_synthetic(
            1, SyntheticSpec(height=8, width=8, frames=2, train_per_class=3, valid_per_class=2)
        )
        return result.dictionary, valid, config

    def test_reports_metrics(self):
        dictionary, valid, config = self.trained()
        report = evaluate_codes(dictionary, valid, config.lca_params())
        assert report["rmse"] > 0
        assert 0 <= report["sparsity_pct"] <= 100

    def test_reports_finite_rmse_on_samples_at_1e200_scale(self):
        dictionary, valid, config = self.trained()
        huge = [LabeledSample(FrameSequence(s.input.frames * 1e200), s.label) for s in valid]
        report = evaluate_codes(dictionary, huge, config.lca_params())
        assert 0 < report["rmse"] < math.inf

    def test_filtered_not_worse_at_large_height(self):
        """At spike height >= 5 the smoothed code reconstructs no worse."""
        dictionary, valid, config = self.trained()
        params = LcaParams(lam=config.lam, dt=1.0, tau=10.0, steps=100)
        raw = evaluate_codes(dictionary, valid, params, spike_height=5.0)
        smoothed = evaluate_codes(
            dictionary, valid, params, spike_height=5.0,
            filter_spec={"kind": "boxcar", "window_ms": 40.0},
        )
        assert smoothed["rmse"] <= raw["rmse"]

    def test_empty_samples_rejected(self):
        dictionary, _, config = self.trained()
        with pytest.raises(ValueError):
            evaluate_codes(dictionary, [], config.lca_params())

    def test_collect_features_shape(self):
        dictionary, valid, config = self.trained()
        features = collect_features(dictionary, valid, config)
        assert features.shape == (len(valid), 24)
        assert (features >= 0).all()


class TestRunSweep:
    def test_row_per_value_and_ci(self):
        config = config_from_dict(base_raw(epochs=1))
        result = run_sweep(config, "lambda", [0.2, 0.4, 0.6, 0.8], repeats=2)
        assert len(result.rows) == 4
        for row in result.rows:
            assert row["failed"] == 0
            assert not math.isnan(row["rmse_val_ci"])

    def test_single_repeat_has_undefined_ci(self):
        config = config_from_dict(base_raw(epochs=1))
        result = run_sweep(config, "lambda", [0.3], repeats=1)
        assert math.isnan(result.rows[0]["rmse_val_ci"])
        assert not math.isnan(result.rows[0]["rmse_val_mean"])

    def test_failed_cells_marked(self):
        config = config_from_dict(base_raw(epochs=1))
        result = run_sweep(config, "dict_size", [16, 0], repeats=1)
        assert result.rows[0]["failed"] == 0
        assert result.rows[1]["failed"] == 1
        assert math.isnan(result.rows[1]["rmse_val_mean"])

    def test_spike_height_axis(self):
        config = config_from_dict(base_raw(epochs=1))
        result = run_sweep(config, "s", [0.5, 2.0], repeats=1)
        assert [row["value"] for row in result.rows] == [0.5, 2.0]

    def test_unknown_axis_rejected(self):
        config = config_from_dict(base_raw())
        with pytest.raises(ConfigError):
            run_sweep(config, "temperature", [1.0])

    def test_empty_values_rejected(self):
        config = config_from_dict(base_raw())
        with pytest.raises(ConfigError):
            run_sweep(config, "lambda", [])

    def test_two_repeat_ci_is_the_t_interval(self):
        config = config_from_dict(base_raw(epochs=1))
        row = run_sweep(config, "lambda", [0.3], repeats=2).rows[0]
        values = [
            run_training(replace(config, seed=config.seed + r)).metrics.rmse_val[-1]
            for r in range(2)
        ]
        t_975_df1 = 12.706204736174707  # Student t quantile, 0.975, one degree of freedom
        sd = abs(values[0] - values[1]) / math.sqrt(2.0)
        assert values[0] != values[1]
        assert row["rmse_val_mean"] == pytest.approx((values[0] + values[1]) / 2, rel=1e-15)
        assert row["rmse_val_ci"] == pytest.approx(t_975_df1 * sd / math.sqrt(2.0), rel=1e-12)

    def test_csv_output(self, tmp_path):
        config = config_from_dict(base_raw(epochs=1))
        result = run_sweep(config, "lambda", [0.3, 0.5], repeats=1)
        result.write_csv(tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("value,repeats,failed")


class TestDatasetSpecs:
    def test_npy_round_trip_through_config(self, tmp_path):
        from lcalearn.data import save_dataset_npy
        from lcalearn.experiment import load_dataset

        train, valid = generate_synthetic(
            0, SyntheticSpec(train_per_class=2, valid_per_class=1)
        )
        save_dataset_npy(tmp_path / "d", train, valid)
        loaded_train, loaded_valid = load_dataset(
            {"kind": "npy", "path": str(tmp_path / "d")}
        )
        assert len(loaded_train) == len(train)
        np.testing.assert_array_equal(
            loaded_train[0].input.frames, train[0].input.frames
        )

    def test_unknown_kind_rejected(self):
        raw = base_raw()
        raw["dataset"] = {"kind": "imagenet"}
        with pytest.raises(ConfigError):
            config_from_dict(raw)


class TestConfigValidatedAtLoad:
    """Fields are checked by the code that owns them, when the config is built."""

    def test_boxcar_without_window_rejected(self):
        with pytest.raises(ConfigError, match="window_ms"):
            config_from_dict(base_raw(filter={"kind": "boxcar"}))

    def test_exponential_without_time_constant_rejected(self):
        with pytest.raises(ConfigError, match="time_constant_ms"):
            config_from_dict(base_raw(filter={"kind": "exponential"}))

    def test_boxcar_window_shorter_than_dt_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            config_from_dict(base_raw(filter={"kind": "boxcar", "window_ms": 0.5}))

    @pytest.mark.parametrize("kind", ["npy", "cifar", "events"])
    def test_file_dataset_without_path_rejected(self, kind):
        raw = base_raw()
        raw["dataset"] = {"kind": kind}
        with pytest.raises(ConfigError, match="path"):
            config_from_dict(raw)

    def test_classifier_zero_epochs_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            config_from_dict(base_raw(classifier={"epochs": 0}))

    def test_unknown_feature_scheme_rejected(self):
        with pytest.raises(ConfigError, match="feature_scheme 'max'"):
            config_from_dict(base_raw(classifier={"feature_scheme": "max"}))

    def test_classifier_nonpositive_learning_rate_rejected(self):
        with pytest.raises(ConfigError, match="learning_rate must be > 0"):
            config_from_dict(base_raw(classifier={"learning_rate": 0.0}))

    def test_zero_display_period_rejected(self):
        with pytest.raises(ConfigError, match="step"):
            config_from_dict(base_raw(display_ms=0.0))

    @pytest.mark.parametrize("field", ["dataset", "filter", "classifier"])
    @pytest.mark.parametrize("value", ["boxcar", [1, 2], 3])
    def test_non_object_block_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a JSON object"):
            config_from_dict(base_raw(**{field: value}))

    def test_null_filter_and_classifier_allowed(self):
        config = config_from_dict(base_raw(filter=None, classifier=None))
        assert config.filter is None and config.classifier is None

    @pytest.mark.parametrize("key, value, message", [
        ("density", 2.0, "density"),
        ("noise", -0.1, "noise"),
        ("n_classes", 0, "class"),
        ("height", 0, "height"),
        ("saturation", 0, "saturation"),
        ("valid_per_class", -1, "valid_per_class"),
    ])
    def test_synthetic_values_rejected(self, key, value, message):
        raw = base_raw()
        raw["dataset"][key] = value
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)


class TestConfigTypes:
    """Each field has one type, checked when the config is built, naming the key."""

    @pytest.mark.parametrize("key, value, message", [
        ("spike_height", math.nan, "spike_height must be a finite number, got nan"),
        ("tau", math.inf, "tau must be a finite number, got inf"),
        ("gap_ms", math.inf, "gap_ms must be a finite number, got inf"),
        ("lambda", -math.inf, "lambda must be a finite number, got -inf"),
        ("learning_rate", "0.1", "learning_rate must be a finite number, got '0.1'"),
        ("input_spike_height", True, "input_spike_height must be a finite number, got True"),
        ("warm_start", "no", "warm_start must be true or false, got 'no'"),
        ("warm_start", 0, "warm_start must be true or false, got 0"),
        ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
        ("checkpoint_every", 0.5, "checkpoint_every must be an integer, got 0.5"),
        ("epochs", 1.5, "epochs must be an integer, got 1.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("epochs", 2.0, "epochs must be an integer, got 2.0"),
        ("dict_size", 8.5, "dict_size must be an integer or a ratio, got 8.5"),
        ("dict_size", {"ratio": math.nan}, "dict_size ratio must be a finite number > 0, got nan"),
        ("dict_size", {"ratio": "half"}, "dict_size ratio must be a finite number > 0"),
    ])
    def test_wrong_type_rejected_naming_the_key(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(base_raw(**{key: value}))
        assert str(info.value).startswith(message)

    def test_numbers_of_either_kind_accepted(self):
        config = config_from_dict(base_raw(tau=10, spike_height=np.float64(0.5), seed=np.int64(3),
                                           warm_start=True, dict_size={"ratio": 1}))
        assert config.tau == 10 and config.seed == 3 and config.warm_start is True


def test_nan_spike_height_refused_by_evaluate_codes():
    dictionary = init_random(0, 8, lcalearn.InputDims(height=4, width=4))
    valid = generate_synthetic(1, SyntheticSpec(height=4, width=4, frames=1))[1]
    params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=5)
    for height in (math.nan, -1.0):
        with pytest.raises(ValueError, match="spike height must be > 0"):
            evaluate_codes(dictionary, valid, params, spike_height=height)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone takes most of a second to import.
    src = str(Path(lcalearn.__file__).resolve().parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r}); import lcalearn.cli; " \
        "print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    # The sweep's confidence interval imports scipy.special when it needs it.
    src = str(Path(lcalearn.__file__).resolve().parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r}); import lcalearn.cli; " \
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


class TestSweepLoadsDataOnce:
    @staticmethod
    def count_loads(monkeypatch):
        seeds = []
        real = experiment.load_dataset
        monkeypatch.setattr(experiment, "load_dataset",
                            lambda spec, seed=0: seeds.append(seed) or real(spec, seed))
        return seeds

    def test_events_sweep_loads_once_and_writes_the_same_csv(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        root = tmp_path / "events"
        for split, count in (("train", 4), ("valid", 2)):
            (root / split).mkdir(parents=True)
            for k in range(count):
                times = np.sort(rng.integers(0, 6000, size=80))
                events = [(int(t), int(rng.integers(4)), int(rng.integers(4)),
                           int(rng.choice([-1, 1]))) for t in times]
                save_events(root / split / f"{k % 2}_{k}.evt", events, width=4, height=4)
        config = config_from_dict(base_raw(
            dataset={"kind": "events", "path": str(root), "frames_per_window": 2},
            dict_size=8, epochs=1, spike_height=1.0,
            filter={"kind": "boxcar", "window_ms": 5.0},
        ))
        values = [0.5, 1.0, 2.0, 4.0]
        seeds = self.count_loads(monkeypatch)
        swept = run_sweep(config, "s", values)
        assert seeds == [0]
        per_cell = [run_sweep(config, "s", [value]).rows[0] for value in values]
        assert len(seeds) == 1 + len(values)
        swept.write_csv(tmp_path / "once.csv")
        SweepResult(axis="s", rows=per_cell).write_csv(tmp_path / "per_cell.csv")
        assert (tmp_path / "once.csv").read_bytes() == (tmp_path / "per_cell.csv").read_bytes()
        assert all(row["failed"] == 0 for row in swept.rows)

    def test_synthetic_spec_without_seed_loads_once_per_run_seed(self, monkeypatch):
        raw = base_raw(epochs=1)
        del raw["dataset"]["seed"]
        seeds = self.count_loads(monkeypatch)
        result = run_sweep(config_from_dict(raw), "lambda", [0.2, 0.3], repeats=2)
        assert seeds == [0, 1]
        assert result.failures == []


class TestSweepFailureReasons:
    def test_failed_run_keeps_exception_type_and_message(self):
        config = config_from_dict(base_raw(epochs=1))
        result = run_sweep(config, "lambda", [0.3, -1.0], repeats=2)
        assert result.rows[1]["failed"] == 2
        assert [(f["value"], f["seed"]) for f in result.failures] == [(-1.0, 0), (-1.0, 1)]
        for failure in result.failures:
            assert failure["error"].startswith("ConfigError: ")
            assert "threshold must be >= 0" in failure["error"]

    def test_no_failures_when_every_run_completes(self):
        config = config_from_dict(base_raw(epochs=1))
        assert run_sweep(config, "lambda", [0.3], repeats=1).failures == []


class TestSplitsRefusedBeforeTraining:
    """``run_training`` and every ``run_sweep`` cell refuse a bad split in the commands' words."""

    @pytest.fixture()
    def bad(self, tmp_path):
        """(config, the refusal minus the config's path) for each bad split."""
        train, _ = generate_synthetic(1, SyntheticSpec(height=8, width=8, frames=2,
                                                        train_per_class=2, valid_per_class=0))
        odd = [LabeledSample(FrameSequence(np.zeros((1, 4, 4))), 0)]
        save_dataset_npy(tmp_path / "odd", train, odd)
        empty = base_raw()["dataset"] | {"train_per_class": 0}
        one_class = base_raw()["dataset"] | {"n_classes": 1}
        return {
            "empty-train": (base_raw(dataset=empty), "the train split of its dataset is empty"),
            "valid-of-other-dims": (
                base_raw(dataset={"kind": "npy", "path": str(tmp_path / "odd")}),
                "valid sample 0 of its dataset has dims (4, 4, 1, 1), but train sample 0 has "
                "(8, 8, 1, 2)"),
            "one-class-readout": (
                base_raw(dataset=one_class, classifier={"epochs": 5}),
                "a readout needs train samples from at least two classes, but its dataset's "
                "train split holds only class 0"),
        }

    @pytest.fixture()
    def steps(self, monkeypatch):
        calls = []
        real = lca._euler
        monkeypatch.setattr(lca, "_euler", lambda *args: calls.append(1) or real(*args))
        return calls

    @pytest.mark.parametrize("case", ["empty-train", "valid-of-other-dims", "one-class-readout"])
    def test_run_training_refuses_before_any_step(self, bad, steps, case):
        raw, message = bad[case]
        with pytest.raises(ConfigError) as info:
            run_training(config_from_dict(raw))
        assert str(info.value) == message
        assert steps == []

    @pytest.mark.parametrize("case", ["empty-train", "valid-of-other-dims", "one-class-readout"])
    def test_each_sweep_cell_refuses_before_any_step(self, bad, steps, case):
        raw, message = bad[case]
        result = run_sweep(config_from_dict(raw), "s", [0.0, 1.0])
        assert [f["error"] for f in result.failures] == [f"ConfigError: {message}"] * 2
        assert [row["failed"] for row in result.rows] == [1, 1]
        assert steps == []

    def test_a_start_dictionary_of_other_dims_is_refused_in_the_commands_words(self):
        config = config_from_dict(base_raw())
        with pytest.raises(ConfigError) as info:
            run_training(config, initial_dictionary=init_random(0, 3, InputDims(4, 4)))
        assert str(info.value) == ("dictionary dims (4, 4, 1, 1) do not match the dims "
                                   "(8, 8, 1, 2) of the dataset")
