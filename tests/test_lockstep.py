"""Lock-step sweep training: each stacked run is byte-identical to the same run trained alone."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from lcalearn import experiment
from lcalearn.data import FrameSequence, LabeledSample
from lcalearn.dictionary import Dictionary
from lcalearn.errors import NumericError
from lcalearn.experiment import config_from_dict, config_to_dict, run_sweep, run_training
from lcalearn.lca import inhibition


def raw_config(**overrides):
    raw = {
        "dataset": {
            "kind": "synthetic", "seed": 1, "height": 6, "width": 6, "frames": 2,
            "train_per_class": 3, "valid_per_class": 2,
        },
        "dict_size": 16,
        "lambda": 0.3,
        "tau": 10.0, "display_ms": 25.0,
        "epochs": 2, "learning_rate": 0.02, "seed": 0,
    }
    raw.update(overrides)
    return raw


def spy_stacks(monkeypatch):
    """Record the runs (and the trainer) of every lock-step stack that trains."""
    stacks = []
    real = experiment._LockStep.train

    def train(self):
        stacks.append((self, list(self.runs)))
        return real(self)

    monkeypatch.setattr(experiment._LockStep, "train", train)
    return stacks


def spy_live_stacks(monkeypatch):
    """Log each ``_period`` and ``_frozen_pass`` call's runs with the trainer's live runs then.

    Returns a list of (live runs, the call's stack shape before (N, D)); a
    call that holds every live run logs (k, (k,)).
    """
    live, calls = [], []
    for name in ("stacked_period", "end_epoch"):
        def outer(trainer, *args, real=getattr(experiment._LockStep, name), **kwargs):
            live.append(len(trainer.runs))
            return real(trainer, *args, **kwargs)

        monkeypatch.setattr(experiment._LockStep, name, outer)
    for name in ("_period", "_frozen_pass"):
        def inner(stack, *args, real=getattr(experiment, name), **kwargs):
            calls.append((live[-1], stack.elements.shape[:-2]))
            return real(stack, *args, **kwargs)

        monkeypatch.setattr(experiment, name, inner)
    return calls


def sweep(monkeypatch, tmp_path, name, config, axis, values, repeats, *, alone):
    """Run a sweep stacked (or every run alone); returns its CSV bytes, failures and runs."""
    with monkeypatch.context() as patch:
        if alone:
            patch.setattr(experiment, "STACK_BYTES", 1)  # one run per stack
        stacks = spy_stacks(patch)
        result = run_sweep(config, axis, values, repeats=repeats)
    result.write_csv(tmp_path / f"{name}.csv")
    runs = {
        json.dumps(config_to_dict(run.config), sort_keys=True): (run, trainer)
        for trainer, stack in stacks for run in stack
    }
    return (tmp_path / f"{name}.csv").read_bytes(), result.failures, runs, stacks


def assert_lockstep_matches_solo(monkeypatch, tmp_path, config, axis, values, repeats=1):
    csv_stacked, failures_stacked, stacked, stacks = sweep(
        monkeypatch, tmp_path, "stacked", config, axis, values, repeats, alone=False)
    csv_alone, failures_alone, alone, _ = sweep(
        monkeypatch, tmp_path, "alone", config, axis, values, repeats, alone=True)
    assert max(len(runs) for _, runs in stacks) > 1  # something did train in lock-step
    assert csv_stacked == csv_alone
    assert failures_stacked == failures_alone
    assert stacked.keys() == alone.keys()
    for key, (run, trainer) in stacked.items():
        solo, solo_trainer = alone[key]
        assert (run.error is None) == (solo.error is None)
        if run.error is not None:
            assert repr(run.error) == repr(solo.error)
            continue
        got, want = trainer.result(run), solo_trainer.result(solo)
        assert got.dictionary.elements.tobytes() == want.dictionary.elements.tobytes()
        assert repr(asdict(got.metrics)) == repr(asdict(want.metrics))
        for name in ("train_features", "valid_features"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
    return {key: run for key, (run, _) in stacked.items()}


class TestLockStepMatchesSolo:
    def test_lambda_axis_with_repeats(self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config(classifier={"epochs": 5}))
        assert_lockstep_matches_solo(monkeypatch, tmp_path, config, "lambda", [0.2, 0.4, 0.6],
                                     repeats=2)

    def test_spike_height_axis_with_a_graded_value(self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config(
            spike_height=1.0, filter={"kind": "boxcar", "window_ms": 6.0}))
        runs = assert_lockstep_matches_solo(monkeypatch, tmp_path, config, "s",
                                            [0.0, 0.5, 1.0, 2.0])
        assert any(run.config.spike_height == 0.0 for run in runs.values())

    def test_dict_size_axis_with_an_invalid_value(self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config())
        stacked = assert_lockstep_matches_solo(
            monkeypatch, tmp_path, config, "dict_size", [8, 12, 0, 8, {"ratio": 0.001}])
        sizes = sorted(run.n for run in stacked.values())
        assert sizes == [8, 12]  # the two 8s share a config; 0 and the ratio never build

    def test_synthetic_spec_without_seed(self, monkeypatch, tmp_path):
        raw = raw_config()
        del raw["dataset"]["seed"]
        assert_lockstep_matches_solo(monkeypatch, tmp_path, config_from_dict(raw), "lambda",
                                     [0.2, 0.4], repeats=2)

    def test_warm_start_with_gap(self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config(
            spike_height=0.5, warm_start=True, gap_ms=5.0,
            filter={"kind": "exponential", "time_constant_ms": 4.0}))
        assert_lockstep_matches_solo(monkeypatch, tmp_path, config, "s", [0.0, 0.5, 1.5],
                                     repeats=2)

    def test_rate_encoding(self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config(
            spike_height=0.5, input_encoding="rate", input_spike_height=0.05,
            classifier={"epochs": 5, "feature_scheme": "final"}))
        assert_lockstep_matches_solo(monkeypatch, tmp_path, config, "lambda", [0.2, 0.3])

    def test_batch_size_three(self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config(batch_size=3))
        assert_lockstep_matches_solo(monkeypatch, tmp_path, config, "lambda", [0.2, 0.3, 0.4])

    def test_validation_in_chunks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(experiment, "INFER_CHUNK", 3)  # 8 samples: chunks of 3, 3, 2
        config = config_from_dict(raw_config(spike_height=1.0))
        assert_lockstep_matches_solo(monkeypatch, tmp_path, config, "s", [0.5, 1.0, 2.0],
                                     repeats=2)

    def test_progress_lines_keep_the_value_order(self):
        config = config_from_dict(raw_config(spike_height=1.0, epochs=1))
        lines = []
        run_sweep(config, "s", [0.5, 0.0, 1.0], repeats=2, progress=lines.append)
        assert lines == [f"s={v} repeat {r}/2 done" for v in (0.5, 0.0, 1.0) for r in (1, 2)]

    def test_training_matches_run_training(self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config(spike_height=1.0))
        _, _, stacked, _ = sweep(monkeypatch, tmp_path, "s", config, "s", [0.5, 1.0], 1,
                                 alone=False)
        for run, trainer in stacked.values():
            alone, got = run_training(run.config), trainer.result(run)
            assert alone.dictionary.elements.tobytes() == got.dictionary.elements.tobytes()
            assert alone.metrics.rows() == got.metrics.rows()


class TestValidation:
    @pytest.mark.parametrize("axis, values, extra", [
        ("lambda", [0.2, 0.4, 0.6], {}),
        ("s", [0.5, 1.0, 2.0], {"spike_height": 1.0,
                                "filter": {"kind": "boxcar", "window_ms": 6.0}}),
    ], ids=["lambda", "s"])
    def test_each_run_validates_at_its_own_setting(self, monkeypatch, axis, values, extra):
        config = config_from_dict(raw_config(classifier={"epochs": 5}, **extra))
        stacks = spy_stacks(monkeypatch)
        run_sweep(config, axis, values)
        ((trainer, runs),) = stacks
        assert len(runs) == len(values)
        for run in runs:
            result = trainer.result(run)
            report = experiment.evaluate_codes(
                result.dictionary, run.valid, run.config.lca_params(),
                run.config.spike_height, run.config.filter)
            assert run.metrics.rmse_val[-1] == report["rmse"]
            assert run.metrics.sparsity_pct[-1] == report["sparsity_pct"]
            assert np.array_equal(
                result.valid_features,
                experiment.collect_features(result.dictionary, run.valid, run.config))


class TestFailureMasking:
    def test_tiny_spike_height_fails_alone_and_leaves_the_other_run(self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config(spike_height=1.0, epochs=1))
        stacked = assert_lockstep_matches_solo(monkeypatch, tmp_path, config, "s", [1.0, 1e-310])
        result = run_sweep(config, "s", [1.0, 1e-310])
        assert [row["failed"] for row in result.rows] == [0, 1]
        (failure,) = result.failures
        assert re.fullmatch(r"NumericError: non-finite membrane potential at step \d+",
                            failure["error"])
        bad = next(run for run in stacked.values() if run.error is not None)
        with pytest.raises(NumericError) as info:
            run_training(bad.config)
        assert f"NumericError: {info.value}" == failure["error"]

    def test_two_tiny_spike_heights_fail_in_one_stack_each_with_its_own_error(
            self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config(spike_height=1.0, epochs=1))
        values = [1e-310, 1.0, 3e-320]
        stacked = assert_lockstep_matches_solo(monkeypatch, tmp_path, config, "s", values)
        result = run_sweep(config, "s", values)
        assert [row["failed"] for row in result.rows] == [1, 0, 1]
        assert [failure["value"] for failure in result.failures] == [1e-310, 3e-320]
        for failure in result.failures:
            assert re.fullmatch(r"NumericError: non-finite membrane potential at step \d+",
                                failure["error"])
            with pytest.raises(NumericError) as info:
                run_training(experiment.apply_axis(config, "s", failure["value"]))
            assert f"NumericError: {info.value}" == failure["error"]
        assert sum(run.error is not None for run in stacked.values()) == 2

    def test_a_rate_encoded_nan_in_training_fails_only_its_own_run(self):
        # A non-finite input fails the rate encoding of its own run only: the
        # stack names that run, and the other trains as it does alone.
        config = config_from_dict(raw_config(
            spike_height=0.5, input_encoding="rate", epochs=1))
        train, valid = experiment.load_dataset(config.dataset)
        broken = list(train)
        broken[2] = LabeledSample(FrameSequence(np.full(train[2].input.frames.shape, np.nan)),
                                  train[2].label)
        runs = [experiment._prepare_run(config, train, valid),
                experiment._prepare_run(config, broken, valid)]
        trainer = experiment._LockStep(runs)
        trainer.train()
        assert runs[0].error is None
        assert repr(runs[1].error) == repr(NumericError("non-finite desired output in accumulator"))
        alone = run_training(config, train, valid)
        got = trainer.result(runs[0])
        assert got.dictionary.elements.tobytes() == alone.dictionary.elements.tobytes()
        with pytest.raises(NumericError, match="non-finite desired output"):
            run_training(config, broken, valid)

    def test_a_rate_encoded_nan_in_training_keeps_every_live_run_in_the_stack(self,
                                                                              monkeypatch):
        # As above, but every period and pass must hold all the live runs:
        # the NaN fails its own run in the stacked period, with no rerun alone.
        config = config_from_dict(raw_config(
            spike_height=0.5, input_encoding="rate", epochs=1))
        train, valid = experiment.load_dataset(config.dataset)
        broken = list(train)
        broken[2] = LabeledSample(FrameSequence(np.full(train[2].input.frames.shape, np.nan)),
                                  train[2].label)
        runs = [experiment._prepare_run(config, train, valid),
                experiment._prepare_run(config, broken, valid)]
        calls = spy_live_stacks(monkeypatch)
        experiment._LockStep(runs).train()
        assert repr(runs[1].error) == repr(NumericError("non-finite desired output in accumulator"))
        assert runs[0].error is None
        assert (2, (2,)) in calls and (1, (1,)) in calls
        assert all(shape == (live,) for live, shape in calls)


    def test_a_stack_that_breaks_fails_its_runs_not_the_sweep(self, monkeypatch):
        def broken(cls, *args):
            raise MemoryError("no room for the stack")

        monkeypatch.setattr(experiment._Stack, "build", classmethod(broken))
        result = run_sweep(config_from_dict(raw_config(epochs=1)), "lambda", [0.2, 0.3])
        assert [row["failed"] for row in result.rows] == [1, 1]
        assert [f["error"] for f in result.failures] == ["MemoryError: no room for the stack"] * 2


class TestTrainingState:
    @pytest.mark.parametrize("extra", [
        {},
        {"spike_height": 0.5, "filter": {"kind": "boxcar", "window_ms": 6.0}},
        {"batch_size": 3},
    ], ids=["graded", "spiking", "batched"])
    def test_inhibition_tracks_a_full_rebuild(self, monkeypatch, extra):
        dims = experiment.load_dataset(raw_config()["dataset"])[0][0].input.dims
        checked = []
        real = experiment._Stack.refresh

        def refresh(self, r, rows):
            real(self, r, rows)
            full = inhibition(Dictionary(self.elements[r].copy(), dims))
            checked.append(float(np.abs(self.inhib[r] - full).max()))

        monkeypatch.setattr(experiment._Stack, "refresh", refresh)
        config = config_from_dict(raw_config(**extra))
        run_sweep(config, "lambda", [0.2, 0.3])
        assert len(checked) >= 16
        assert max(checked) < 1e-12

    def test_results_do_not_alias_the_stack(self, monkeypatch, tmp_path):
        config = config_from_dict(raw_config(epochs=1))
        _, _, stacked, stacks = sweep(monkeypatch, tmp_path, "a", config, "lambda", [0.2, 0.3],
                                      1, alone=False)
        ((trainer, runs),) = stacks
        for run in runs:
            assert not np.shares_memory(trainer.result(run).dictionary.elements,
                                        trainer.state.elements)

    def test_initial_dictionary_is_left_unchanged(self):
        config = config_from_dict(raw_config(epochs=1))
        train, valid = experiment.load_dataset(config.dataset)
        start = experiment.init_random(5, 16, train[0].input.dims)
        before = start.elements.copy()
        result = run_training(config, train, valid, initial_dictionary=start)
        assert np.array_equal(start.elements, before)
        assert not np.array_equal(result.dictionary.elements, before)
