"""Periods that compute only what their caller reads, and stacked validation, bit for bit.

A period reads its code at the last step, on the last half when its
caller reads the last-half mean, or on every step when it records them
(``lca._first_read``); the spiking stage feeds its filter only the frames
those reads need. Every period here must give the bits of a period that
reads every step on the frozen reference stage (``reference_spiking``).
Training validates the runs of a lock-step stack in one stacked
``_frozen_pass``, which must give each run the bits of its solo pass.
"""

import re

import numpy as np
import pytest

from lcalearn import accumulator, experiment, lca
from lcalearn.data import FrameSequence, LabeledSample
from lcalearn.dictionary import init_random
from lcalearn.errors import NumericError
from lcalearn.filters import BoxcarFilter
from lcalearn.experiment import PeriodSpec, config_from_dict, run_sweep, run_training
from lcalearn.lca import LcaParams, _run_period

from reference_spiking import ReferenceStage, reference_filter
from test_engine_batch import instance
from test_lockstep import raw_config, spy_live_stacks, spy_stacks
from test_engine_reference import (
    OVERFLOW_HEIGHT,
    OVERFLOW_PARAMS,
    overflow_input,
    overflow_instance,
)
from test_spiking_reference import ReplaySpy, filter_id, same

HEIGHTS = [0.5, 1.0, 5.0, 20.0, 0.37]
FILTERS = [
    None,
    {"kind": "exponential", "time_constant_ms": 10.0},
    {"kind": "boxcar", "window_ms": 40.0},
    {"kind": "boxcar", "window_ms": 7.0},
]
LAM = 0.3


def holder(shape, height, scale):
    """A dictionary's stack of one (or a stack of two) with input and the per-run lam and heights.

    ``shape`` is "solo" (x (1, 1, D)), "batch" (x (1, B, D)) or "stack": two
    runs at heights ``height`` and ``2 * height``, x (2, B, D).
    """
    dictionary, x = instance(4, scale=scale)
    if shape != "stack":
        stack = experiment._Stack.build(dictionary.elements[None], [LAM], [height],
                                        dictionary.dims)
        return stack, stack.inhib, x[None, :1] if shape == "solo" else x[None], None, height
    other = init_random(9, dictionary.element_count, dictionary.dims)
    stack = experiment._Stack.build(np.stack([dictionary.elements, other.elements]),
                                    [LAM, LAM], [height, 2 * height], dictionary.dims)
    heights = np.array([height, 2 * height])[:, None, None]
    return stack, stack.inhib, np.stack([x, x[::-1]]), np.full((2, 1, 1), LAM), heights


def assert_reads_match_a_full_read(shape, height, spec, steps, scale):
    """``_period`` with and without the half-mean against the reference stage reading every step."""
    params = LcaParams(lam=LAM, dt=1.0, tau=10.0, steps=steps)
    dictionary, inhib, x, lam, heights = holder(shape, height, scale)
    want_stage = ReferenceStage(LAM if lam is None else lam, heights,
                                np.zeros(x.shape[:-1] + (12,)), reference_filter(spec, 1.0))
    want = _run_period(dictionary.elements, inhib, x, params, want_stage)
    for half in (False, True):
        got = experiment._period(dictionary, x, PeriodSpec(params, height, spec), half=half)
        same(got.code, want.code)
        same(got.state.u, want.state.u)
        for name in ("carry", "counts", "value", "peak", "total"):
            same(getattr(got, name), getattr(want_stage, name))
        if half:
            same(got.half_mean, want.half_mean)
        else:
            assert got.half_mean is None
    return got


class TestReadDrivenPeriod:
    @pytest.mark.parametrize("shape", ["solo", "batch", "stack"])
    @pytest.mark.parametrize("spec", FILTERS, ids=filter_id)
    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("steps", [60, 25], ids=["steps60", "steps25"])
    def test_skipped_reads_keep_the_bits(self, shape, height, spec, steps):
        got = assert_reads_match_a_full_read(shape, height, spec, steps, 3.0 * max(1.0, height))
        assert got.total.sum() > 0

    @pytest.mark.parametrize("shape", ["solo", "batch", "stack"])
    @pytest.mark.parametrize("spec", FILTERS[2:], ids=["boxcar40", "boxcar7"])
    def test_exactness_replay_keeps_the_bits(self, monkeypatch, shape, spec):
        # m = 2**26 - 1 starts the period exact; counts near 1e9 break the
        # bound, so each period is replayed on the corrected path.
        spy = ReplaySpy(monkeypatch)
        height = (2**26 - 1) * 2.0**-26
        assert_reads_match_a_full_read(shape, height, spec, 60, 1e9)
        assert spy.answers == [False, False]  # half-mean skipped, then read

    @pytest.mark.parametrize("reads, fed, read", [("final", 7, 1), ("half", 36, 30),
                                                  ("record", 60, 60)])
    def test_the_boxcar_sees_only_the_frames_read(self, monkeypatch, reads, fed, read):
        # 60 steps, W = 7: the final code needs steps 53-59; the last-half mean
        # is read from step 30, which needs steps 24 on; a recording reads all.
        flags = []
        real = BoxcarFilter.step
        monkeypatch.setattr(BoxcarFilter, "step",
                            lambda f, value, read=True: flags.append(read) or real(f, value, read))
        dictionary, x = instance(4, scale=3.0)
        spec = PeriodSpec(LcaParams(lam=LAM, dt=1.0, tau=10.0, steps=60), 1.0,
                          {"kind": "boxcar", "window_ms": 7.0})
        experiment._period(experiment._Stack.lone(dictionary, spec), x[None, :1], spec,
                           half=reads == "half", record=reads == "record", rows=None)
        assert (len(flags), sum(flags)) == (fed, read)

    @pytest.mark.parametrize("half", [False, True])
    def test_graded_period_skips_only_the_half_mean(self, half):
        dictionary, x = instance(4)
        params = LcaParams(lam=LAM, dt=1.0, tau=10.0, steps=60)
        stack = experiment._Stack.lone(dictionary, PeriodSpec(params))
        want = _run_period(stack.elements, stack.inhib, x[None], params,
                           experiment._output_stage(LAM, 0.0))
        got = experiment._period(stack, x[None], PeriodSpec(params), half=half)
        same(got.code, want.code)
        same(got.state.u, want.state.u)
        if half:
            same(got.half_mean, want.half_mean)
        else:
            assert got.half_mean is None

    @pytest.mark.parametrize("scheme, half", [(None, False), ("final", False),
                                              ("mean_last_half", True)])
    def test_training_reads_the_half_mean_only_for_its_features(self, monkeypatch, scheme,
                                                                half):
        classifier = None if scheme is None else {"epochs": 5, "feature_scheme": scheme}
        config = config_from_dict(raw_config(
            spike_height=1.0, filter={"kind": "boxcar", "window_ms": 6.0}, epochs=1,
            classifier=classifier))
        seen = set()
        real = experiment._period
        monkeypatch.setattr(experiment, "_period",
                            lambda *a, half=True, **k: seen.add(half) or real(*a, half=half, **k))
        run_training(config)
        assert seen == {half}


def sweep_runs(config, axis, values):
    """A lock-step trainer over the runs of a sweep, trained; returns it and its runs."""
    runs = []
    for value in values:
        cfg = experiment.apply_axis(config, axis, value)
        runs.append(experiment._prepare_run(cfg, *experiment.load_dataset(cfg.dataset)))
    trainer = experiment._LockStep(runs)
    trainer.train()
    assert all(run.done for run in runs)
    return trainer, runs


def assert_same_record(got, want):
    assert (got.rmse, got.sparsity, got.peak, got.spikes) == (want.rmse, want.sparsity,
                                                               want.peak, want.spikes)
    same(got.features, want.features)


SWEEPS = [
    ("lambda", [0.2, 0.4, 0.6], {}),
    ("lambda", [0.2, 0.4], {"spike_height": 0.5, "input_encoding": "rate",
                            "input_spike_height": 0.05}),
    ("s", HEIGHTS, {"spike_height": 1.0, "filter": {"kind": "boxcar", "window_ms": 7.0}}),
    ("s", [0.5, 1.0, 5.0, 20.0], {"spike_height": 1.0,
                                  "filter": {"kind": "boxcar", "window_ms": 40.0}}),
    ("s", [0.5, 0.37], {"spike_height": 1.0,
                        "filter": {"kind": "exponential", "time_constant_ms": 4.0}}),
]


class TestStackedValidation:
    @pytest.mark.parametrize("classifier", [None, {"epochs": 5, "feature_scheme": "final"},
                                            {"epochs": 5}], ids=["none", "final", "half"])
    @pytest.mark.parametrize("axis, values, extra", SWEEPS,
                             ids=["lambda", "lambda-rate", "s-boxcar7", "s-boxcar40", "s-exp"])
    def test_stacked_pass_is_each_runs_solo_pass(self, monkeypatch, axis, values, extra,
                                                 classifier):
        monkeypatch.setattr(experiment, "INFER_CHUNK", 3)  # 8 samples: chunks of 3, 3, 2
        config = config_from_dict(raw_config(epochs=1, classifier=classifier, **extra))
        trainer, runs = sweep_runs(config, axis, values)
        spec = config.period_spec()
        scheme = config.feature_scheme
        state = trainer.state
        stacked = experiment._frozen_pass(
            experiment._Stack.build(state.elements, state.lam, state.spike_height, state.dims),
            [run.valid for run in runs], spec, scheme)
        for i, run in enumerate(runs):
            solo_spec = run.config.period_spec()
            (solo,) = experiment._frozen_pass(
                experiment._Stack.lone(trainer.state.dictionary(i), solo_spec),
                [run.valid], solo_spec, scheme)
            assert_same_record(stacked[i], solo)
            metrics = run.metrics
            assert metrics.rmse_val[-1] == solo.rmse / len(run.valid)
            assert metrics.sparsity_pct[-1] == solo.sparsity / len(run.valid)
            if classifier is not None:
                same(trainer.result(run).valid_features, solo.features)

    def test_an_epoch_validates_in_one_stacked_pass(self, monkeypatch):
        runs = []
        real = experiment._frozen_pass
        monkeypatch.setattr(experiment, "_frozen_pass",
                            lambda h, *a: runs.append(len(h.elements)) or real(h, *a))
        run_sweep(config_from_dict(raw_config(spike_height=1.0)), "s", [0.5, 1.0, 5.0])
        assert runs == [3, 3]  # one stacked pass of all 3 runs per epoch, none alone

    def test_validation_stacks_stay_within_stack_bytes(self, monkeypatch):
        # One run's validation chunk at INFER_CHUNK = 64, N = 16, D = 72 takes
        # about 176 kB, and its training dictionary about 11 kB: all three runs
        # train in one stack, and its one pass per epoch validates them one by one.
        config = config_from_dict(raw_config(spike_height=1.0, classifier={"epochs": 5}))
        default, _ = spied_sweep(monkeypatch, config)
        monkeypatch.setattr(experiment, "STACK_BYTES", 200_000)
        passes, chunks = [], []
        real_pass, real_period = experiment._frozen_pass, experiment._period

        def period(h, x, *a, rows=None, **k):
            if rows is not None:  # a frozen pass's chunk, not a training period
                chunks.append(x.shape)
            return real_period(h, x, *a, rows=rows, **k)

        monkeypatch.setattr(experiment, "_frozen_pass",
                            lambda h, *a: passes.append(h.elements.shape) or real_pass(h, *a))
        monkeypatch.setattr(experiment, "_period", period)
        small, stacks = spied_sweep(monkeypatch, config)
        assert [len(runs) for _, runs in stacks] == [3]
        assert passes == [(3, 16, 72)] * 2  # one pass per epoch
        assert chunks == [(1, 8, 72)] * 6  # 3 runs x 2 epochs, 8 samples each
        for height, (run, trainer) in small.items():
            other, other_trainer = default[height]
            assert repr(run.metrics) == repr(other.metrics)
            same(trainer.result(run).valid_features, other_trainer.result(other).valid_features)


def spied_sweep(monkeypatch, config):
    """An s sweep over 0.5, 1 and 2: each run with its trainer by height, and the stacks."""
    with monkeypatch.context() as patch:
        stacks = spy_stacks(patch)
        run_sweep(config, "s", [0.5, 1.0, 2.0])
    runs = {run.config.spike_height: (run, trainer) for trainer, stack in stacks
            for run in stack}
    return runs, stacks


def sample(values, label=0):
    return LabeledSample(FrameSequence(np.reshape(values, (1, 1, -1))), label)


def assert_fails_alone(config, train, valids, bad, error, initial=None):
    """Runs on the same training samples, one validation set each: run ``bad`` fails alone."""
    runs = [experiment._prepare_run(config, train, valid, initial) for valid in valids]
    trainer = experiment._LockStep(runs)
    trainer.train()
    assert [run.error is not None for run in runs] == [i == bad for i in range(len(runs))]
    with pytest.raises(NumericError, match=error) as info:
        run_training(config, train, valids[bad], initial_dictionary=initial)
    assert repr(runs[bad].error) == repr(info.value)
    for run, valid in zip(runs, valids):
        if run.error is None:
            alone = run_training(config, train, valid, initial_dictionary=initial)
            got = trainer.result(run)
            same(got.dictionary.elements, alone.dictionary.elements)
            assert repr(got.metrics) == repr(alone.metrics)


class TestValidationFailure:
    @pytest.mark.parametrize("height", [0.0, OVERFLOW_HEIGHT], ids=["graded", "spiking"])
    def test_a_run_that_goes_nonfinite_fails_alone(self, height):
        # Zero training input leaves the dictionary as it is; a validation
        # input near 1.19e308 drives its potentials past the float range
        # part-way through the period (see ``overflow_instance``).
        config = config_from_dict({
            "dataset": {"kind": "npy", "path": "unused"}, "dict_size": 3,
            "lambda": OVERFLOW_PARAMS.lam, "tau": OVERFLOW_PARAMS.tau,
            "display_ms": float(OVERFLOW_PARAMS.steps), "spike_height": height,
            "filter": {"kind": "boxcar", "window_ms": 7.0}, "epochs": 1,
        })
        train = [sample(np.zeros(2))]
        valids = [[sample([1.0, 1.5]), sample([0.5, 0.2])],
                  [sample([1.0, 1.5]), sample(overflow_input([1.19])[0])],
                  [sample([0.3, 1.0]), sample([0.5, 0.2])]]
        assert_fails_alone(config, train, valids, 1,
                           r"non-finite membrane potential at step \d+, row 1",
                           overflow_instance())

    @pytest.mark.parametrize("height", [0.0, OVERFLOW_HEIGHT], ids=["graded", "spiking"])
    def test_a_run_dropped_from_a_warm_start_stack_fails_alone(self, height, monkeypatch):
        # The overflowing run leaves at the end of epoch 1, while the stack
        # holds a warm period, which the drop cuts to the remaining runs.
        config = config_from_dict({
            "dataset": {"kind": "npy", "path": "unused"}, "dict_size": 3,
            "lambda": OVERFLOW_PARAMS.lam, "tau": OVERFLOW_PARAMS.tau,
            "display_ms": float(OVERFLOW_PARAMS.steps), "spike_height": height,
            "filter": {"kind": "boxcar", "window_ms": 7.0}, "epochs": 2,
            "warm_start": True, "gap_ms": 3.0,
        })
        drops = []  # (runs in the stack, whether it holds a warm period) at each drop
        real = experiment._LockStep.drop
        monkeypatch.setattr(experiment._LockStep, "drop", lambda trainer, errors: (
            errors and drops.append((len(trainer.runs), trainer.warm is not None)),
            real(trainer, errors)))
        train = [sample([0.4, -0.2]), sample([0.1, 0.3])]
        valids = [[sample([1.0, 1.5]), sample([0.5, 0.2])],
                  [sample([1.0, 1.5]), sample(overflow_input([1.19])[0])],
                  [sample([0.3, 1.0]), sample([0.5, 0.2])]]
        assert_fails_alone(config, train, valids, 1,
                           r"non-finite membrane potential at step \d+, row 1",
                           overflow_instance())
        assert (3, True) in drops

    def test_a_rate_encoded_nan_in_validation_fails_only_its_own_run(self):
        # A NaN validation input fails the rate encoding of its own run only;
        # the other runs validate as they do alone.
        config = config_from_dict(raw_config(epochs=1, spike_height=0.5,
                                             input_encoding="rate"))
        train, valid = experiment.load_dataset(config.dataset)
        broken = list(valid)
        broken[4] = LabeledSample(FrameSequence(np.full(valid[4].input.frames.shape, np.nan)),
                                  valid[4].label)
        assert_fails_alone(config, train, [valid, broken, valid[::-1]], 1,
                           "non-finite desired output in accumulator")

    def test_a_rate_encoded_nan_in_validation_keeps_every_live_run_in_the_stack(self,
                                                                                monkeypatch):
        # As above, but every period and pass must hold all the live runs:
        # the NaN fails its own run in the stacked pass, with no pass alone.
        config = config_from_dict(raw_config(epochs=1, spike_height=0.5,
                                             input_encoding="rate"))
        train, valid = experiment.load_dataset(config.dataset)
        broken = list(valid)
        broken[4] = LabeledSample(FrameSequence(np.full(valid[4].input.frames.shape, np.nan)),
                                  valid[4].label)
        runs = [experiment._prepare_run(config, train, v) for v in (valid, broken, valid[::-1])]
        calls = spy_live_stacks(monkeypatch)
        experiment._LockStep(runs).train()
        assert [run.error is not None for run in runs] == [False, True, False]
        assert repr(runs[1].error) == repr(NumericError("non-finite desired output in accumulator"))
        assert calls and all(shape == (live,) == (3,) for live, shape in calls)

    @pytest.mark.parametrize("height", [0.0, OVERFLOW_HEIGHT], ids=["graded", "spiking"])
    def test_a_run_that_fails_sits_out_the_later_chunks_of_its_pass(self, monkeypatch, height):
        # Six validation samples in chunks of 2: run 1 overflows on every one,
        # so only its first chunk is replayed with checks; the later chunks
        # run without it.
        monkeypatch.setattr(experiment, "INFER_CHUNK", 2)
        config = config_from_dict({
            "dataset": {"kind": "npy", "path": "unused"}, "dict_size": 3,
            "lambda": OVERFLOW_PARAMS.lam, "tau": OVERFLOW_PARAMS.tau,
            "display_ms": float(OVERFLOW_PARAMS.steps), "spike_height": height,
            "filter": {"kind": "boxcar", "window_ms": 7.0}, "epochs": 1,
        })
        train = [sample(np.zeros(2))]
        good = [sample([1.0, 1.5]), sample([0.5, 0.2]), sample([0.3, 1.0]),
                sample([0.2, 0.1]), sample([1.2, 0.4]), sample([0.7, 0.9])]
        valids = [good, [sample(x) for x in overflow_input([1.19, 1.1, 1.19, 1.0, 1.1, 1.19])],
                  good[::-1]]
        checks = []
        with monkeypatch.context() as patch:
            stage_type = lca._GradedStage if height == 0 else accumulator._SpikingStage
            real = stage_type.begin  # every pass begins the stage once
            patch.setattr(stage_type, "begin",
                          lambda stage, u, check: checks.append(check) or real(stage, u, check))
            runs = [experiment._prepare_run(config, train, valid, overflow_instance())
                    for valid in valids]
            trainer = experiment._LockStep(runs)
            trainer.train()
        assert checks.count(True) == 1  # one checked replay in the epoch
        assert [run.error is not None for run in runs] == [False, True, False]
        with pytest.raises(NumericError) as info:
            run_training(config, train, valids[1], initial_dictionary=overflow_instance())
        assert repr(runs[1].error) == repr(info.value)
        for run, valid in zip(runs, valids):
            if run.error is None:
                alone = run_training(config, train, valid, initial_dictionary=overflow_instance())
                got = trainer.result(run)
                same(got.dictionary.elements, alone.dictionary.elements)
                assert repr(got.metrics) == repr(alone.metrics)

    @pytest.mark.parametrize("height", [0.0, 0.05], ids=["graded", "spiking"])
    def test_a_drop_keeps_the_warm_rows_of_the_runs_that_stay(self, height):
        # The runs differ in lambda, so each holds warm rows of its own; run 1
        # overflows in validation at the end of epoch 1 and leaves the stack,
        # and runs 0 and 2 must go on from their own warm periods.
        raw = {
            "dataset": {"kind": "npy", "path": "unused"}, "dict_size": 3,
            "tau": OVERFLOW_PARAMS.tau, "display_ms": float(OVERFLOW_PARAMS.steps),
            "spike_height": height, "filter": {"kind": "boxcar", "window_ms": 7.0},
            "epochs": 2, "warm_start": True, "gap_ms": 3.0,
        }
        configs = [config_from_dict({**raw, "lambda": OVERFLOW_PARAMS.lam * factor})
                   for factor in (0.5, 1.0, 0.25)]
        train = [sample([0.4, -0.2]), sample([0.1, 0.3])]
        valids = [[sample([1.0, 1.5]), sample([0.5, 0.2])],
                  [sample([1.0, 1.5]), sample(overflow_input([1.19])[0])],
                  [sample([0.3, 1.0]), sample([0.5, 0.2])]]
        runs = assert_each_run_as_alone(configs, train, valids, overflow_instance())
        assert [run.error is not None for run in runs] == [False, True, False]
        assert re.fullmatch(r"non-finite membrane potential at step \d+, row 1",
                            str(runs[1].error))

    @pytest.mark.parametrize("height", [0.0, OVERFLOW_HEIGHT], ids=["graded", "spiking"])
    def test_two_runs_that_go_nonfinite_each_get_their_own_error(self, height):
        # Runs 0 and 2 overflow at different steps and rows of one stacked
        # pass; run 1 stays finite.
        config = config_from_dict({
            "dataset": {"kind": "npy", "path": "unused"}, "dict_size": 3,
            "lambda": OVERFLOW_PARAMS.lam, "tau": OVERFLOW_PARAMS.tau,
            "display_ms": float(OVERFLOW_PARAMS.steps), "spike_height": height,
            "filter": {"kind": "boxcar", "window_ms": 7.0}, "epochs": 1,
        })
        fast, slow = overflow_input([1.19, 1.1])
        train = [sample(np.zeros(2))]
        valids = [[sample([1.0, 1.5]), sample(fast)],
                  [sample([0.3, 1.0]), sample([0.5, 0.2])],
                  [sample(slow), sample([0.5, 0.2])]]
        runs = assert_each_run_as_alone([config] * 3, train, valids, overflow_instance())
        assert [str(run.error) if run.error else None for run in runs] == [
            "non-finite membrane potential at step 31, row 1", None,
            "non-finite membrane potential at step 39, row 0"]


def assert_each_run_as_alone(configs, train, valids, initial):
    """Runs on the same training samples, one config and validation set each, in one stack.

    Each must end as it ends alone: with the same error, or the same
    dictionary and metrics. Returns the runs.
    """
    runs = [experiment._prepare_run(config, train, valid, initial)
            for config, valid in zip(configs, valids)]
    trainer = experiment._LockStep(runs)
    trainer.train()
    for run, config, valid in zip(runs, configs, valids):
        if run.error is not None:
            with pytest.raises(NumericError) as info:
                run_training(config, train, valid, initial_dictionary=initial)
            assert repr(run.error) == repr(info.value)
            continue
        alone = run_training(config, train, valid, initial_dictionary=initial)
        got = trainer.result(run)
        same(got.dictionary.elements, alone.dictionary.elements)
        assert repr(got.metrics) == repr(alone.metrics)
    return runs
