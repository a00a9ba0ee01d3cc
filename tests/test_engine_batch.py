"""Batched periods against single-sample periods, row by row.

A (B, D) input integrates B samples against one dictionary. Each row must
match its own single-sample run: codes, half-means and state within
``TOL`` (the matrix products group their sums differently), and spike
counts identically. Spike counts are only stable away from floor ties,
so every spiking case also asserts that its single-sample runs never came
within ``TIE_MARGIN`` of one.
"""

import numpy as np
import pytest

from lcalearn import accumulator, experiment
from lcalearn.accumulator import InputRateEncoder, run_spiking_inference
from lcalearn.data import FrameSequence, LabeledSample, SyntheticSpec, generate_synthetic
from lcalearn.dictionary import InputDims, init_random, synthesize
from lcalearn.errors import NumericError
from lcalearn.experiment import (
    PeriodSpec,
    collect_features,
    config_from_dict,
    evaluate_codes,
    run_training,
)
from lcalearn.filters import make_filter
from lcalearn.lca import LcaParams, run_inference

from reference_lca import reference_run_inference, reference_run_spiking_inference

TOL = 1e-12
TIE_MARGIN = 1e-9
FILTERS = [
    {"kind": "identity"},
    {"kind": "exponential", "time_constant_ms": 5.0},
    {"kind": "boxcar", "window_ms": 7.0},
]
HEIGHTS = [1.0, 5.0, 20.0]


def instance(seed, n=12, side=4, frames=2, batch=5, scale=1.0):
    dictionary = init_random(seed, n, InputDims(height=side, width=side, frames=frames))
    x = scale * np.random.default_rng(seed + 200).normal(size=(batch, dictionary.input_size))
    return dictionary, x


def period(dictionary, x, params, height, **kwargs):
    """``experiment._period`` on a frozen dictionary at threshold, height and no filter.

    The (B, D) input runs as (1, B, D), on the dictionary's stack of one.
    """
    spec = PeriodSpec(params, height)
    stack = experiment._Stack.lone(dictionary, spec)
    return experiment._period(stack, x[None], spec, **kwargs)


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


class SpikeWatch:
    """Wraps ``accumulator._discharge`` to log the neurons' counts per step.

    It also keeps the closest approach of ``(carry + desired) / s`` to a
    positive integer: a floor tie that float reordering could flip.
    Calls for the input encoder (width D, not N) are passed through. The
    engine discharges a lone dictionary's period as a stack of one, (1, B, N),
    so its counts are logged as its one run's, (B, N).
    """

    def __init__(self, monkeypatch, n):
        self.n = n
        self.counts = []
        self.margin = np.inf
        real = accumulator._discharge

        def watched(carry, desired, s, counts, tmp, flag):
            neurons = np.shape(desired)[-1] == self.n
            if neurons:
                q = (carry + desired) / s
                near = np.abs(q - np.round(q))[q >= 0.5]
                if near.size:
                    self.margin = min(self.margin, float(near.min()))
            real(carry, desired, s, counts, tmp, flag)
            if neurons:
                run = counts[0] if np.ndim(counts) == 3 else counts
                self.counts.append(run.astype(np.int64))

        monkeypatch.setattr(accumulator, "_discharge", watched)

    def take(self):
        counts, self.counts = np.array(self.counts), []
        return counts


class TestGradedRows:
    @pytest.mark.parametrize("rate", [False, True])
    def test_rows_match_single_runs(self, rate):
        dictionary, x = instance(1)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=60)

        def encoder(values):
            return InputRateEncoder(values, 0.05) if rate else None

        batch = run_inference(dictionary, x, params, input_encoder=encoder(x))
        assert batch.code.shape == batch.half_mean.shape == batch.state.u.shape == (5, 12)
        for row, vec in enumerate(x):
            single = reference_run_inference(dictionary, vec, params, input_encoder=encoder(vec))
            close(batch.code[row], single.code)
            close(batch.half_mean[row], single.half_mean)
            close(batch.state.u[row], single.state.u)
            assert batch.state.step_index == single.state.step_index


class TestSpikingRows:
    @pytest.mark.parametrize("spec", FILTERS, ids=lambda f: f["kind"])
    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("rate", [False, True])
    def test_rows_match_single_runs(self, monkeypatch, spec, height, rate):
        dictionary, x = instance(4, scale=3.0)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=60)
        watch = SpikeWatch(monkeypatch, dictionary.element_count)

        def run(values, runner):
            encoder = InputRateEncoder(values, 0.05) if rate else None
            return runner(dictionary, values, params, height, make_filter(spec, params.dt),
                          input_encoder=encoder)

        batch = run(x, run_spiking_inference)
        batch_counts = watch.take()
        max_counts, total_counts = 0, 0
        for row, vec in enumerate(x):
            single = run(vec, reference_run_spiking_inference)
            assert np.array_equal(batch_counts[:, row], watch.take())
            close(batch.code[row], single.code)
            close(batch.half_mean[row], single.half_mean)
            close(batch.state.u[row], single.state.u)
            close(batch.accumulator.carry[row], single.accumulator.carry)
            assert np.array_equal(batch.final_value[row], single.final_value)
            max_counts = max(max_counts, single.max_counts)
            total_counts += single.total_counts
        assert watch.margin > TIE_MARGIN, "instance sits on a floor tie"
        assert total_counts > 0
        assert batch.max_counts == max_counts
        assert batch.total_counts == total_counts


def samples(seed=5, per_class=3):
    spec = SyntheticSpec(height=4, width=4, frames=2, train_per_class=per_class,
                         valid_per_class=1)
    train, _ = generate_synthetic(seed, spec)
    return train


class TestFrozenPasses:
    @pytest.mark.parametrize("height", [0.0, 5.0])
    def test_evaluate_codes_matches_reference_loop(self, height):
        dictionary = init_random(6, 12, InputDims(height=4, width=4, frames=2))
        params = LcaParams(lam=0.2, dt=1.0, tau=10.0, steps=50)
        spec = {"kind": "boxcar", "window_ms": 7.0}
        data = samples()
        got = evaluate_codes(dictionary, data, params, height, spec if height else None)
        rmse_sum, sparsity_sum, max_counts = 0.0, 0.0, 0
        for sample in data:
            vec = sample.input.flattened
            if height:
                result = reference_run_spiking_inference(
                    dictionary, vec, params, height, make_filter(spec, params.dt))
                max_counts = max(max_counts, result.max_counts)
            else:
                result = reference_run_inference(dictionary, vec, params)
            diff = vec - synthesize(dictionary, result.code)
            rmse_sum += float(np.sqrt(np.mean(diff * diff)))
            sparsity_sum += 100.0 * np.count_nonzero(result.code > 0) / result.code.size
        assert abs(got["rmse"] - rmse_sum / len(data)) < TOL
        assert got["sparsity_pct"] == pytest.approx(sparsity_sum / len(data), rel=TOL)
        assert got["max_spikes_per_step"] == max_counts

    @pytest.mark.parametrize("scheme", ["final", "mean_last_half"])
    @pytest.mark.parametrize("height", [0.0, 5.0])
    def test_collect_features_matches_reference_loop(self, scheme, height):
        config = config_from_dict({
            "dataset": {"kind": "synthetic", "seed": 5, "height": 4, "width": 4, "frames": 2},
            "dict_size": 12, "lambda": 0.2, "tau": 10.0, "display_ms": 50.0,
            "spike_height": height, "filter": {"kind": "exponential", "time_constant_ms": 5.0},
            "input_encoding": "rate", "input_spike_height": 0.05,
            "classifier": {"feature_scheme": scheme},
        })
        dictionary = init_random(7, 12, InputDims(height=4, width=4, frames=2))
        params = config.lca_params()
        data = samples()
        got = collect_features(dictionary, data, config)
        assert got.shape == (len(data), 12)
        for row, sample in enumerate(data):
            vec = sample.input.flattened
            encoder = InputRateEncoder(vec, 0.05)
            if height:
                result = reference_run_spiking_inference(
                    dictionary, vec, params, height, make_filter(config.filter, params.dt),
                    input_encoder=encoder)
            else:
                result = reference_run_inference(dictionary, vec, params, input_encoder=encoder)
            close(got[row], result.code if scheme == "final" else result.half_mean)

    def test_validation_pass_matches_reference_loop(self):
        config = config_from_dict({
            "dataset": {"kind": "synthetic", "seed": 5, "height": 4, "width": 4, "frames": 2,
                        "train_per_class": 2, "valid_per_class": 3},
            "dict_size": 12, "lambda": 0.2, "tau": 10.0, "display_ms": 40.0,
            "epochs": 1, "classifier": {"epochs": 5},
        })
        result = run_training(config)
        _, valid = experiment.load_dataset(config.dataset)
        params = config.lca_params()
        rmse_sum = 0.0
        for row, sample in enumerate(valid):
            vec = sample.input.flattened
            want = reference_run_inference(result.dictionary, vec, params)
            diff = vec - synthesize(result.dictionary, want.code)
            rmse_sum += float(np.sqrt(np.mean(diff * diff)))
            close(result.valid_features[row], want.half_mean)
        assert abs(result.metrics.rmse_val[-1] - rmse_sum / len(valid)) < TOL

    @pytest.mark.parametrize("extra", [
        {},
        {"spike_height": 1.0, "filter": {"kind": "boxcar", "window_ms": 7.0}},
        {"input_encoding": "rate", "input_spike_height": 0.3},
        {"spike_height": 1.0, "filter": {"kind": "boxcar", "window_ms": 7.0},
         "input_encoding": "rate", "input_spike_height": 0.3},
    ], ids=["graded", "spiking", "graded-rate", "spiking-rate"])
    def test_training_validation_is_the_frozen_pass(self, extra):
        config = config_from_dict({
            "dataset": {"kind": "synthetic", "seed": 5, "height": 4, "width": 4, "frames": 2,
                        "train_per_class": 2, "valid_per_class": 3},
            "dict_size": 12, "lambda": 0.2, "tau": 10.0, "display_ms": 40.0,
            "epochs": 2, "learning_rate": 0.05, "classifier": {"epochs": 5}, **extra,
        })
        result = run_training(config)
        _, valid = experiment.load_dataset(config.dataset)
        spec = config.period_spec()
        (frozen,) = experiment._frozen_pass(experiment._Stack.lone(result.dictionary, spec),
                                            [valid], spec)
        assert result.metrics.rmse_val[-1] == frozen.rmse / len(valid)
        assert result.metrics.sparsity_pct[-1] == frozen.sparsity / len(valid)
        report = evaluate_codes(result.dictionary, valid, config.lca_params(),
                                config.spike_height, config.filter)
        if config.input_encoding == "constant":
            assert result.metrics.rmse_val[-1] == report["rmse"]
            assert result.metrics.sparsity_pct[-1] == report["sparsity_pct"]
        else:  # evaluate_codes drives with the constant input
            assert result.metrics.rmse_val[-1] != report["rmse"]
        assert np.array_equal(result.valid_features,
                              collect_features(result.dictionary, valid, config))

    @pytest.mark.parametrize("height", [0.0, 5.0])
    def test_chunk_boundary_changes_nothing(self, monkeypatch, height):
        config = config_from_dict({
            "dataset": {"kind": "synthetic", "seed": 5, "height": 4, "width": 4, "frames": 2},
            "dict_size": 12, "lambda": 0.2, "tau": 10.0, "display_ms": 50.0,
            "spike_height": height, "filter": {"kind": "boxcar", "window_ms": 7.0},
        })
        dictionary = init_random(8, 12, InputDims(height=4, width=4, frames=2))
        data = samples(per_class=3)  # 12 samples: chunks of 5, 5 and 2
        params = config.lca_params()
        whole = collect_features(dictionary, data, config)
        whole_eval = evaluate_codes(dictionary, data, params, height, config.filter)
        monkeypatch.setattr(experiment, "INFER_CHUNK", 5)
        calls = []
        real = experiment._period
        monkeypatch.setattr(experiment, "_period",
                            lambda s, x, *a, **k: calls.append(x.shape[1]) or real(s, x, *a, **k))
        chunked = collect_features(dictionary, data, config)
        chunked_eval = evaluate_codes(dictionary, data, params, height, config.filter)
        assert calls == [5, 5, 2, 5, 5, 2]
        close(chunked, whole)
        assert abs(chunked_eval["rmse"] - whole_eval["rmse"]) < TOL
        assert chunked_eval["max_spikes_per_step"] == whole_eval["max_spikes_per_step"]


class TestBatchErrors:
    @pytest.mark.parametrize("height", [0.0, 1.0])
    def test_nonfinite_row_names_step_and_row(self, height):
        dictionary, x = instance(9)
        x[3, 2] = np.inf
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=10)
        with pytest.raises(NumericError, match=r"step 0, row 3"):
            period(dictionary, x, params, height)

    @pytest.mark.parametrize("height", [0.0, 1.0])
    def test_a_chunked_pass_names_the_samples_index(self, monkeypatch, height):
        # Chunks of 5: the bad sample 7 is row 2 of the second chunk, and
        # the error must name its index in the sample list.
        monkeypatch.setattr(experiment, "INFER_CHUNK", 5)
        config = config_from_dict({
            "dataset": {"kind": "synthetic", "seed": 1, "height": 4, "width": 4, "frames": 2,
                        "train_per_class": 2, "valid_per_class": 3},
            "dict_size": 12, "lambda": 0.2, "tau": 10.0, "display_ms": 10.0,
            "spike_height": height, "epochs": 1,
        })
        train, valid = experiment.load_dataset(config.dataset)
        frames = valid[7].input.frames.copy()
        frames.flat[0] = np.inf
        valid[7] = LabeledSample(FrameSequence(frames), valid[7].label)
        dictionary = init_random(3, 12, valid[0].input.dims)
        with pytest.raises(NumericError, match=r"at step 0, row 7$"):
            evaluate_codes(dictionary, valid, config.lca_params(), height)
        with pytest.raises(NumericError, match=r"at step 0, row 7$"):
            run_training(config, train, valid)

    @pytest.mark.parametrize("height", [0.0, 1.0])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_infinite_input_raises_its_error_not_a_warning(self, height):
        # An all-infinite input meets weights of both signs, so its drive is
        # inf - inf: that invalid-value warning stays silent, and the run's
        # error is the report.
        dictionary = init_random(0, 4, InputDims(2, 2))
        params = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=5)
        run = run_inference if height == 0 else (
            lambda *args: run_spiking_inference(*args, height))
        with pytest.raises(NumericError, match=r"at step 0$"):
            run(dictionary, np.full(4, np.inf), params)
        sample = LabeledSample(FrameSequence(np.full((1, 2, 2), np.inf)), 0)
        with pytest.raises(NumericError, match=r"at step 0, row 0$"):
            evaluate_codes(dictionary, [sample], params, height)

    def test_first_bad_row_is_named(self):
        dictionary, x = instance(10)
        x[4, 0] = np.nan
        x[2, 5] = -np.inf
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=10)
        with pytest.raises(NumericError, match=r"step 0, row 2$"):
            run_inference(dictionary, x, params)

    @pytest.mark.parametrize("height", [0.0, 1.0])
    def test_recording_a_batch_is_rejected_at_the_call(self, height):
        dictionary, x = instance(11)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=5)
        with pytest.raises(ValueError, match="one sample"):
            period(dictionary, x, params, height, record=True)

    def test_recording_codes_of_a_batch_is_rejected(self):
        dictionary, x = instance(12)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=5)
        with pytest.raises(ValueError, match="one sample"):
            run_inference(dictionary, x, params, record_codes=True)
        with pytest.raises(ValueError, match="one sample"):
            run_spiking_inference(dictionary, x, params, 1.0, record_codes=True)

    def test_early_stop_of_a_batch_is_rejected(self):
        dictionary, x = instance(12)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=5)
        with pytest.raises(ValueError, match="one sample"):
            run_inference(dictionary, x, params, early_stop=1e-4)

    def test_warm_state_must_have_one_row_per_sample(self):
        dictionary, x = instance(14)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=5)
        one = run_spiking_inference(dictionary, x[0], params, 1.0)
        with pytest.raises(ValueError, match="initial accumulator has shape"):
            run_spiking_inference(dictionary, x, params, 1.0,
                                  initial_accumulator=one.accumulator)
        with pytest.raises(ValueError, match="state has shape"):
            run_inference(dictionary, x, params, initial_state=one.state)

    def test_wrong_width_rejected(self):
        dictionary, x = instance(13)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=5)
        with pytest.raises(ValueError, match="input has shape"):
            run_inference(dictionary, x[:, :-1], params)


class TestAdapterBoundary:
    """The public adapters take (D,) or (B, D) and give their results back in that shape."""

    @pytest.mark.parametrize("batch", [False, True], ids=["sample", "batch"])
    def test_results_keep_the_callers_shape(self, batch):
        dictionary, x = instance(15)
        x = x if batch else x[0]
        shape = (5, 12) if batch else (12,)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=10)
        graded = run_inference(dictionary, x, params)
        warm = run_inference(dictionary, x, params, initial_state=graded.state)
        for result in (graded, warm):
            assert result.code.shape == result.half_mean.shape == result.state.u.shape == shape
        spiking = run_spiking_inference(dictionary, x, params, 1.0)
        warm = run_spiking_inference(dictionary, x, params, 1.0, initial_state=spiking.state,
                                     initial_accumulator=spiking.accumulator)
        for result in (spiking, warm):
            assert (result.code.shape == result.half_mean.shape == result.state.u.shape
                    == result.accumulator.carry.shape == result.final_value.shape == shape)
        if not batch:
            recorded = run_inference(dictionary, x, params, record_codes=True)
            assert recorded.codes.shape == (10, 12)
            recorded = run_spiking_inference(dictionary, x, params, 1.0, record_codes=True,
                                             record_raster=True)
            assert recorded.codes.shape == recorded.raster.shape == (10, 12)

    def test_a_stacked_input_is_refused_with_the_lone_shapes(self):
        dictionary, x = instance(16)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=5)
        message = r"input has shape \(1, 5, 32\), expected \(32,\) or \(B, 32\)$"
        with pytest.raises(ValueError, match=message):
            run_inference(dictionary, x[None], params)
        with pytest.raises(ValueError, match=message):
            run_spiking_inference(dictionary, x[None], params, 1.0)
        with pytest.raises(ValueError, match=r"input has shape \(5, 31\), expected \(32,\)"):
            run_spiking_inference(dictionary, x[:, :-1], params, 1.0)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_recording_a_batch_is_refused_with_its_message(self, rows):
        dictionary, x = instance(17)
        x = x[:rows]
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=5)
        message = "^per-step codes, traces and early stop are for one sample, not a batch$"
        for kwargs in ({"record_codes": True}, {"record_trace": True}, {"early_stop": 1e-4}):
            with pytest.raises(ValueError, match=message):
                run_inference(dictionary, x, params, **kwargs)
        with pytest.raises(ValueError, match=message):
            run_spiking_inference(dictionary, x, params, 1.0, record_codes=True)
        with pytest.raises(ValueError,
                           match="^a spike raster is recorded for one sample, not a batch$"):
            run_spiking_inference(dictionary, x, params, 1.0, record_raster=True)

    def test_a_start_of_the_wrong_shape_is_refused_with_both_shapes(self):
        dictionary, x = instance(18)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=5)
        one = run_spiking_inference(dictionary, x[0], params, 1.0)
        batch = run_spiking_inference(dictionary, x, params, 1.0)
        with pytest.raises(ValueError, match=r"^state has shape \(12,\), expected \(5, 12\)$"):
            run_inference(dictionary, x, params, initial_state=one.state)
        with pytest.raises(ValueError, match=r"^state has shape \(5, 12\), expected \(12,\)$"):
            run_spiking_inference(dictionary, x[0], params, 1.0, initial_state=batch.state)
        with pytest.raises(ValueError, match=r"^initial accumulator has shape \(12,\), "
                                             r"expected \(5, 12\)$"):
            run_spiking_inference(dictionary, x, params, 1.0, initial_accumulator=one.accumulator)
