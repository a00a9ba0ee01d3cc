"""Spike discretization with carry, and the spiking inference loop."""

import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcalearn.accumulator import (
    AccumulatorState,
    InputRateEncoder,
    _output_stage,
    _SpikingStage,
    accumulate_step,
    run_spiking_inference,
    write_raster_csv,
)
from lcalearn.dictionary import InputDims, init_random
from lcalearn.errors import NumericError
from lcalearn.filters import BoxcarFilter
from lcalearn.lca import LcaParams, _GradedStage, run_inference


def drive_sequence(state, desired_rows):
    """Feed rows one step at a time; returns (counts history, final state)."""
    history = []
    for row in desired_rows:
        frame, state = accumulate_step(state, row)
        history.append(frame.counts.copy())
    return np.array(history), state


class TestAccumulateStep:
    def test_integer_desired_emits_exactly(self):
        state = AccumulatorState.zeros(3, spike_height=1.0)
        frame, state = accumulate_step(state, np.array([0.0, 2.0, 5.0]))
        np.testing.assert_array_equal(frame.counts, [0, 2, 5])
        np.testing.assert_array_equal(state.carry, [0.0, 0.0, 0.0])

    def test_fraction_carries_forward(self):
        state = AccumulatorState.zeros(1, spike_height=1.0)
        frame, state = accumulate_step(state, np.array([0.6]))
        assert frame.counts[0] == 0 and state.carry[0] == pytest.approx(0.6)
        frame, state = accumulate_step(state, np.array([0.6]))
        assert frame.counts[0] == 1
        assert state.carry[0] == pytest.approx(0.2)

    def test_spike_value_is_counts_times_height(self):
        state = AccumulatorState.zeros(1, spike_height=0.5)
        frame, _ = accumulate_step(state, np.array([1.7]))
        assert frame.counts[0] == 3
        assert frame.value[0] == pytest.approx(1.5)

    def test_large_height_suppresses_output(self):
        state = AccumulatorState.zeros(1, spike_height=10.0)
        frame, state = accumulate_step(state, np.array([1.0]))
        assert frame.counts[0] == 0
        assert state.carry[0] == pytest.approx(1.0)

    def test_negative_desired_rejected(self):
        state = AccumulatorState.zeros(1, spike_height=1.0)
        with pytest.raises(ValueError):
            accumulate_step(state, np.array([-0.1]))

    def test_nonfinite_desired_rejected(self):
        state = AccumulatorState.zeros(1, spike_height=1.0)
        with pytest.raises(NumericError):
            accumulate_step(state, np.array([np.nan]))

    def test_height_at_least_peak_gives_single_spikes(self):
        """When s >= every desired value, no step emits more than one spike."""
        rng = np.random.default_rng(0)
        desired = rng.uniform(0, 5, size=(200, 4))
        state = AccumulatorState.zeros(4, spike_height=5.0)
        history, _ = drive_sequence(state, desired)
        assert history.max() == 1

    def test_carry_stays_in_range_exactly(self):
        """The remainder is always in [0, s), with no float leakage."""
        rng = np.random.default_rng(1)
        for s in (1e-6, 0.001, 0.7, 1.0, 3.14159, 20.0):
            state = AccumulatorState.zeros(8, spike_height=s)
            for _ in range(300):
                desired = rng.uniform(0, 5, size=8)
                _, state = accumulate_step(state, desired)
                assert (state.carry >= 0).all()
                assert (state.carry < s).all()

    def test_prefix_sums_track_desired_within_one_height(self):
        """Cumulative emitted output differs from cumulative desired by < s."""
        rng = np.random.default_rng(2)
        s = 0.73
        state = AccumulatorState.zeros(5, spike_height=s)
        cum_desired = np.zeros(5)
        cum_emitted = np.zeros(5)
        for _ in range(500):
            desired = rng.uniform(0, 5, size=5)
            frame, state = accumulate_step(state, desired)
            cum_desired += desired
            cum_emitted += frame.value
            assert (np.abs(cum_emitted - cum_desired) < s).all()

    @given(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=60),
        st.floats(min_value=1e-4, max_value=25.0),
    )
    @example(desired_values=[2.0, 0.18], s=1e-4)  # float prefix sums put the gap at s
    @settings(max_examples=200, deadline=None)
    def test_carry_and_prefix_property(self, desired_values, s):
        """The exact prefix gap stays within the carry's own rounding of [0, s).

        The gap (desired minus emitted, summed as fractions) equals the carry
        but for the two roundings of each step, ``carry + desired`` and
        ``carry - counts * s``; both results are below ``value + s``, so each
        step moves the gap from the carry by at most ``spacing(value + s)``.
        """
        state = AccumulatorState.zeros(1, spike_height=s)
        gap = Fraction(0)
        rounding = Fraction(0)
        for value in desired_values:
            frame, state = accumulate_step(state, np.array([value]))
            gap += Fraction(value) - Fraction(float(frame.value[0]))
            rounding += Fraction(float(np.spacing(value + s)))
            carry = float(state.carry[0])
            assert 0.0 <= carry < s
            assert abs(gap - Fraction(carry)) <= rounding
            assert -rounding <= gap < s + rounding


class TestSpikingInference:
    def test_tiny_height_matches_graded_membrane(self):
        """s -> 0 limit: spiking trajectories collapse onto the graded ones."""
        rng = np.random.default_rng(3)
        d = init_random(4, 20, InputDims(4, 4))
        x = rng.normal(size=16)
        params = LcaParams(lam=0.2, dt=1.0, tau=10.0, steps=200)
        graded = run_inference(d, x, params)
        spiking = run_spiking_inference(d, x, params, spike_height=1e-6)
        assert float(np.abs(graded.state.u - spiking.state.u).max()) < 1e-4

    def test_deterministic(self):
        d = init_random(0, 6, InputDims(2, 2))
        x = np.array([0.5, 0.1, -0.3, 0.8])
        params = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=50)
        a = run_spiking_inference(d, x, params, spike_height=0.5, record_raster=True)
        b = run_spiking_inference(d, x, params, spike_height=0.5, record_raster=True)
        np.testing.assert_array_equal(a.raster, b.raster)
        np.testing.assert_array_equal(a.code, b.code)

    def test_unfiltered_code_is_final_spike_value(self):
        d = init_random(0, 6, InputDims(2, 2))
        x = np.array([0.5, 0.1, -0.3, 0.8])
        params = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=40)
        result = run_spiking_inference(d, x, params, spike_height=1.0)
        np.testing.assert_array_equal(result.code, result.final_value)

    def test_filtered_code_is_filter_of_raw_values(self):
        d = init_random(1, 6, InputDims(2, 2))
        x = np.array([0.9, 0.2, -0.1, 0.4])
        params = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=30)
        raw = run_spiking_inference(d, x, params, spike_height=0.5, record_codes=True)
        filt = run_spiking_inference(
            d, x, params, spike_height=0.5, code_filter=BoxcarFilter(40.0, 1.0),
            record_codes=True,
        )
        # raw codes with the identity filter are the per-step spike values;
        # the boxcar result must equal their trailing 40-step mean
        window = raw.codes[-40:]
        np.testing.assert_allclose(filt.code, window.mean(axis=0), atol=1e-12)

    def test_raster_counts_spikes(self):
        d = init_random(2, 6, InputDims(2, 2))
        x = np.array([1.0, 0.5, 0.0, 0.2])
        params = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=60)
        result = run_spiking_inference(d, x, params, spike_height=0.2, record_raster=True)
        assert result.raster.shape == (60, 6)
        assert result.raster.sum() == result.total_counts
        assert result.raster.max() == result.max_counts

    def test_mismatched_accumulator_height_rejected(self):
        d = init_random(0, 4, InputDims(2, 2))
        params = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=5)
        with pytest.raises(ValueError):
            run_spiking_inference(
                d, np.zeros(4), params, spike_height=1.0,
                initial_accumulator=AccumulatorState.zeros(4, 2.0),
            )

    @pytest.mark.parametrize("height", [0.0, -1.0, np.nan])
    def test_height_not_above_zero_rejected(self, height):
        d = init_random(0, 4, InputDims(2, 2))
        params = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=5)
        with pytest.raises(ValueError, match="spike height must be > 0"):
            run_spiking_inference(d, np.zeros(4), params, spike_height=height)
        with pytest.raises(ValueError, match="spike height must be > 0"):
            AccumulatorState.zeros(4, height)

    def test_warm_start_continues(self):
        d = init_random(5, 6, InputDims(2, 2))
        x = np.array([0.7, -0.2, 0.1, 0.5])
        full = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=30)
        half = LcaParams(lam=0.1, dt=1.0, tau=10.0, steps=15)
        whole = run_spiking_inference(d, x, full, spike_height=0.3)
        first = run_spiking_inference(d, x, half, spike_height=0.3)
        second = run_spiking_inference(
            d, x, half, spike_height=0.3,
            initial_state=first.state, initial_accumulator=first.accumulator,
        )
        np.testing.assert_array_equal(whole.state.u, second.state.u)
        np.testing.assert_array_equal(whole.accumulator.carry, second.accumulator.carry)

    def test_raster_csv_layout(self, tmp_path):
        raster = np.zeros((4, 3), dtype=np.int64)
        raster[1, 2] = 2
        raster[3, 0] = 1
        path = tmp_path / "raster.csv"
        write_raster_csv(path, raster)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["step", "neuron", "count"],
            ["1", "2", "2"],
            ["3", "0", "1"],
        ]


class TestOutputStage:
    """The one factory picks the stage from the spike height, for one run or a stack."""

    @pytest.mark.parametrize("height", [0.0, np.zeros((3, 1, 1))], ids=["run", "stack"])
    def test_zero_height_is_graded(self, height):
        stage = _output_stage(0.2, height, code_filter=BoxcarFilter(5.0))
        assert type(stage) is _GradedStage
        assert stage.carry is stage.peak is stage.total is stage.raster is None

    @pytest.mark.parametrize("height", [0.37, np.array([[[1.0]], [[5.0]]])], ids=["run", "stack"])
    def test_positive_height_is_spiking_from_zero_carry(self, height):
        stage = _output_stage(0.2, height)
        assert type(stage) is _SpikingStage
        stage.begin(np.ones((2, 1, 3)), check=False)
        assert np.array_equal(stage.carry, np.zeros((2, 1, 3)))

    @pytest.mark.parametrize("height", [np.nan, -1.0, np.array([[[0.0]], [[1.0]]])],
                             ids=["nan", "negative", "mixed-stack"])
    def test_height_neither_zero_nor_positive_refused(self, height):
        with pytest.raises(ValueError, match="spike height must be > 0"):
            _output_stage(0.2, height)


class TestInputRateEncoder:
    def test_preserves_signs_and_rates(self):
        """Encoded drive averages back to the original signed values."""
        values = np.array([0.8, -0.6, 0.0, 0.3])
        encoder = InputRateEncoder(values, spike_height=0.01)
        total = np.zeros(4)
        steps = 500
        for _ in range(steps):
            total += encoder.step()
        np.testing.assert_allclose(total / steps, values, atol=0.01 + 1e-12)

    @pytest.mark.parametrize("height", [0.0, -0.1, np.nan])
    def test_height_not_above_zero_rejected(self, height):
        with pytest.raises(ValueError, match="spike height must be > 0"):
            InputRateEncoder(np.array([0.5]), spike_height=height)

    def test_steps_match_the_out_of_place_chain(self):
        """The in-place encoder steps as the old ``accumulate_step`` chain did, bit for bit."""
        values = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 40))
        values[0, :5] = 0.0
        encoder = InputRateEncoder(values, spike_height=0.07)
        state = AccumulatorState.zeros(values.shape, 0.07)
        magnitudes, signs = np.abs(values), np.sign(values)
        for _ in range(200):
            frame, state = accumulate_step(state, magnitudes)
            assert encoder.step().tobytes() == (signs * frame.value).tobytes()
        assert encoder.carry.tobytes() == state.carry.tobytes()

    def test_nonfinite_input_rejected_once_at_construction(self):
        with pytest.raises(NumericError, match="non-finite desired output"):
            InputRateEncoder(np.array([0.5, np.nan]), spike_height=0.1)
