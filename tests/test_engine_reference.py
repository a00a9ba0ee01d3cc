"""The shared period engine against the frozen two-loop reference.

``run_inference`` and ``run_spiking_inference`` are wrappers over one
engine; ``reference_lca`` holds the separate loops they replaced. Float
fields are compared within ``TOL``, the oracle tolerance, so a kernel
rewrite may reorder float operations (``test_engine_kernel`` checks the
update formula itself against the residual form). Step indices, spike
heights, spike counts and dtypes are compared exactly; every spiking case
asserts that it never came within ``TIE_MARGIN`` of a floor tie, so equal
counts do not pass by luck.
"""

import re

import numpy as np
import pytest

from lcalearn import experiment
from lcalearn.accumulator import AccumulatorState, InputRateEncoder, run_spiking_inference
from lcalearn.dictionary import Dictionary, InputDims, init_random
from lcalearn.errors import NumericError
from lcalearn.filters import make_filter
from lcalearn.lca import LcaParams, MembraneState, run_inference

from reference_lca import reference_run_inference, reference_run_spiking_inference
from test_engine_batch import TIE_MARGIN, TOL, SpikeWatch

FILTERS = [
    None,
    {"kind": "identity"},
    {"kind": "exponential", "time_constant_ms": 5.0},
    {"kind": "boxcar", "window_ms": 7.0},
]


def instance(seed, n=12, side=4, frames=2):
    dictionary = init_random(seed, n, InputDims(height=side, width=side, frames=frames))
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=dictionary.input_size)
    return dictionary, x, rng


def close(got, want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


def assert_graded_equal(got, want):
    close(got.code, want.code)
    close(got.half_mean, want.half_mean)
    close(got.state.u, want.state.u)
    assert got.state.step_index == want.state.step_index
    if want.codes is None:
        assert got.codes is None
    else:
        assert got.codes.dtype == want.codes.dtype
        close(got.codes, want.codes)
    close(np.array(got.trace), np.array(want.trace))


def assert_spiking_equal(got, want):
    close(got.code, want.code)
    close(got.final_value, want.final_value)
    close(got.half_mean, want.half_mean)
    close(got.state.u, want.state.u)
    assert got.state.step_index == want.state.step_index
    close(got.accumulator.carry, want.accumulator.carry)
    assert got.accumulator.spike_height == want.accumulator.spike_height
    assert got.max_counts == want.max_counts
    assert got.total_counts == want.total_counts
    if want.raster is None:
        assert got.raster is None
    else:
        assert got.raster.dtype == want.raster.dtype
        assert np.array_equal(got.raster, want.raster)
    if want.codes is None:
        assert got.codes is None
    else:
        assert got.codes.dtype == want.codes.dtype
        close(got.codes, want.codes)


@pytest.fixture
def spike_watch(monkeypatch):
    """Asserts, after the test, that no spiking step came near a floor tie."""
    watch = SpikeWatch(monkeypatch, 12)  # the element count of ``instance``
    yield watch
    assert watch.margin > TIE_MARGIN, "instance sits on a floor tie"


class TestGraded:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cold_start_with_codes_and_trace(self, seed):
        dictionary, x, _ = instance(seed)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=37)
        kwargs = dict(record_codes=True, record_trace=True)
        assert_graded_equal(
            run_inference(dictionary, x, params, **kwargs),
            reference_run_inference(dictionary, x, params, **kwargs),
        )

    def test_warm_start(self):
        dictionary, x, rng = instance(3)
        params = LcaParams(lam=0.2, dt=0.5, tau=8.0, steps=25)
        u0 = rng.normal(size=dictionary.element_count)
        got = run_inference(dictionary, x, params, initial_state=MembraneState(u0.copy(), 7))
        want = reference_run_inference(
            dictionary, x, params, initial_state=MembraneState(u0.copy(), 7)
        )
        assert_graded_equal(got, want)

    def test_input_rate_encoder(self):
        dictionary, x, _ = instance(4)
        params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=40)
        got = run_inference(
            dictionary, x, params, record_codes=True,
            input_encoder=InputRateEncoder(x, 0.05),
        )
        want = reference_run_inference(
            dictionary, x, params, record_codes=True,
            input_encoder=InputRateEncoder(x, 0.05),
        )
        assert_graded_equal(got, want)

    @pytest.mark.parametrize("tolerance", [1e-2, 1e-4, 1e-9])
    def test_early_stop(self, tolerance):
        dictionary, x, _ = instance(5)
        params = LcaParams(lam=0.3, dt=1.0, tau=5.0, steps=500)
        kwargs = dict(record_codes=True, record_trace=True, early_stop=tolerance)
        got = run_inference(dictionary, x, params, **kwargs)
        want = reference_run_inference(dictionary, x, params, **kwargs)
        assert len(want.trace) < params.steps  # the stop actually fired
        assert_graded_equal(got, want)

    def test_early_stop_before_half_period(self):
        dictionary, x, _ = instance(6)
        params = LcaParams(lam=0.3, dt=1.0, tau=5.0, steps=500)
        got = run_inference(dictionary, x, params, early_stop=1e3)
        want = reference_run_inference(dictionary, x, params, early_stop=1e3)
        assert want.state.step_index == 1
        assert_graded_equal(got, want)


@pytest.mark.usefixtures("spike_watch")
class TestSpiking:
    @pytest.mark.parametrize("spec", FILTERS)
    @pytest.mark.parametrize("height", [0.05, 0.5, 3.0])
    def test_filters_and_heights(self, spec, height):
        dictionary, x, _ = instance(7)
        params = LcaParams(lam=0.2, dt=1.0, tau=10.0, steps=31)
        kwargs = dict(record_raster=True, record_codes=True)
        got = run_spiking_inference(
            dictionary, x, params, height, make_filter(spec, params.dt), **kwargs
        )
        want = reference_run_spiking_inference(
            dictionary, x, params, height, make_filter(spec, params.dt), **kwargs
        )
        assert want.total_counts > 0
        assert_spiking_equal(got, want)

    @pytest.mark.parametrize("spec", FILTERS)
    def test_warm_start_with_accumulator(self, spec):
        dictionary, x, rng = instance(8)
        params = LcaParams(lam=0.2, dt=1.0, tau=10.0, steps=20)
        n = dictionary.element_count
        u0 = rng.normal(size=n)
        carry0 = rng.uniform(0.0, 0.4, size=n)
        got = run_spiking_inference(
            dictionary, x, params, 0.4, make_filter(spec, params.dt),
            initial_state=MembraneState(u0.copy(), 11),
            initial_accumulator=AccumulatorState(carry0.copy(), 0.4),
            record_raster=True,
        )
        want = reference_run_spiking_inference(
            dictionary, x, params, 0.4, make_filter(spec, params.dt),
            initial_state=MembraneState(u0.copy(), 11),
            initial_accumulator=AccumulatorState(carry0.copy(), 0.4),
            record_raster=True,
        )
        assert_spiking_equal(got, want)

    @pytest.mark.parametrize("spec", FILTERS)
    def test_input_rate_encoder(self, spec):
        dictionary, x, _ = instance(9)
        params = LcaParams(lam=0.2, dt=1.0, tau=10.0, steps=30)
        got = run_spiking_inference(
            dictionary, x, params, 0.5, make_filter(spec, params.dt),
            record_codes=True, input_encoder=InputRateEncoder(x, 0.1),
        )
        want = reference_run_spiking_inference(
            dictionary, x, params, 0.5, make_filter(spec, params.dt),
            record_codes=True, input_encoder=InputRateEncoder(x, 0.1),
        )
        assert_spiking_equal(got, want)

    def test_chained_periods(self):
        # Warm state carried across three periods, as warm-start training does.
        dictionary, x, _ = instance(10)
        params = LcaParams(lam=0.2, dt=1.0, tau=10.0, steps=15)
        got = want = None
        for _ in range(3):
            got = run_spiking_inference(
                dictionary, x, params, 0.3, make_filter({"kind": "boxcar", "window_ms": 4.0}, 1.0),
                initial_state=None if got is None else got.state,
                initial_accumulator=None if got is None else got.accumulator,
            )
            want = reference_run_spiking_inference(
                dictionary, x, params, 0.3, make_filter({"kind": "boxcar", "window_ms": 4.0}, 1.0),
                initial_state=None if want is None else want.state,
                initial_accumulator=None if want is None else want.accumulator,
            )
            assert_spiking_equal(got, want)


def overflow_instance():
    """Two elements 120 degrees apart that both see positive drive excite each other.

    Their fixed point lies beyond the float range for inputs of about
    1e308, so the potentials overflow part-way through a period although
    the input and the drive are finite: at step 31 for ``scale`` 1.19,
    39 for 1.1 and 63 for 1.0; 0.5 stays finite.
    """
    elements = np.array([[1.0, 0.0], [-0.5, np.sqrt(0.75)], [0.0, -1.0]])
    return Dictionary(elements, InputDims(height=1, width=2))


def overflow_input(scales):
    return np.multiply.outer(np.asarray(scales) * 1e308, [1.0, 1.5])


OVERFLOW_PARAMS = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=100)
OVERFLOW_HEIGHT = 1e290  # spike counts stay below 2**63, where int64 counts are exact


def run_engine(dictionary, x, height, **kwargs):
    if height:
        return run_spiking_inference(
            dictionary, x, OVERFLOW_PARAMS, height,
            make_filter({"kind": "boxcar", "window_ms": 7.0}, 1.0), **kwargs,
        )
    return run_inference(dictionary, x, OVERFLOW_PARAMS, **kwargs)


def reference_error(dictionary, x, height, **kwargs):
    """The frozen loop's ``NumericError`` message, or None when the period stays finite.

    The frozen loop warns on its way to the error, so warnings are silenced.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if height:
                reference_run_spiking_inference(
                    dictionary, x, OVERFLOW_PARAMS, height,
                    make_filter({"kind": "boxcar", "window_ms": 7.0}, 1.0), **kwargs,
                )
            else:
                reference_run_inference(dictionary, x, OVERFLOW_PARAMS, **kwargs)
    except NumericError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("height", [0.0, OVERFLOW_HEIGHT], ids=["graded", "spiking"])
class TestNonFinite:
    @pytest.mark.parametrize("encoded", [False, True], ids=["constant", "rate"])
    @pytest.mark.parametrize("scale", [1.0, 1.1, 1.19])
    def test_mid_period_overflow_names_the_reference_step(self, height, scale, encoded):
        dictionary = overflow_instance()
        x = overflow_input([scale])[0]

        def encoder():  # the replay must restart the encoder from the period's start
            return {"input_encoder": InputRateEncoder(x, 0.7e308)} if encoded else {}

        want = reference_error(dictionary, x, height, **encoder())
        assert re.fullmatch(r"non-finite membrane potential at step [1-9]\d*", want)
        with pytest.raises(NumericError) as info:
            run_engine(dictionary, x, height, **encoder())
        assert str(info.value) == want

    def test_batch_names_the_first_step_and_row_of_the_reference(self, height):
        dictionary = overflow_instance()
        x = overflow_input([0.5, 1.0, 1.19, 1.1, 1.19])
        steps = {}
        for row, vec in enumerate(x):
            message = reference_error(dictionary, vec, height)
            if message is not None:
                steps[row] = int(message.rsplit(" ", 1)[1])
        first = min(steps.values())
        row = min(r for r, k in steps.items() if k == first)
        assert 0 not in steps and first > 0  # row 0 stays finite; no row fails at once
        with pytest.raises(NumericError) as info:
            run_engine(dictionary, x, height)
        assert str(info.value) == f"non-finite membrane potential at step {first}, row {row}"

    def test_nonfinite_warm_start_fails_as_the_reference_does(self, height):
        dictionary = overflow_instance()
        x = overflow_input([0.01])[0]
        u0 = np.array([0.2, np.nan, 0.1])
        want = reference_error(dictionary, x, height, initial_state=MembraneState(u0.copy(), 5))
        assert want is not None
        with pytest.raises(NumericError) as info:
            run_engine(dictionary, x, height, initial_state=MembraneState(u0.copy(), 5))
        assert str(info.value) == want


class TestStateOwnership:
    """A period copies its start state once and hands back arrays no later period writes."""

    @pytest.mark.parametrize("height", [0.0, 0.4])
    def test_start_state_is_left_unchanged(self, height):
        dictionary, x, rng = instance(11)
        params = LcaParams(lam=0.2, dt=1.0, tau=10.0, steps=20)
        n = dictionary.element_count
        state = MembraneState(rng.normal(size=n), 3)
        u0 = state.u.copy()
        if height:
            acc = AccumulatorState(rng.uniform(0.0, height, size=n), height)
            carry0 = acc.carry.copy()
            run_spiking_inference(dictionary, x, params, height, initial_state=state,
                                  initial_accumulator=acc)
            assert np.array_equal(acc.carry, carry0)
        else:
            run_inference(dictionary, x, params, initial_state=state)
        assert np.array_equal(state.u, u0) and state.step_index == 3

    @pytest.mark.parametrize("spec", FILTERS)
    @pytest.mark.parametrize("height", [0.0, 0.4])
    def test_result_survives_the_next_warm_period(self, height, spec):
        dictionary, x, _ = instance(12)
        params = LcaParams(lam=0.2, dt=1.0, tau=10.0, steps=20)

        def period(warm):
            period_spec = experiment.PeriodSpec(params, height, spec)
            return experiment._period(experiment._TrainingState.lone(dictionary, period_spec),
                                      x[None, None], period_spec, warm=warm)

        first = period(None)
        kept = {name: np.copy(getattr(first, name)) for name in ("code", "half_mean")}
        kept["u"] = first.state.u.copy()
        if height:
            kept["value"] = first.value.copy()
            kept["carry"] = first.carry.copy()
        second = period(first)
        assert not np.array_equal(second.state.u, first.state.u)
        assert np.array_equal(first.code, kept["code"])
        assert np.array_equal(first.half_mean, kept["half_mean"])
        assert np.array_equal(first.state.u, kept["u"])
        if height:
            assert np.array_equal(first.value, kept["value"])
            assert np.array_equal(first.carry, kept["carry"])
