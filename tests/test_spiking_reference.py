"""The spiking stage against the frozen corrected stage, bit for bit.

An *exact* period (see ``accumulator``) skips both floor-tie corrections
and lets the boxcar keep a running sum; a period whose spike counts
outgrow exactness is replayed on the corrected path. Every case here
requires the same bits as ``reference_spiking``: carry, counts, value,
peak, total and filtered code. Heights 0.5, 1, 5, 20 and 3 * 2**-7 run
exact; 0.1, 0.37 and 1e-3 keep the corrected path.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcalearn import experiment, lca
from lcalearn.accumulator import (
    AccumulatorState,
    InputRateEncoder,
    _discharge,
    _SpikingStage,
    run_spiking_inference,
)
from lcalearn.dictionary import Dictionary, InputDims
from lcalearn.errors import NumericError
from lcalearn.experiment import config_from_dict
from lcalearn.filters import BoxcarFilter, ExponentialFilter, make_filter
from lcalearn.lca import LcaParams, _run_period, inhibition

from reference_spiking import (
    ReferenceBoxcar,
    ReferenceExponential,
    ReferenceStage,
    reference_discharge,
    reference_filter,
)
from test_engine_batch import instance
from test_engine_reference import (
    OVERFLOW_PARAMS,
    overflow_input,
    overflow_instance,
    reference_error,
)
from test_lockstep import raw_config

EXACT = [0.5, 1.0, 5.0, 20.0, 3 * 2.0**-7]
NON_EXACT = [0.1, 0.37, 1e-3]
ENGINE_HEIGHTS = [0.5, 1.0, 5.0, 20.0, 0.37]
FILTERS = [
    None,
    {"kind": "exponential", "time_constant_ms": 10.0},
    {"kind": "boxcar", "window_ms": 40.0},
]
PARAMS = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=60)


def filter_id(spec):
    return "none" if spec is None else spec["kind"]


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def near_multiples(s, ks):
    """Carries at the float just below, at and just above ``k * s`` for each k."""
    at = np.asarray(ks, dtype=np.float64) * s
    return np.concatenate([np.nextafter(at, -np.inf), at, np.nextafter(at, np.inf)])


def discharge(fn, carry, desired, s, exact):
    carry = carry.copy()
    counts, value = np.empty(carry.shape), np.empty(carry.shape)
    fn(carry, desired, s, counts, value, None if exact else np.empty(carry.shape, dtype=bool))
    return carry, counts, value


def assert_discharge_matches(carry, desired, s, exact):
    got = discharge(_discharge, carry, desired, s, exact)
    want = discharge(reference_discharge, carry, desired, s, exact=False)
    for a, b in zip(got, want):
        same(a, b)


def is_exact(height, spec=None):
    return _SpikingStage(0.0, height, 0.0, make_filter(spec, 1.0)).exact


class TestDischarge:
    @settings(max_examples=300, deadline=None)
    @given(
        half=st.integers(0, 2**19 - 1), e=st.integers(-30, 30),
        ks=st.lists(st.integers(1, 2**30), min_size=1, max_size=40),
    )
    def test_exact_height_floors_never_cross_an_integer(self, half, e, ks):
        m = 2 * half + 1
        s = math.ldexp(m, e)
        assert is_exact(s)
        carry = near_multiples(s, ks)
        assert_discharge_matches(carry, np.zeros(carry.shape), s, exact=True)

    @settings(max_examples=100, deadline=None)
    @given(
        height=st.sampled_from(EXACT), seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e3, 1e8]),
    )
    def test_exact_height_on_random_carries_and_drive(self, height, seed, scale):
        rng = np.random.default_rng(seed)
        carry = rng.random(64) * height
        desired = rng.exponential(scale, 64) * (rng.random(64) < 0.5)
        assert_discharge_matches(carry, desired, height, exact=True)

    @pytest.mark.parametrize("height", EXACT + NON_EXACT)
    def test_corrected_path_is_the_reference(self, height):
        carry = near_multiples(height, range(1, 2000))
        assert_discharge_matches(carry, np.zeros(carry.shape), height, exact=False)

    @pytest.mark.parametrize("height", NON_EXACT + [1e-310])
    def test_non_exact_heights_need_the_corrections(self, height):
        assert not is_exact(height)
        assert not is_exact(height, {"kind": "boxcar", "window_ms": 40.0})
        if height < 1e-300:
            return  # subnormal: not a normal float, so never exact
        carry = near_multiples(height, range(1, 2000))
        skipped = discharge(_discharge, carry, np.zeros(carry.shape), height, exact=True)[1]
        want = discharge(reference_discharge, carry, np.zeros(carry.shape), height, False)[1]
        assert not np.array_equal(skipped, want)  # so they must stay on the corrected path

    def test_exactness_is_decided_over_the_whole_stack(self):
        assert is_exact(np.array(EXACT)[:, None, None])
        assert not is_exact(np.array([1.0, 0.37])[:, None, None])
        assert not is_exact(np.array([1.0, 1e-310])[:, None, None])


class TestFilters:
    @settings(max_examples=100, deadline=None)
    @given(
        window=st.integers(1, 50), height=st.sampled_from(EXACT), seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 150),
    )
    def test_running_sum_has_the_ring_sums_bits(self, window, height, seed, steps):
        rng = np.random.default_rng(seed)
        frames = rng.integers(0, 30, size=(steps, 2, 5)) * height
        got, want = BoxcarFilter(window), ReferenceBoxcar(window)
        got.reset(exact=True)
        for frame in frames:
            same(got.step(frame), want.step(frame))

    def test_ring_sum_on_arbitrary_floats_is_unchanged(self):
        rng = np.random.default_rng(3)
        got, want = BoxcarFilter(9.0), ReferenceBoxcar(9.0)
        for _ in range(200):
            frame = rng.exponential(size=7) * (rng.random(7) < 0.5)
            same(got.step(frame), want.step(frame))

    def test_reset_forgets_the_window(self):
        f = BoxcarFilter(4.0)
        for exact in (True, False):
            f.step(np.array([3.0]))
            f.reset(exact)
            same(f.step(np.array([1.0])), np.array([1.0]))
            f.reset()

    def test_in_place_exponential_is_the_old_formula(self):
        rng = np.random.default_rng(11)
        got, want = ExponentialFilter(10.0), ReferenceExponential(10.0)
        for _ in range(500):
            frame = rng.normal(size=(3, 8)) * (rng.random((3, 8)) < 0.4)
            same(got.step(frame), want.step(frame))
        got.reset()
        same(got.step(np.ones(2)), ReferenceExponential(10.0).step(np.ones(2)))


class ReplaySpy:
    """Records what ``_SpikingStage.end`` answered, period by period."""

    def __init__(self, monkeypatch):
        self.answers = []
        real = _SpikingStage.end

        def end(stage):
            answer = real(stage)
            self.answers.append(answer)
            return answer

        monkeypatch.setattr(_SpikingStage, "end", end)


def oracle_period(dictionary, x, params, height, spec, carry=None, **kwargs):
    """``_run_period`` on the frozen corrected stage and filter; returns (result, stage).

    x (D,) or (B, D) runs as (1, B, D) on the dictionary's stack of one; the
    result's and the stage's per-sample arrays are read back in x's shape.
    """
    shape = np.shape(x)[:-1] + (dictionary.element_count,)
    carry = np.zeros(shape) if carry is None else carry
    stage = ReferenceStage(params.lam, height, carry.reshape(1, -1, shape[-1]),
                           reference_filter(spec, params.dt))
    result = _run_period(dictionary.elements[None], inhibition(dictionary)[None],
                         np.reshape(x, (1, -1, np.shape(x)[-1])), params, stage,
                         rows=0 if np.ndim(x) > 1 else None, **kwargs)
    result.code, result.half_mean = result.code.reshape(shape), result.half_mean.reshape(shape)
    result.state.u = result.state.u.reshape(shape)
    for name in ("carry", "value", "peak", "total"):
        setattr(stage, name, getattr(stage, name).reshape(shape))
    return result, stage


def assert_spiking_matches_oracle(got, want, stage):
    same(got.code, want.code)
    same(got.half_mean, want.half_mean)
    same(got.state.u, want.state.u)
    same(got.final_value, stage.value)
    same(got.accumulator.carry, stage.carry)
    assert got.max_counts == int(stage.peak.max())
    assert got.total_counts == int(stage.total.sum())


class TestRunSpikingInference:
    @pytest.mark.parametrize("spec", FILTERS, ids=filter_id)
    @pytest.mark.parametrize("height", ENGINE_HEIGHTS)
    @pytest.mark.parametrize("batch", [False, True], ids=["sample", "batch"])
    @pytest.mark.parametrize("rate", [False, True], ids=["constant", "rate"])
    def test_matches_the_corrected_stage(self, monkeypatch, spec, height, batch, rate):
        spy = ReplaySpy(monkeypatch)
        dictionary, x = instance(4, scale=3.0 * max(1.0, height))
        x = x if batch else x[0]

        def encoder():
            return InputRateEncoder(x, 0.05) if rate else None

        got = run_spiking_inference(dictionary, x, PARAMS, height, make_filter(spec, PARAMS.dt),
                                    input_encoder=encoder())
        want, stage = oracle_period(dictionary, x, PARAMS, height, spec, input_encoder=encoder())
        assert got.total_counts > 0
        assert_spiking_matches_oracle(got, want, stage)
        assert spy.answers == [True]  # one pass, exact or not

    @pytest.mark.parametrize("spec", FILTERS, ids=filter_id)
    def test_counts_past_the_bound_replay_on_the_corrected_path(self, monkeypatch, spec):
        # m = 2**26 - 1 leaves room for W * m under 2**32, so the period starts
        # exact; counts near 1e9 break the bound, which forces the replay.
        height = (2**26 - 1) * 2.0**-26
        spy = ReplaySpy(monkeypatch)
        dictionary, x = instance(4, scale=1e9)
        got = run_spiking_inference(dictionary, x, PARAMS, height, make_filter(spec, PARAMS.dt))
        want, stage = oracle_period(dictionary, x, PARAMS, height, spec)
        assert got.max_counts > 2**53 // (2**26 * 40)
        assert_spiking_matches_oracle(got, want, stage)
        assert spy.answers == [False]  # the exact pass did not stand

    @pytest.mark.parametrize("spec", FILTERS, ids=filter_id)
    def test_adversarial_start_carries_past_the_bound(self, spec):
        # A dictionary of zeros leaves the first step's count to the start carry
        # alone: carries at k * s for k near 2**22 break the bound.
        height = (2**31 - 1) * 2.0**-31
        if spec is not None and spec["kind"] == "boxcar":
            height = (2**26 - 1) * 2.0**-26  # W * m must stay under 2**32 to start exact
        carry = near_multiples(height, range(2**22, 2**22 + 400))
        assert is_exact(height, spec)
        dictionary = Dictionary(np.zeros((carry.size, 4)), InputDims(height=1, width=4))
        params = LcaParams(lam=0.0, dt=1.0, tau=10.0, steps=3)
        got = run_spiking_inference(
            dictionary, np.zeros(4), params, height, make_filter(spec, 1.0),
            initial_accumulator=AccumulatorState(carry.copy(), height))
        want, stage = oracle_period(dictionary, np.zeros(4), params, height, spec, carry.copy())
        assert_spiking_matches_oracle(got, want, stage)

    @pytest.mark.parametrize("height", [2.0**964, 3 * 2.0**960])
    def test_nonfinite_batch_names_the_reference_step_and_row(self, monkeypatch, height):
        dictionary = overflow_instance()
        x = overflow_input([0.5, 1.0, 1.19, 1.1, 1.19])
        assert is_exact(height, {"kind": "boxcar", "window_ms": 7.0})
        steps = {}
        for row, vec in enumerate(x):
            message = reference_error(dictionary, vec, height)
            if message is not None:
                steps[row] = int(message.rsplit(" ", 1)[1])
        first = min(steps.values())
        row = min(r for r, k in steps.items() if k == first)
        passes = []
        real = lca._integrate
        monkeypatch.setattr(lca, "_integrate", lambda *args: passes.append(args[-1]) or real(*args))
        with pytest.raises(NumericError) as info:
            run_spiking_inference(dictionary, x, OVERFLOW_PARAMS, height,
                                  make_filter({"kind": "boxcar", "window_ms": 7.0}, 1.0))
        assert passes == [False, True]  # no corrected rerun before the checked replay
        assert str(info.value) == f"non-finite membrane potential at step {first}, row {row}"
        assert re.fullmatch(r"non-finite membrane potential at step \d+, row \d+",
                            str(info.value))


def lockstep(heights, spec):
    runs = []
    for height in heights:
        config = config_from_dict(raw_config(spike_height=height, filter=spec))
        train, valid = experiment.load_dataset(config.dataset)
        runs.append(experiment._prepare_run(config, train, valid))
    return experiment._LockStep(runs), train


class TestLockStepPeriod:
    @pytest.mark.parametrize("spec", FILTERS, ids=filter_id)
    @pytest.mark.parametrize("heights", [
        [0.5], [1.0], [5.0], [20.0], [0.37], [0.5, 1.0, 5.0, 20.0], [1.0, 0.37],
        ENGINE_HEIGHTS,
    ], ids=str)
    @pytest.mark.parametrize("scale", [30.0, 1e18])
    def test_stacked_period_matches_the_corrected_stage(self, monkeypatch, spec, heights, scale):
        spy = ReplaySpy(monkeypatch)
        trainer, train = lockstep(heights, spec)
        x = np.array([train[i].input.flattened * scale for i in range(len(heights))])[:, None]
        params = trainer.config.lca_params()
        carry = np.random.default_rng(5).random(x.shape[:-1] + (16,)) * np.array(heights)[
            :, None, None]
        state = trainer.state
        lam, height = state.lam[:, None, None], state.spike_height[:, None, None]
        got = experiment._period(state, x, trainer.config.period_spec(),
                                 warm=SimpleNamespace(state=None, carry=carry.copy()))
        want_stage = ReferenceStage(lam, height, carry.copy(), reference_filter(spec, params.dt))
        want = _run_period(state.elements, state.inhib, x, params, want_stage)
        same(got.code, want.code)
        same(got.state.u, want.state.u)
        for name in ("carry", "counts", "value", "peak", "total"):
            same(getattr(got, name), getattr(want_stage, name))
        assert got.total.sum() > 0
        exact = is_exact(np.array(heights)[:, None, None], spec)
        assert spy.answers == [not (exact and scale > 1e6)]

