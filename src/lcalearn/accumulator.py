"""Accumulator neurons: spike discretization with carry-over of rounding error.

Each neuron emits ``floor((carry + desired) / s)`` spikes of height ``s``
per timestep and keeps the remainder as carry, so cumulative emitted
output never drifts more than ``s`` from cumulative desired output.
Spiking LCA runs on the same period engine as graded LCA with one extra
output stage: soft-threshold, discretize with carry, then filter. The
spike values, not the graded code, drive the membrane dynamics. Like the
engine, the stage works on the (R, B, N) stack it is given; a lone run
is a stack of one, which ``run_spiking_inference`` builds from its
caller's (N,) or (B, N) carry and gives back in that shape. The one
factory ``_output_stage`` picks graded or spiking from the spike height;
only the public adapters (``run_inference``, ``run_spiking_inference``)
build a stage themselves.

``_discharge`` is the one discretization step; it works in place. The
stage runs it on a copy of the start carry and on count and value
buffers it allocates once per period, so a step creates no Python
objects, and it reduces the peak and total spike counts once, at period
end. ``accumulate_step`` is the public out-of-place form: it validates
its input and never modifies the state it is given.

The stage discharges every step, since the spikes drive the dynamics,
but filters only for the steps its caller reads (see ``lca``): it feeds
the filter from the first frame those reads need, the last W steps of a
boxcar when only the final code is read, and the filter averages only
on the steps that are read.

Exact periods. In floats, ``floor(C / s)`` can land one off the true
count of whole spikes in ``C``, so ``_discharge`` corrects it against
``counts * s``. Call a period *exact* when the spike height is a normal
float ``s = m * 2**e`` with ``m`` odd, and ``W * (peak + 1) * m < 2**53``,
where ``peak`` is the most spikes any neuron emitted in one step and
``W`` the number of frames the filter sums (1 without a boxcar). Then
every ``k * s`` with ``k <= peak + 1`` is exact, and so is every sum of
``W`` spike values. If ``C < k * s`` then ``C <= pred(k * s)``, which is
at least 2**-53 below ``k * s`` relative to it; the rounded quotient
would have to land within half an ulp of ``k``, at most 2**-53 of ``k``
relative, to reach ``k``. So ``fl(C / s) < k``; and ``C >= k * s`` gives
``fl(C / s) >= k``. The floor is then the true count, the first
correction compares exact values and never fires, nor does the second:
both can be skipped with the same bits. A wrong floor needs a true
count ``k`` with ``(k + 1) * m >= 2**53``; the skipped path then counts
``k`` or more, so the tallied peak breaks the bound. The stage therefore
runs a period exact when its heights leave room for real counts
(``W * m < 2**32``: 0.5, 1, 5, 20 or 3 * 2**-7, but not 0.1 or 0.37,
whose ``m`` has 52 bits), checks the bound on the peak at period end,
and replays the period from its start on the corrected path when it
fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from lcalearn.atomic import write_csv
from lcalearn.dictionary import Dictionary
from lcalearn.errors import NumericError
from lcalearn.filters import CodeFilter, IdentityFilter
from lcalearn.lca import (
    LcaParams,
    MembraneState,
    _GradedStage,
    _first_read,
    _lone_period,
    _shrink,
    lca_step,
    soft_threshold,
)

RASTER_HEADER = ["step", "neuron", "count"]


@dataclass
class AccumulatorState:
    """Per-neuron carry (accumulated rounding error) plus the global spike height."""

    carry: np.ndarray
    spike_height: float

    def __post_init__(self):
        if not self.spike_height > 0:  # NaN too
            raise ValueError(f"spike height must be > 0, got {self.spike_height}")

    @classmethod
    def zeros(cls, shape, spike_height: float) -> "AccumulatorState":
        return cls(np.zeros(shape), spike_height)


@dataclass
class SpikeFrame:
    """Spike counts for one timestep; the emitted value is counts * spike_height."""

    counts: np.ndarray
    spike_height: float

    @property
    def value(self) -> np.ndarray:
        return self.counts * self.spike_height


@dataclass
class SpikingResult:
    code: np.ndarray                 # filtered code at period end; (B, N) for a batch
    final_value: np.ndarray          # raw spike value at the last step
    state: MembraneState
    accumulator: AccumulatorState
    max_counts: int                  # max spikes by any neuron in any single step (any row)
    total_counts: int                # total spikes over the period (all rows)
    half_mean: np.ndarray = None     # mean filtered code over the last half
    raster: Optional[np.ndarray] = None  # (steps, N) int counts when recorded
    codes: Optional[np.ndarray] = None   # (steps, N) filtered codes when recorded


class InputRateEncoder:
    """Accumulator encoding of the input itself: per-pixel spike rates.

    Magnitudes go through the same discretize-with-carry mechanism as
    neuron outputs; signs are reapplied so signed event frames keep their
    polarity. With a small spike height this approaches the constant-drive
    default. The magnitudes are checked once, here; each step runs
    ``_discharge`` on the carry in place and writes the signed spike value
    into one buffer, which the next step overwrites.
    """

    def __init__(self, values: np.ndarray, spike_height: float):
        values = np.asarray(values, dtype=np.float64)
        if not spike_height > 0:  # NaN too
            raise ValueError(f"spike height must be > 0, got {spike_height}")
        self.signs = np.sign(values)
        self.magnitudes = np.abs(values)
        _check_desired(self.magnitudes)
        self.spike_height = spike_height
        self.carry = np.zeros(values.shape)
        self._counts, self._value, self._out = (np.empty(values.shape) for _ in range(3))
        self._flag = np.empty(values.shape, dtype=bool)

    def step(self) -> np.ndarray:
        _discharge(self.carry, self.magnitudes, self.spike_height, self._counts, self._value,
                   self._flag)
        return np.multiply(self.signs, self._value, out=self._out)


def _check_desired(desired: np.ndarray) -> None:
    if not np.isfinite(desired).all():
        raise NumericError("non-finite desired output in accumulator")
    if (desired < 0).any():
        raise ValueError("accumulator requires nonnegative desired outputs")


def _discharge(carry, desired, s, counts, tmp, flag) -> None:
    """Discretize one timestep in place: spikes of height ``s`` out of ``carry + desired``.

    Adds ``desired`` to ``carry``, writes ``floor(carry / s)`` into
    ``counts`` (as floats) and leaves the remainder in ``carry``; ``tmp``
    ends up holding ``counts * s``, the emitted value. ``flag`` is a bool
    scratch buffer. The floor is corrected against float rounding so that
    the carry stays in [0, s) exactly, which is what keeps every prefix of
    emitted output within one spike height of the desired output. With
    ``flag`` None the step is exact (see the module docstring): the
    corrections cannot fire and are skipped.
    """
    carry += desired
    np.divide(carry, s, out=tmp)
    np.floor(tmp, out=counts)
    if flag is not None:
        np.add(counts, 1.0, out=tmp)
        tmp *= s
        np.less_equal(tmp, carry, out=flag)
        counts += flag  # quotient rounded down across an integer
        np.multiply(counts, s, out=tmp)
        np.greater(tmp, carry, out=flag)
        counts -= flag  # quotient rounded up across an integer
    np.multiply(counts, s, out=tmp)
    carry -= tmp


def _odd_mantissa(spike_height) -> int:
    """The odd ``m`` with ``spike_height = m * 2**e``, or 0 if no period at it can be exact.

    A height must be a normal float below 2**971, so that every sum the
    bound admits (under 2**53 units of 2**e) stays finite. For an array
    of heights (a stack of runs), the largest ``m``, or 0 if any fails.
    """
    worst = 0
    for height in np.ravel(spike_height).tolist():
        if not np.finfo(np.float64).tiny <= height < 2.0 ** 971:
            return 0
        num = height.as_integer_ratio()[0]  # over a power of two
        worst = max(worst, num // (num & -num))
    return worst


def accumulate_step(
    state: AccumulatorState, desired: np.ndarray
) -> tuple[SpikeFrame, AccumulatorState]:
    """Discretize one timestep of desired output into spikes, carrying the remainder.

    Returns the spike frame and a new state; ``state`` is left as it was.
    Steps through ``_discharge``, as the spiking stage of the engine does.
    """
    desired = np.asarray(desired, dtype=np.float64)
    _check_desired(desired)
    s = state.spike_height
    carry = np.empty(np.broadcast(state.carry, desired).shape)
    carry[...] = state.carry
    counts, value = np.empty(carry.shape), np.empty(carry.shape)
    _discharge(carry, desired, s, counts, value, np.empty(carry.shape, dtype=bool))
    return SpikeFrame(counts.astype(np.int64), s), AccumulatorState(carry, s)


def slca_step(
    mstate: MembraneState,
    astate: AccumulatorState,
    dictionary: Dictionary,
    input_vector: np.ndarray,
    params: LcaParams,
) -> tuple[MembraneState, AccumulatorState, SpikeFrame]:
    """One spiking-LCA step: threshold, discretize, then drive the dynamics.

    The spike value, not the graded code, enters the reconstruction and
    inhibition terms.
    """
    desired = soft_threshold(mstate.u, params.lam)
    spikes, astate = accumulate_step(astate, desired)
    mstate = lca_step(mstate, dictionary, input_vector, params, spikes.value)
    return mstate, astate, spikes


class _SpikingStage:
    """Spiking output stage: soft-threshold, discretize with carry, filter; tallies spikes.

    Works in buffers it allocates at ``begin``: the carry (a copy of the
    start ``carry``, zeros if None), the desired output, the counts and the
    emitted value. The per-neuron peak and total counts run elementwise
    and are reduced once, when the period is read out. ``lam`` and
    ``spike_height`` are scalars, or (R, 1, 1) arrays for a stack of runs.
    Whether a period runs exact (see the module docstring) is decided
    once, from the heights: every run of a stack must qualify. An exact
    period skips the tie corrections and lets the filter keep a running
    sum; ``end`` checks the bound on the tallied peak. ``first_read`` is
    the period's first step whose code is read (``lca._first_read``):
    ``read`` returns None before it, and the filter is fed from its
    ``first_frame`` on.
    """

    def __init__(self, lam, spike_height, carry=None, code_filter=None, raster=None,
                 first_read=0):
        self.lam = lam
        self.spike_height = spike_height
        self.start = carry
        self.code_filter = IdentityFilter() if code_filter is None else code_filter
        self.raster = raster
        self.first_read = first_read
        self.first_frame = self.code_filter.first_frame(first_read)
        self.mantissa = _odd_mantissa(spike_height)
        # A long mantissa (0.1 and 0.37 need 52 bits) leaves no room under the
        # bound for real spike counts; such a period would nearly always replay.
        self.exact = 0 < self.mantissa * self.code_filter.window_steps < 2**32

    def begin(self, u: np.ndarray, check: bool) -> None:
        """Start (or restart) a period; with ``check`` the start's desired output is validated.

        Later steps start from potentials the engine has checked, so their
        desired output is finite and nonnegative, and a stack's run that
        goes non-finite does not stop the others.
        """
        start = self.start
        self.carry = np.zeros(u.shape) if start is None else np.array(start, dtype=np.float64)
        self.desired, self.counts, self.value = (np.empty(u.shape) for _ in range(3))
        if check:
            _check_desired(_shrink(u, self.lam, self.desired))
        self.flag = None if self.exact else np.empty(u.shape, dtype=bool)
        self.peak, self.total = np.zeros(u.shape), np.zeros(u.shape)
        self.steps = 0  # steps discharged
        self.code_filter.reset(self.exact, self.first_frame)

    def emit(self, u: np.ndarray, code) -> np.ndarray:
        desired = _shrink(u, self.lam, self.desired)
        _discharge(self.carry, desired, self.spike_height, self.counts, self.value, self.flag)
        np.maximum(self.peak, self.counts, out=self.peak)
        self.total += self.counts
        if self.raster is not None:
            self.raster[self.steps] = self.counts
        self.steps += 1
        return self.value

    def read(self, u: np.ndarray, value: np.ndarray) -> Optional[np.ndarray]:
        k = self.steps - 1  # the step ``emit`` just discharged
        if k < self.first_frame:
            return None
        return self.code_filter.step(value, k >= self.first_read)

    def end(self) -> bool:
        """Whether the period stands.

        An exact period whose peak broke the bound does not: the stage turns
        to the corrected path, and the period must be run again.
        """
        if self.exact:
            peak = float(self.peak.max())
            scale = self.mantissa * self.code_filter.window_steps
            if not (np.isfinite(peak) and (int(peak) + 1) * scale < 2**53):
                self.exact = False
                return False
        return True


def _output_stage(lam, spike_height, carry=None, code_filter=None, raster=None, first_read=0):
    """The one place that picks a period's mode: graded at spike height 0, else spiking.

    For a stack of runs, ``lam`` and ``spike_height`` are (R, 1, 1), and all
    heights are 0 or none is. A negative or NaN height is refused.
    """
    if not np.any(spike_height):
        return _GradedStage(lam)
    if not np.all(np.greater(spike_height, 0)):
        raise ValueError(f"spike height must be > 0, got {spike_height}")
    return _SpikingStage(lam, spike_height, carry, code_filter, raster, first_read)


def run_spiking_inference(
    dictionary: Dictionary,
    input_vector: np.ndarray,
    params: LcaParams,
    spike_height: float,
    code_filter: Optional[CodeFilter] = None,
    *,
    initial_state: Optional[MembraneState] = None,
    initial_accumulator: Optional[AccumulatorState] = None,
    record_raster: bool = False,
    record_codes: bool = False,
    input_encoder: Optional[InputRateEncoder] = None,
) -> SpikingResult:
    """Run one display period of spiking LCA and return the filtered code.

    The filter smooths the per-step spike values; with no filter the
    returned code is the raw spike value at the final step; the filter
    starts the period afresh. A (B, D) input runs B samples at once (see
    ``lca._run_period``); the raster is single-sample only.
    """
    n = dictionary.element_count
    if record_raster and np.ndim(input_vector) != 1:
        raise ValueError("a spike raster is recorded for one sample, not a batch")
    shape = np.shape(input_vector)[:-1] + (n,)
    astate = initial_accumulator
    if astate is None:
        astate = AccumulatorState.zeros(shape, spike_height)
    if astate.spike_height != spike_height:
        raise ValueError("initial accumulator has a different spike height")
    if astate.carry.shape != shape:
        raise ValueError(f"initial accumulator has shape {astate.carry.shape}, expected {shape}")
    raster = np.zeros((params.steps, n), dtype=np.int64) if record_raster else None
    stage = _SpikingStage(params.lam, spike_height, astate.carry.reshape(1, -1, n), code_filter,
                          raster, _first_read(params.steps, True, record_codes))
    period = _lone_period(dictionary, input_vector, params, stage, initial_state,
                          record_codes=record_codes, input_encoder=input_encoder)
    return SpikingResult(
        code=period.code, final_value=stage.value.reshape(shape), state=period.state,
        accumulator=AccumulatorState(stage.carry.reshape(shape), spike_height),
        max_counts=int(stage.peak.max()), total_counts=int(stage.total.sum()),
        half_mean=period.half_mean, raster=raster, codes=period.codes,
    )


def write_raster_csv(path, raster: np.ndarray) -> None:
    """Dump nonzero spike counts as ``step,neuron,count`` rows."""
    steps, neurons = np.nonzero(raster)
    write_csv(path, RASTER_HEADER, zip(steps, neurons, raster[steps, neurons]))
