"""Accumulator neurons: spike discretization with carry-over of rounding error.

Each neuron emits ``floor((carry + desired) / s)`` spikes of height ``s``
per timestep and keeps the remainder as carry, so cumulative emitted
output never drifts more than ``s`` from cumulative desired output.
Spiking LCA runs on the same period engine as graded LCA with one extra
output stage: soft-threshold, discretize with carry, then filter. The
spike values, not the graded code, drive the membrane dynamics. Like the
engine, the stage takes one sample or a (B, N) batch of them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from lcalearn.dictionary import Dictionary
from lcalearn.errors import NumericError
from lcalearn.filters import CodeFilter, IdentityFilter
from lcalearn.lca import LcaParams, MembraneState, _run_period, lca_step, soft_threshold

RASTER_HEADER = ["step", "neuron", "count"]


@dataclass
class AccumulatorState:
    """Per-neuron carry (accumulated rounding error) plus the global spike height."""

    carry: np.ndarray
    spike_height: float

    def __post_init__(self):
        if self.spike_height <= 0:
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
    default.
    """

    def __init__(self, values: np.ndarray, spike_height: float):
        values = np.asarray(values, dtype=np.float64)
        self.signs = np.sign(values)
        self.magnitudes = np.abs(values)
        self.state = AccumulatorState.zeros(values.shape, spike_height)

    def step(self) -> np.ndarray:
        frame, self.state = accumulate_step(self.state, self.magnitudes)
        return self.signs * frame.value


def accumulate_step(
    state: AccumulatorState, desired: np.ndarray
) -> tuple[SpikeFrame, AccumulatorState]:
    """Discretize one timestep of desired output into spikes, carrying the remainder.

    The floor is corrected against float rounding so that the carry stays in
    [0, s) exactly, which is what keeps every prefix of emitted output within
    one spike height of the desired output.
    """
    desired = np.asarray(desired, dtype=np.float64)
    if not np.isfinite(desired).all():
        raise NumericError("non-finite desired output in accumulator")
    if (desired < 0).any():
        raise ValueError("accumulator requires nonnegative desired outputs")
    s = state.spike_height
    v = state.carry + desired
    counts = np.floor(v / s)
    counts += (counts + 1.0) * s <= v  # quotient rounded down across an integer
    counts -= counts * s > v           # quotient rounded up across an integer
    counts = counts.astype(np.int64)
    carry = v - counts * s
    return SpikeFrame(counts, s), AccumulatorState(carry, s)


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
    """Spiking output stage: soft-threshold, discretize with carry, filter; tallies spikes."""

    def __init__(self, lam, accumulator, code_filter, raster):
        self.lam = lam
        self.accumulator = accumulator
        self.code_filter = code_filter
        self.raster = raster
        self.value = None
        self.steps = self.max_counts = self.total_counts = 0

    def emit(self, u: np.ndarray, code: np.ndarray) -> np.ndarray:
        spikes, self.accumulator = accumulate_step(
            self.accumulator, soft_threshold(u, self.lam)
        )
        self.max_counts = max(self.max_counts, int(spikes.counts.max()))
        self.total_counts += int(spikes.counts.sum())
        if self.raster is not None:
            self.raster[self.steps] = spikes.counts
        self.steps += 1
        self.value = spikes.value
        return self.value

    def read(self, u: np.ndarray, value: np.ndarray) -> np.ndarray:
        return self.code_filter.step(value)


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
    returned code is the raw spike value at the final step. A (B, D)
    input runs B samples at once (see ``lca._run_period``); the raster is
    single-sample only.
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
    code_filter = code_filter if code_filter is not None else IdentityFilter()
    raster = np.zeros((params.steps, n), dtype=np.int64) if record_raster else None
    stage = _SpikingStage(params.lam, astate, code_filter, raster)
    period = _run_period(
        dictionary, input_vector, params, stage,
        initial_state=initial_state, record_codes=record_codes, input_encoder=input_encoder,
    )
    return SpikingResult(
        code=period.code, final_value=stage.value, state=period.state,
        accumulator=stage.accumulator, max_counts=stage.max_counts,
        total_counts=stage.total_counts, half_mean=period.half_mean,
        raster=raster, codes=period.codes,
    )


def write_raster_csv(path, raster: np.ndarray) -> None:
    """Dump nonzero spike counts as ``step,neuron,count`` rows."""
    steps, neurons = np.nonzero(raster)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RASTER_HEADER)
        for step, neuron in zip(steps, neurons):
            writer.writerow([int(step), int(neuron), int(raster[step, neuron])])
