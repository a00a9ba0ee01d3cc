"""Frozen reference: the graded and spiking period loops as two separate copies.

These are the loops ``run_inference`` and ``run_spiking_inference`` ran
before both became wrappers over one shared engine. They are kept verbatim
so the differential tests can require the engine to reproduce them bit for
bit. Do not edit them to follow later changes to the engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from lcalearn.accumulator import (
    AccumulatorState,
    InputRateEncoder,
    SpikingResult,
    slca_step,
)
from lcalearn.dictionary import Dictionary
from lcalearn.filters import CodeFilter, IdentityFilter
from lcalearn.lca import (
    InferenceResult,
    LcaParams,
    MembraneState,
    energy,
    lca_step,
    soft_threshold,
)


def reference_run_inference(
    dictionary: Dictionary,
    input_vector: np.ndarray,
    params: LcaParams,
    *,
    initial_state: Optional[MembraneState] = None,
    record_codes: bool = False,
    record_trace: bool = False,
    early_stop: Optional[float] = None,
    input_encoder=None,
) -> InferenceResult:
    input_vector = np.asarray(input_vector, dtype=np.float64)
    if input_vector.shape != (dictionary.input_size,):
        raise ValueError(
            f"input has shape {input_vector.shape}, expected ({dictionary.input_size},)"
        )
    n = dictionary.element_count
    state = initial_state if initial_state is not None else MembraneState.zeros(n)
    if state.u.shape != (n,):
        raise ValueError(f"state has {state.u.shape[0]} neurons, dictionary has {n}")

    codes = np.zeros((params.steps, n)) if record_codes else None
    trace: list = []
    half_start = params.steps // 2
    half_sum = np.zeros(n)
    half_count = 0
    code = soft_threshold(state.u, params.lam)
    for i in range(params.steps):
        drive = input_vector if input_encoder is None else input_encoder.step()
        new_state = lca_step(state, dictionary, drive, params, code)
        du_inf = float(np.abs(new_state.u - state.u).max())
        state = new_state
        code = soft_threshold(state.u, params.lam)
        if i >= half_start:
            half_sum += code
            half_count += 1
        if record_codes:
            codes[i] = code
        if record_trace:
            trace.append(
                [
                    state.step_index,
                    energy(dictionary, input_vector, code, params.lam),
                    int(np.count_nonzero(code)),
                    du_inf,
                ]
            )
        if early_stop is not None and du_inf < early_stop:
            if record_codes:
                codes = codes[: i + 1]
            break
    half_mean = half_sum / half_count if half_count else code.copy()
    return InferenceResult(code=code, state=state, half_mean=half_mean, codes=codes, trace=trace)


def reference_run_spiking_inference(
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
    input_vector = np.asarray(input_vector, dtype=np.float64)
    if input_vector.shape != (dictionary.input_size,):
        raise ValueError(
            f"input has shape {input_vector.shape}, expected ({dictionary.input_size},)"
        )
    n = dictionary.element_count
    mstate = initial_state if initial_state is not None else MembraneState.zeros(n)
    astate = (
        initial_accumulator
        if initial_accumulator is not None
        else AccumulatorState.zeros(n, spike_height)
    )
    if astate.spike_height != spike_height:
        raise ValueError("initial accumulator has a different spike height")
    code_filter = code_filter if code_filter is not None else IdentityFilter()

    raster = np.zeros((params.steps, n), dtype=np.int64) if record_raster else None
    codes = np.zeros((params.steps, n)) if record_codes else None
    half_start = params.steps // 2
    half_sum = np.zeros(n)
    half_count = 0
    filtered = np.zeros(n)
    value = np.zeros(n)
    max_counts = 0
    total_counts = 0
    for i in range(params.steps):
        drive = input_vector if input_encoder is None else input_encoder.step()
        mstate, astate, spikes = slca_step(mstate, astate, dictionary, drive, params)
        value = spikes.value
        filtered = code_filter.step(value)
        step_max = int(spikes.counts.max())
        if step_max > max_counts:
            max_counts = step_max
        total_counts += int(spikes.counts.sum())
        if i >= half_start:
            half_sum += filtered
            half_count += 1
        if record_raster:
            raster[i] = spikes.counts
        if record_codes:
            codes[i] = filtered
    half_mean = half_sum / half_count if half_count else filtered.copy()
    return SpikingResult(
        code=filtered,
        final_value=value,
        state=mstate,
        accumulator=astate,
        max_counts=max_counts,
        total_counts=total_counts,
        half_mean=half_mean,
        raster=raster,
        codes=codes,
    )
