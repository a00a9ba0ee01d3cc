"""LCA inference: leaky-integrator dynamics with a pluggable output stage.

The membrane potentials follow a forward-Euler integration of the
inhibition-matrix form (Rozell et al., Neural Computation 2008)

    du/dt ~ b - u - (Phi Phi^T - I) output,    b = Phi input

where ``Phi`` is the (N, D) dictionary and ``output`` is what the neurons
emit. It equals ``analyze(input - synthesize(output)) + output - u``, so
the feed-forward drive ``b`` is computed once per period (once per step
for an encoded input) and each step costs one N x N product. One engine,
``_run_period``, integrates a period for graded and spiking LCA; only its
output stage differs. The graded stage emits the soft-thresholded code
itself; the spiking stage (see ``accumulator``) discretizes that code into
spikes. At a fixed point with output = soft_threshold(u), u minimizes the
energy ``0.5 * ||input - synthesize(code)||^2 + lam * ||code||_1`` locally.

A period works in place: it copies the start potentials once and steps
them through ``_euler`` in buffers it allocates once, and the stages
write their code and spikes into buffers of their own, so a step creates
no Python objects. Finiteness is checked once per period; a period that
ends non-finite is replayed from its start with a check after every step,
which names the step (and row) that went bad.

The engine takes one sample, input (D,) and state (N,), or a batch of
independent samples, input (B, D) and state (B, N), against the same
dictionary. Frozen-dictionary passes (evaluation, classifier features,
validation, reconstruction export) run batched; training periods run one
sample at a time, because each sample's update changes the dictionary.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from lcalearn.dictionary import Dictionary, analyze, synthesize
from lcalearn.errors import NumericError

TRACE_HEADER = ["step", "energy", "active", "du_inf"]


@dataclass(frozen=True)
class LcaParams:
    """Inference hyperparameters: threshold, timestep, time constant, step count."""

    lam: float
    dt: float = 1.0
    tau: float = 100.0
    steps: int = 2000

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"threshold must be >= 0, got {self.lam}")
        if not 0 < self.dt <= self.tau:
            raise ValueError(f"need 0 < dt <= tau, got dt={self.dt}, tau={self.tau}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass
class MembraneState:
    """Per-neuron membrane potentials plus the integration step counter."""

    u: np.ndarray
    step_index: int = 0

    @classmethod
    def zeros(cls, shape) -> "MembraneState":
        """Rest potentials: shape N for one sample, (B, N) for a batch."""
        return cls(np.zeros(shape), 0)


@dataclass
class InferenceResult:
    code: np.ndarray  # (N,), or (B, N) for a batch like every per-sample field
    state: MembraneState
    half_mean: np.ndarray = None  # mean code over the last half of the period
    codes: Optional[np.ndarray] = None  # (steps, N) per-step codes when traced
    trace: list = field(default_factory=list)  # rows matching TRACE_HEADER


def soft_threshold(u: np.ndarray, lam: float) -> np.ndarray:
    """Rectified soft threshold: u - lam where u > lam, else 0."""
    if lam < 0:
        raise ValueError(f"threshold must be >= 0, got {lam}")
    u = np.asarray(u, dtype=np.float64)
    return _shrink(u, lam, np.empty(u.shape))


def _shrink(u: np.ndarray, lam: float, out: np.ndarray) -> np.ndarray:
    """Writes ``max(u - lam, 0)`` into ``out`` and returns it."""
    np.subtract(u, lam, out=out)
    return np.maximum(out, 0.0, out=out)


def inhibition(dictionary: Dictionary) -> np.ndarray:
    """Lateral inhibition matrix ``Phi Phi^T - I`` (N, N): element overlaps, no self-term."""
    elements = dictionary.elements
    inhib = elements @ elements.T
    inhib[np.diag_indices_from(inhib)] -= 1.0
    return inhib


def _euler(u, drive, inhib, value, rate, tmp, du) -> None:
    """One forward-Euler step in place: ``u += rate * (drive - u - value @ inhib)``.

    ``tmp`` and ``du`` are scratch buffers shaped like ``u``. The operations
    run in the order the out-of-place expression evaluates them, so the
    result is the same bits.
    """
    np.matmul(value, inhib, out=tmp)
    np.subtract(drive, u, out=du)
    du -= tmp
    du *= rate
    u += du


def _check_finite(u: np.ndarray, step_index: int) -> None:
    """Raise ``NumericError`` naming the step (and first bad row) if ``u`` is not finite."""
    finite = np.isfinite(u)
    if not finite.all():
        where = f"step {step_index}"
        if u.ndim == 2:
            where += f", row {int(np.flatnonzero(~finite.all(axis=1))[0])}"
        raise NumericError(f"non-finite membrane potential at {where}")


def inhibit_step(
    state: MembraneState,
    drive: np.ndarray,
    inhib: np.ndarray,
    output_code: np.ndarray,
    rate: float,
) -> MembraneState:
    """One forward-Euler step ``u += rate * (drive - u - output_code @ inhib)``.

    ``drive`` is ``analyze(dictionary, input)``, ``inhib`` is
    ``inhibition(dictionary)`` and ``rate`` is ``dt / tau``. Returns a new
    state and leaves ``state`` as it was; raises ``NumericError`` if the
    new potentials are not finite. It steps through ``_euler``, the one
    update formula, which the period engine runs in place.
    """
    u = np.array(state.u, dtype=np.float64)
    _euler(u, drive, inhib, output_code, rate, np.empty(u.shape), np.empty(u.shape))
    _check_finite(u, state.step_index)
    return MembraneState(u, state.step_index + 1)


def lca_step(
    state: MembraneState,
    dictionary: Dictionary,
    input_vector: np.ndarray,
    params: LcaParams,
    output_code: np.ndarray,
) -> MembraneState:
    """One forward-Euler step of the membrane dynamics.

    ``output_code`` is whatever the neurons currently emit (graded code or
    spike value); it enters through the inhibition matrix, which holds
    both the reconstruction term and the self-excitation term. A batch
    carries one row per sample in every argument but ``dictionary`` and
    ``params``. Builds the drive and the inhibition matrix for this one
    step; the period engine builds them once per period.
    """
    return inhibit_step(
        state, analyze(dictionary, input_vector), inhibition(dictionary), output_code,
        params.dt / params.tau,
    )


def energy(
    dictionary: Dictionary,
    input_vector: np.ndarray,
    code: np.ndarray,
    lam: float,
) -> float:
    """Sparse-coding cost: 0.5 * ||input - reconstruction||^2 + lam * ||code||_1."""
    residual = np.asarray(input_vector, dtype=np.float64) - synthesize(dictionary, code)
    return 0.5 * float(residual @ residual) + lam * float(np.abs(code).sum())


class _GradedStage:
    """Graded output stage: neurons emit their soft-thresholded potential."""

    def __init__(self, lam: float):
        self.lam = lam

    def begin(self, u: np.ndarray, check: bool) -> np.ndarray:
        """Start (or restart) a period at potentials ``u``; returns the first code."""
        self.code = _shrink(u, self.lam, np.empty(u.shape))
        return self.code

    def emit(self, u: np.ndarray, code: np.ndarray) -> np.ndarray:
        return code  # the last reading, already soft_threshold(u)

    def read(self, u: np.ndarray, value: np.ndarray) -> np.ndarray:
        return _shrink(u, self.lam, self.code)


def _run_period(
    dictionary, input_vector, params, stage, *, initial_state=None,
    record_codes=False, record_trace=False, early_stop=None, input_encoder=None,
) -> InferenceResult:
    """Integrate one period of the dynamics through an output stage.

    The drive ``analyze(input)`` and the inhibition matrix are built once
    per period; under an input encoder the drive is rebuilt from each
    step's encoded input. Finiteness is checked once, at period end: the
    dynamics are deterministic and a non-finite potential never turns
    finite again, so when the check fails the period is replayed from its
    saved start (potentials, accumulator carry, input-encoder state) with a
    check after every step, which names the first bad step (and row).
    Both passes run with overflow and invalid-value warnings silenced;
    the replay's error is the report.

    A (B, D) input integrates B independent samples at once; each row
    matches its single-sample run up to float reordering in the matrix
    products. Per-step codes, traces and early stop are single-sample only.
    """
    input_vector = np.asarray(input_vector, dtype=np.float64)
    d, n = dictionary.input_size, dictionary.element_count
    if input_vector.ndim not in (1, 2) or input_vector.shape[-1] != d:
        raise ValueError(f"input has shape {input_vector.shape}, expected ({d},) or (B, {d})")
    if input_vector.ndim == 2 and (record_codes or record_trace or early_stop is not None):
        raise ValueError("per-step codes, traces and early stop are for one sample, not a batch")
    shape = input_vector.shape[:-1] + (n,)
    state = initial_state if initial_state is not None else MembraneState.zeros(shape)
    if state.u.shape != shape:
        raise ValueError(f"state has shape {state.u.shape}, expected {shape}")

    inhib = inhibition(dictionary)
    drive = analyze(dictionary, input_vector) if input_encoder is None else None
    # Each encoder step replaces the encoder's state object, never modifies it,
    # so holding the reference saves the period's start.
    encoder_start = None if input_encoder is None else input_encoder.state
    with np.errstate(over="ignore", invalid="ignore"):
        result = _integrate(
            dictionary, input_vector, params, stage, state, inhib, drive, input_encoder,
            record_codes, record_trace, early_stop, check=False,
        )
        if not np.isfinite(result.state.u).all():
            if input_encoder is not None:
                input_encoder.state = encoder_start
            _integrate(
                dictionary, input_vector, params, stage, state, inhib, drive, input_encoder,
                False, False, early_stop, check=True,
            )
            raise NumericError("non-finite membrane potential at period end")
    return result


def _integrate(
    dictionary, input_vector, params, stage, state, inhib, drive, input_encoder,
    record_codes, record_trace, early_stop, check,
) -> InferenceResult:
    """The step loop of ``_run_period``, on buffers it allocates once.

    Each step, ``stage.emit(u, code)`` gives the value that drives
    ``_euler``, and ``stage.read(u, value)`` gives the code recorded for
    the step from the new potentials. ``_euler`` is looked up as a module
    global on every step, so a wrapper installed on it (a profiler or
    tracer) sees each one. ``state`` is not modified. With ``check`` set,
    the potentials are checked after every step.
    """
    u = np.array(state.u, dtype=np.float64)
    step_index = state.step_index
    tmp, du = np.empty(u.shape), np.empty(u.shape)
    watch_du = record_trace or early_stop is not None
    prev = np.empty(u.shape) if watch_du else None
    codes = np.zeros((params.steps, u.shape[-1])) if record_codes else None
    trace: list = []
    half_start = params.steps // 2
    half_sum = np.zeros(u.shape)
    half_count = 0
    rate = params.dt / params.tau
    code = stage.begin(u, check)
    for i in range(params.steps):
        if input_encoder is not None:
            drive = analyze(dictionary, input_encoder.step())
        value = stage.emit(u, code)
        if watch_du:
            np.copyto(prev, u)
        _euler(u, drive, inhib, value, rate, tmp, du)
        if check:
            _check_finite(u, step_index)
        step_index += 1
        du_inf = float(np.abs(u - prev).max()) if watch_du else 0.0
        code = stage.read(u, value)
        if i >= half_start:
            half_sum += code
            half_count += 1
        if record_codes:
            codes[i] = code
        if record_trace:
            step_energy = energy(dictionary, input_vector, code, params.lam)
            trace.append([step_index, step_energy, int(np.count_nonzero(code)), du_inf])
        if early_stop is not None and du_inf < early_stop:
            if record_codes:
                codes = codes[: i + 1]
            break
    half_mean = half_sum / half_count if half_count else code.copy()
    return InferenceResult(
        code=code, state=MembraneState(u, step_index), half_mean=half_mean, codes=codes,
        trace=trace,
    )


def run_inference(
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
    """Integrate the dynamics for ``params.steps`` steps from rest (or a warm start).

    ``early_stop`` halts once the membrane update falls below the given
    infinity-norm tolerance; intended for convergence tests of one sample,
    not the fixed-length display periods used in training. ``input_encoder``
    optionally replaces the constant input current with a per-step encoded
    version (see ``accumulator.InputRateEncoder``).
    """
    return _run_period(
        dictionary, input_vector, params, _GradedStage(params.lam),
        initial_state=initial_state, record_codes=record_codes, record_trace=record_trace,
        early_stop=early_stop, input_encoder=input_encoder,
    )


def write_trace_csv(path, trace: list) -> None:
    """Dump per-step inference records as ``step,energy,active,du_inf``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in trace:
            writer.writerow([row[0], repr(float(row[1])), row[2], repr(float(row[3]))])
