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
spikes; ``accumulator._output_stage`` picks between them. At a fixed point
with output = soft_threshold(u), u minimizes the energy
``0.5 * ||input - synthesize(code)||^2 + lam * ||code||_1`` locally.

One function runs a period: ``_run_period`` holds the step loop and both
passes of a period (the first pass, and one checked replay from its
start, on the corrected path, when the first ends non-finite or is an
exact spiking period whose peak broke its bound).
A pass works in place: it copies the start potentials once and steps
them through ``_euler`` in buffers it allocates once, and the stages
write their code and spikes into buffers of their own, so a step creates
no Python objects. Finiteness is checked once per period; a period that
ends non-finite is replayed from its start with a check after every step,
which finds each bad run's first bad step (and row).

A period computes only what its caller reads. The code is read at the
last step, on the last half of the steps when the caller reads their
mean (``half``), or on every step when codes, a trace or early stop are
recorded; ``_first_read`` names the first step read. The last-half mean
is summed only when it is read, and the spiking stage feeds its filter
only the frames those reads need. What is read keeps its bits.

Every period is a stack, and the engine takes no other shape: R runs,
each with its own dictionary, of B independent samples each, input
(R, B, D) and potentials (R, B, N) against (R, N, D) elements and
(R, N, N) inhibition matrices, each run bit-identical to its own period
alone. Frozen-dictionary passes (evaluation, classifier features,
reconstruction export, validation) run B samples per run. Training shows
each run one sample at a time, because each sample's update changes the
dictionary, so it integrates its R runs as (R, 1, D). A lone dictionary
is a stack of one: the public adapters (``run_inference``,
``run_spiking_inference``) check their caller's input, (D,) for one
sample or (B, D), run it as (1, B, D) through ``_lone_period`` and give
the results back in the caller's shape. A run that goes non-finite gets
its own error, the one it gets alone: its first bad step, and its first
bad row when its caller passed a batch. The other runs go on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from lcalearn.atomic import write_csv
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
    code: np.ndarray  # (N,) or (B, N) like every per-sample field; (R, B, N) in the engine
    state: MembraneState
    half_mean: np.ndarray = None  # mean code over the last half, None if not read
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


def _check_finite(u: np.ndarray, step_index: int, rows: Optional[int], errors=None) -> None:
    """Find each run of ``u`` (R, B, N) that is not finite, and its error.

    The error names the step and, unless ``rows`` is None (no batch), the
    run's first bad row counted from ``rows``, and goes to ``_fail``.
    """
    finite = np.isfinite(u).all(axis=-1)
    for r in np.flatnonzero(~finite.all(axis=-1)).tolist():
        row = "" if rows is None else f", row {rows + int(np.argmin(finite[r]))}"
        _fail(errors, r, NumericError(f"non-finite membrane potential at step {step_index}{row}"))


def _fail(errors, r: int, error: Exception) -> None:
    """Run ``r`` of a stack fails with ``error``: the one way a period reports a bad run.

    The error goes into ``errors`` (run -> error), where a run keeps the
    first error it gets; without ``errors``, it is raised.
    """
    if errors is None:
        raise error
    errors.setdefault(r, error)


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
    step; the period engine builds them once per period. Returns a new
    state and leaves ``state`` as it was; raises ``NumericError`` if the
    new potentials are not finite. It steps through ``_euler``, the one
    update formula, which the period engine runs in place.
    """
    u = np.array(state.u, dtype=np.float64)
    _euler(
        u, analyze(dictionary, input_vector), inhibition(dictionary), output_code,
        params.dt / params.tau, np.empty(u.shape), np.empty(u.shape),
    )
    _check_finite(u.reshape(1, -1, u.shape[-1]), state.step_index, 0 if u.ndim > 1 else None)
    return MembraneState(u, state.step_index + 1)


def energy(
    dictionary: Dictionary,
    input_vector: np.ndarray,
    code: np.ndarray,
    lam: float,
) -> float:
    """Sparse-coding cost: 0.5 * ||input - reconstruction||^2 + lam * ||code||_1."""
    residual = np.asarray(input_vector, dtype=np.float64) - synthesize(dictionary, code)
    return _cost(residual, code, lam)


def _cost(residual: np.ndarray, code: np.ndarray, lam: float) -> float:
    """``energy`` from the reconstruction residual of one sample."""
    return 0.5 * float(residual @ residual) + lam * float(np.abs(code).sum())


class _GradedStage:
    """Graded output stage: neurons emit their soft-thresholded potential.

    Its code drives the next step, so it reads every step.
    """

    carry = counts = value = peak = total = raster = None  # no spikes

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

    def end(self) -> bool:
        return True  # a graded period always stands


def _drive(elements: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Feed-forward drive ``analyze(x)``: ``x @ Phi^T``, per run for a stack of dictionaries."""
    return np.matmul(x, elements.swapaxes(-1, -2))


def _first_read(steps: int, half: bool, recording: bool) -> int:
    """The first step of a period whose code its caller reads.

    Step 0 when codes, a trace or early stop are recorded, else the first
    step of the last half when ``half`` (the mean is read), else the last.
    A stage built with it may return None for the steps before.
    """
    return 0 if recording else steps // 2 if half else steps - 1


def _run_period(
    elements, inhib, x, params, stage, *, initial_state=None, record_codes=False,
    record_trace=False, early_stop=None, input_encoder=None, half=True, rows=0, errors=None,
) -> InferenceResult:
    """Integrate one period of a stack of runs through an output stage.

    ``elements`` are the runs' dictionaries (R, N, D), ``inhib`` their
    inhibition matrices (R, N, N) and the input ``x`` is (R, B, D). Each
    run is integrated as it is alone, bit for bit, and each row matches
    its single-sample period up to float reordering in the matrix
    products. ``inhib`` is built by the caller (per period for a frozen
    dictionary; training keeps its own up to date). The drive
    ``analyze(x)`` is built once per period; under an input encoder it is
    rebuilt from each step's encoded input (an encoder of a lone caller's
    (D,) or (B, D) input steps in that shape, and its drive broadcasts
    over the stack). ``rows`` is the index of row 0's sample, from which
    an error counts its row, or None for a caller that passed no batch,
    the one that may record per-step codes, a trace or early stop.

    Finiteness is checked once, at period end: the dynamics are
    deterministic and a non-finite potential never turns finite again, so
    when the check fails the period is replayed from its saved start
    (potentials, accumulator carry, input-encoder carry) with a check
    after every step, which finds each bad run's first bad step, and its
    first bad row unless ``rows`` is None (see ``_check_finite``). Given
    an ``errors`` dict, the replay puts each bad run's error there and the
    result holds the other runs' periods; without one, the first bad step
    raises its error. A period whose stage's ``end()`` is false, a
    spiking period run exact past its bound, takes the same checked
    replay, on the corrected path (see ``accumulator``); the check only
    reads, so the replay has the bits of an unchecked rerun, and a period
    replays at most once. The drive and both passes are computed with
    overflow and invalid-value warnings silenced; the checked replay's
    errors are the report.

    Each pass steps on buffers it allocates once. Each step,
    ``stage.emit(u, code)`` gives the value that drives ``_euler``, and
    ``stage.read(u, value)`` the step's code from the new potentials.
    ``_euler`` is looked up as a module global on every step, so a wrapper
    installed on it (a profiler or tracer) sees each one. With ``half``
    false the last-half mean is not summed and ``half_mean`` is None.
    ``stage`` may skip the reads before ``_first_read`` of the period (see
    ``accumulator._SpikingStage``).
    """
    x = np.asarray(x, dtype=np.float64)
    runs, n, d = elements.shape
    if x.ndim != 3 or x.shape[0] != runs or x.shape[2] != d:
        raise ValueError(f"input has shape {x.shape}, expected ({runs}, B, {d})")
    record = record_codes or record_trace or early_stop is not None
    if record and not (rows is None and x.shape[:2] == (1, 1)):
        raise ValueError("per-step codes, traces and early stop are for one sample, not a batch")
    state = initial_state if initial_state is not None else MembraneState.zeros(x.shape[:2] + (n,))
    rate = params.dt / params.tau
    half_start = params.steps // 2 if half else params.steps  # no step is summed
    # The encoder steps its carry in place, so each pass restarts from a copy.
    encoder_start = None if input_encoder is None else input_encoder.carry.copy()

    def integrate(check):
        """One pass from the period's start (left as it was), checking every step with ``check``."""
        if input_encoder is not None:
            input_encoder.carry[...] = encoder_start
        u = np.array(state.u, dtype=np.float64)
        tmp, du = np.empty(u.shape), np.empty(u.shape)
        prev = u.copy() if record else None
        codes = np.zeros((params.steps, n)) if record_codes else None
        trace: list = []
        half_sum = np.zeros(u.shape) if half else None
        half_count = 0
        step_drive = drive
        code = stage.begin(u, check)
        for i in range(params.steps):
            if input_encoder is not None:
                step_drive = _drive(elements, input_encoder.step())
            value = stage.emit(u, code)
            _euler(u, step_drive, inhib, value, rate, tmp, du)
            if check:
                _check_finite(u, state.step_index + i, rows, errors)
            code = stage.read(u, value)
            if i >= half_start:
                half_sum += code
                half_count += 1
            if record:  # the one sample of the one run
                du_inf = float(np.abs(u - prev).max())
                np.copyto(prev, u)
                if record_codes:
                    codes[i] = code
                if record_trace:
                    one = code[0, 0]
                    step_energy = _cost(x[0, 0] - one @ elements[0], one, params.lam)
                    trace.append([state.step_index + i + 1, step_energy,
                                  int(np.count_nonzero(code)), du_inf])
                if early_stop is not None and du_inf < early_stop:
                    break
        half_mean = None
        if half:
            half_mean = half_sum / half_count if half_count else code.copy()
        return InferenceResult(  # the loop ran i + 1 steps
            code=code, state=MembraneState(u, state.step_index + i + 1), half_mean=half_mean,
            codes=None if codes is None else codes[: i + 1], trace=trace,
        )

    with np.errstate(over="ignore", invalid="ignore"):
        drive = _drive(elements, x) if input_encoder is None else None
        result = integrate(False)
        if not (stage.end() and np.isfinite(result.state.u).all()):  # end() runs first, always
            result = integrate(True)
    return result


def _lone_period(dictionary, input_vector, params, stage, initial_state=None,
                 **kwargs) -> InferenceResult:
    """A lone dictionary's period, run as a stack of one: the public adapters' boundary.

    Checks the caller's input, (D,) for one sample or (B, D), and start
    state, runs them as (1, B, D) and (1, B, N) through ``_run_period``,
    and gives the code, last-half mean and state back in the caller's
    shape, (N,) or (B, N). ``stage`` must be built for (1, B, N).
    """
    x = np.asarray(input_vector, dtype=np.float64)
    n, d = dictionary.elements.shape
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise ValueError(f"input has shape {x.shape}, expected ({d},) or (B, {d})")
    shape = x.shape[:-1] + (n,)
    if initial_state is not None:
        if initial_state.u.shape != shape:
            raise ValueError(f"state has shape {initial_state.u.shape}, expected {shape}")
        initial_state = MembraneState(initial_state.u.reshape(1, -1, n), initial_state.step_index)
    result = _run_period(
        dictionary.elements[None], inhibition(dictionary)[None], x.reshape(1, -1, d), params,
        stage, initial_state=initial_state, rows=0 if x.ndim > 1 else None, **kwargs,
    )
    result.code, result.half_mean = result.code.reshape(shape), result.half_mean.reshape(shape)
    result.state.u = result.state.u.reshape(shape)
    return result


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
    return _lone_period(
        dictionary, input_vector, params, _GradedStage(params.lam), initial_state,
        record_codes=record_codes, record_trace=record_trace, early_stop=early_stop,
        input_encoder=input_encoder,
    )


def write_trace_csv(path, trace: list) -> None:
    """Dump per-step inference records as ``step,energy,active,du_inf``."""
    write_csv(path, TRACE_HEADER, trace)
