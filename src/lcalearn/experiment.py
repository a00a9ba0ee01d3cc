"""Training schedules, sweeps, metrics, and run artifacts.

One training run shows each sample for a fixed display period (preceded
by a zero-input gap), infers a sparse code with graded or spiking
dynamics, and applies one Hebbian dictionary update per period from the
period-end (filtered) code. Runs are reproducible bit-for-bit from the
config and seed. Every period, trained or frozen, is one ``_period`` at
one ``PeriodSpec`` on a stack of runs, a ``_Stack`` (made one way, by
``_Stack.build``); the stage factory it calls picks graded or spiking.
Every pass over a frozen dictionary (validation, evaluation, features,
reconstruction export) is one ``_frozen_pass``. A lone dictionary is a
stack of one (``_Stack.lone``): its callers (``evaluate_codes``,
``collect_features``, ``cli`` ``infer`` and ``export-recon``) shape their
input as (1, B, D) and read the run's record back.

There is one training loop, ``_LockStep``. It trains R runs that share
N, D and mode (graded or spiking) in lock-step on one ``_Stack``:
(R, N, D) elements and (R, N, N) inhibition matrices, updated in place,
and validates them each epoch in one stacked ``_frozen_pass``. A run's
error, in training or validation, comes from the stack, which names the
run it belongs to; no run is rerun alone. ``run_training`` is the case
R = 1; ``run_sweep`` stacks the runs of a sweep (values x repeats) that
share N, in stacks of at most ``STACK_BYTES``. Each stacked run is
byte-identical to the same run trained alone. Periods compute the
last-half mean only for the callers that read it: training and
validation with a classifier block on ``mean_last_half`` features, and
``collect_features`` under that scheme.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from lcalearn import data as data_mod
from lcalearn.atomic import write_csv
from lcalearn.accumulator import InputRateEncoder, _output_stage
from lcalearn.dictionary import (
    Dictionary,
    InputDims,
    _hebbian_step,
    init_random,
    save_checkpoint,
)
from lcalearn.errors import ConfigError, NumericError, check_fields, check_value, read_block
from lcalearn.filters import make_filter
from lcalearn.lca import LcaParams, MembraneState, _fail, _first_read, _run_period, inhibition
from lcalearn import classifier as classifier_mod

METRICS_HEADER = [
    "epoch",
    "rmse_train",
    "rmse_val",
    "sparsity_pct",
    "accuracy",
    "max_spikes_per_step",
]

# Samples per batched frozen-dictionary period (validation included). It
# caps memory: a boxcar filter holds window x chunk x N floats.
INFER_CHUNK = 64

# Bytes of stacked elements and inhibition matrices, R * N * (D + N) * 8,
# that one lock-step stack of sweep runs may hold; a larger group trains as
# several stacks. 64 MiB is 97 runs at (64, 1280) and 32 at (256, 768). A
# frozen pass takes its runs in groups whose INFER_CHUNK-sample chunks, with
# their period buffers, G * INFER_CHUNK * (D + (W + 16) * N) floats for a
# boxcar of W steps, stay within the same cap: 55 runs at (64, 1280) and 25
# at (256, 768) unfiltered, 26 and 8 with a 40-step boxcar.
STACK_BYTES = 64 * 2**20


@dataclass(frozen=True)
class PeriodSpec:
    """The settings of a display period, as one value.

    ``spike_height`` 0 runs graded; ``input_spike_height`` None drives with
    the constant input, a height with its rate encoding.
    """

    params: LcaParams
    spike_height: float = 0.0
    filter: Optional[dict] = None
    input_spike_height: Optional[float] = None


@dataclass
class ExperimentConfig:
    """Everything one run needs; mirrors the JSON schema accepted by the CLI."""

    dataset: dict
    dict_size: int | dict
    lam: float = field(metadata={"key": "lambda"})
    spike_height: float = field(default=0.0, metadata={">=": 0})  # 0 disables spiking
    dt: float = field(default=1.0, metadata={">": 0})
    tau: float = 100.0
    display_ms: float = field(default=100.0, metadata={">=": 0})
    gap_ms: float = field(default=0.0, metadata={">=": 0})
    epochs: int = field(default=1, metadata={">=": 0})
    learning_rate: float = field(default=0.005, metadata={">": 0})
    filter: Optional[dict] = None
    classifier: Optional[dict] = None
    seed: int = field(default=0, metadata={">=": 0})
    warm_start: bool = False
    input_encoding: str = field(default="constant", metadata={"in": ("constant", "rate")})
    input_spike_height: float = field(default=0.01, metadata={">": 0})
    checkpoint_every: int = field(default=0, metadata={">=": 0})  # 0 writes only the final checkpoint
    batch_size: int = field(default=1, metadata={">=": 1})

    def __post_init__(self):
        check_fields(self)
        # Fields owned by other types are checked by building those types.
        try:
            self.lca_params()
        except ValueError as exc:
            raise ConfigError(f"invalid inference parameters: {exc}") from exc
        for name in ("display_ms", "gap_ms"):
            value = getattr(self, name)
            ratio = value / self.dt
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(f"{name}={value} is not a whole number of dt={self.dt} steps")
        if isinstance(self.dict_size, dict):
            extra = set(self.dict_size) - {"ratio"}
            if extra:
                raise ConfigError(f"unknown dict_size keys {sorted(extra)}")
            ratio = self.dict_size.get("ratio", 0)
            if isinstance(ratio, bool) or not (isinstance(ratio, numbers.Real) and 0 < ratio < math.inf):
                raise ConfigError(f"dict_size ratio must be a finite number > 0, got {ratio!r}")
        elif isinstance(self.dict_size, bool) or not isinstance(self.dict_size, numbers.Integral):
            raise ConfigError(f"dict_size must be an integer or a ratio, got {self.dict_size!r}")
        else:
            check_value("dict_size", self.dict_size, "int", {">=": 1})
        data_mod.read_dataset(self.dataset)
        make_filter(self.filter, self.dt)
        self.classifier_config()

    @property
    def display_steps(self) -> int:
        return round(self.display_ms / self.dt)

    @property
    def gap_steps(self) -> int:
        return round(self.gap_ms / self.dt)

    @property
    def feature_scheme(self) -> str:
        return self.classifier_config().feature_scheme

    def lca_params(self) -> LcaParams:
        return LcaParams(lam=self.lam, dt=self.dt, tau=self.tau, steps=self.display_steps)

    def period_spec(self) -> PeriodSpec:
        """A display period as the config sets it: spike height, filter and input drive."""
        rate = self.input_spike_height if self.input_encoding == "rate" else None
        return PeriodSpec(self.lca_params(), self.spike_height, self.filter, rate)

    def classifier_config(self) -> classifier_mod.ClassifierConfig:
        """Readout settings: the ``classifier`` block, with the run's seed."""
        block = {} if self.classifier is None else self.classifier
        return read_block(classifier_mod.ClassifierConfig, block, "classifier", nested=True,
                          seed=self.seed)


def config_from_dict(raw: dict, path=None) -> ExperimentConfig:
    """Build a config from parsed JSON (read from ``path``, if given); unknown keys are errors."""
    return read_block(ExperimentConfig, raw, "config", path)


def read_json(path):
    """Parse a JSON file; malformed JSON is a ``ConfigError`` that names the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path), path)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = asdict(config)
    out["lambda"] = out.pop("lam")
    return out


@dataclass
class RunMetrics:
    """Per-epoch training record; lists all share the epoch index."""

    rmse_train: list[float] = field(default_factory=list)
    rmse_val: list[float] = field(default_factory=list)
    sparsity_pct: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    max_spikes_per_step: list[int] = field(default_factory=list)
    mean_rate: list[float] = field(default_factory=list)

    def rows(self) -> list[list]:
        """One row per epoch, in ``METRICS_HEADER`` order, epochs counted from 1."""
        columns = (self.rmse_train, self.rmse_val, self.sparsity_pct, self.accuracy,
                   self.max_spikes_per_step)
        return [[epoch, *row] for epoch, row in enumerate(zip(*columns), 1)]

    def write_csv(self, path) -> None:
        write_csv(path, METRICS_HEADER, self.rows())


@dataclass
class TrainingResult:
    metrics: RunMetrics
    dictionary: Dictionary
    train_features: Optional[np.ndarray] = None
    valid_features: Optional[np.ndarray] = None


def rmse(original: np.ndarray, reconstruction: np.ndarray) -> float:
    """Root mean square elementwise difference, on the data's native range."""
    original = np.asarray(original, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    if original.shape != reconstruction.shape:
        raise ValueError(
            f"shape mismatch: {original.shape} vs {reconstruction.shape}"
        )
    return _rms(original - reconstruction)


def _rms(diff: np.ndarray) -> float:
    """Root mean square of ``diff``.

    Only where the squares of a finite ``diff`` overflow (past about 1.3e154)
    is it rescaled by ``max|diff|``, so other data keeps the plain form's bits.
    """
    with np.errstate(over="ignore"):
        value = float(np.sqrt(np.mean(diff * diff)))
    if math.isinf(value) and np.isfinite(diff).all():
        scale = float(np.abs(diff).max())
        value = scale * _rms(diff / scale)
    return value


def sparsity(code: np.ndarray) -> float:
    """Percentage of strictly positive code entries."""
    code = np.asarray(code)
    if code.size == 0:
        return 0.0
    return 100.0 * float(np.count_nonzero(code > 0)) / code.size


def resolve_dict_size(dict_size: int | dict, input_size: int) -> int:
    """Absolute N, or floor(ratio * D) for ratio specs like {"ratio": 0.5}."""
    if isinstance(dict_size, dict):
        n = int(dict_size["ratio"] * input_size)
        if n < 1:
            raise ConfigError(
                f"dict_size ratio {dict_size['ratio']} on D={input_size} gives N={n}"
            )
        return n
    return int(dict_size)


def load_dataset(
    spec: dict, fallback_seed: int = 0
) -> tuple[list[data_mod.LabeledSample], list[data_mod.LabeledSample]]:
    """Materialize (train, valid) sample lists from a dataset config."""
    return data_mod.read_dataset(spec).load(fallback_seed)


def _period(stack, x, spec, *, warm=None, record=False, half=True, rows=0, errors=None):
    """One period at ``spec``: the one path every period takes, graded or spiking.

    Builds the stage (by ``accumulator._output_stage``), its filter and the
    input rate encoder, then runs ``lca._run_period``. ``stack`` holds R
    runs (a ``_Stack``): its elements, inhibition matrices and per-run
    ``lam`` and ``spike_height`` are the period's, and x is (R, B, D).
    ``warm`` is the period to continue from. ``record`` fills the trace
    (and raster) of one sample, for a caller that passed no batch
    (``rows`` None). ``half`` says whether the caller reads the last-half
    mean; without it ``half_mean`` is None, and without either only the
    final code is computed. ``rows`` and ``errors`` go to ``_run_period``:
    with ``errors``, a run that goes non-finite leaves its error there,
    and the other runs' periods stand. A rate-encoded
    input is checked per run the same way: a run with a non-finite input
    gets the encoder's error, the one it gets alone, and is fed zeros.
    The result holds ``x`` too; the stage's carry, counts, value, peak,
    total and raster are None for a graded period.
    """
    params = spec.params
    raster = np.zeros((params.steps, stack.elements.shape[-2]), dtype=np.int64) if record else None
    stage = _output_stage(stack.lam[:, None, None], stack.spike_height[:, None, None],
                          None if warm is None else warm.carry,
                          make_filter(spec.filter, params.dt), raster,
                          _first_read(params.steps, half, record))
    encoder = None
    if spec.input_spike_height is not None:
        bad = ~np.isfinite(x).all(axis=(1, 2))
        for r in np.flatnonzero(bad).tolist():
            _fail(errors, r, NumericError("non-finite desired output in accumulator"))
        encoder = InputRateEncoder(np.where(bad[:, None, None], 0.0, x), spec.input_spike_height)
    result = _run_period(stack.elements, stack.inhib, x, params, stage, record_trace=record,
                         half=half, initial_state=None if warm is None else warm.state,
                         input_encoder=encoder, rows=rows, errors=errors)
    return SimpleNamespace(
        x=x, code=result.code, half_mean=result.half_mean, state=result.state, trace=result.trace,
        carry=stage.carry, counts=stage.counts, value=stage.value, peak=stage.peak,
        total=stage.total, raster=stage.raster)


def _pick(period, index) -> SimpleNamespace:
    """The runs ``index`` picks (a slice, mask or list) of a stacked ``_period``, still a stack."""
    rows = {k: v[index] if isinstance(v, np.ndarray) else v for k, v in vars(period).items()}
    rows["state"] = MembraneState(period.state.u[index], period.state.step_index)
    return SimpleNamespace(**rows)


def _feature(result, scheme: str) -> np.ndarray:
    """Classifier feature of one period: the final code or its last-half mean."""
    return result.code if scheme == "final" else result.half_mean


def _frozen_pass(stack, samples, spec, scheme="final", errors=None):
    """A cold pass of a stack of frozen dictionaries: the one loop that stacks samples.

    ``stack`` is a frozen ``_Stack`` of R runs (each at its own ``lam``
    and ``spike_height``, with fresh inhibition matrices), with one
    equally long sample list per run. Runs ``_period`` at ``spec`` on each
    chunk of at most ``INFER_CHUNK`` samples, in order, x (G, B, D), and
    reads the codes per run as (G, B, N). The runs go in groups of G, as
    many as fit in ``STACK_BYTES`` with their period buffers, so a run's
    chunks are the ones it takes alone. Each run's record holds its
    samples' ``rmse`` and ``sparsity`` summed in sample order, the
    ``peak`` and total (``spikes``) spike counts, 0 for graded periods,
    and one ``features`` row per sample under ``scheme``; the last-half
    mean is computed only under "mean_last_half". A run that
    fails (its potentials or its rate-encoded input go non-finite) gets
    the ``NumericError`` the stack finds for it, the one its pass alone
    raises, which names the sample by its index in the list: with
    ``errors``, it goes there (run -> error) and later chunks run without
    that run; without, it is raised. Returns the records, one per run; a
    failed run's is incomplete.
    """
    records = [SimpleNamespace(rmse=0.0, sparsity=0.0, peak=0, spikes=0, features=[])
               for _ in samples]
    n, d = stack.elements.shape[1:]
    window = make_filter(spec.filter, spec.params.dt).window_steps
    size = max(1, STACK_BYTES // (8 * INFER_CHUNK * (d + (window + 16) * n)))
    for first in range(0, len(samples), size):
        live = list(range(first, min(first + size, len(samples))))  # the runs that have not failed
        live_stack = stack.select(slice(first, first + size))
        for start in range(0, len(samples[0]), INFER_CHUNK):
            x = np.array([[s.input.flattened for s in samples[r][start:start + INFER_CHUNK]]
                          for r in live])
            found = None if errors is None else {}
            result = _period(live_stack, x, spec, half=scheme == "mean_last_half", rows=start,
                             errors=found)
            for i, r in enumerate(live):
                if found and i in found:
                    errors[r] = found[i]
                    continue
                totals = records[r]
                residual = np.matmul(result.code[i], live_stack.elements[i])
                np.subtract(x[i], residual, out=residual)  # one (B, D) buffer, as synthesize's
                for res, row in zip(residual, result.code[i]):
                    totals.rmse += _rms(res)
                    totals.sparsity += sparsity(row)
                if result.peak is not None:
                    totals.peak = max(totals.peak, int(result.peak[i].max()))
                    totals.spikes += int(result.total[i].sum())
                totals.features.append(_feature(result, scheme)[i])
            if found:
                live = [r for r in live if r not in errors]
                if not live:
                    break
                live_stack = stack.select(live)
    for totals in records:
        totals.features = np.concatenate(totals.features or [np.zeros((0, n))])
    return records


def _lone_pass(dictionary: Dictionary, samples: list, spec: PeriodSpec, scheme="final"):
    """A lone dictionary's ``_frozen_pass``, as a stack of one: its record, or its error raised."""
    return _frozen_pass(_Stack.lone(dictionary, spec), [samples], spec, scheme)[0]


def run_training(
    config: ExperimentConfig,
    train_samples: Optional[list] = None,
    valid_samples: Optional[list] = None,
    out_dir=None,
    initial_dictionary: Optional[Dictionary] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> TrainingResult:
    """Train a dictionary per the config; optionally write run artifacts.

    Artifacts under ``out_dir``: ``metrics.csv`` (rewritten after every
    epoch, so an interrupted run leaves its completed epochs behind) and
    ``dict_epoch_<k>.lcad`` checkpoints. On ``KeyboardInterrupt`` a live
    run saves its dictionary as it stands to ``dict_interrupted.lcad``, a
    start to restart from (not a resume: it keeps no epoch count, RNG state
    or metrics), and re-raises. The run trains as a lock-step
    stack of one (see ``_LockStep``), the trainer ``run_sweep`` uses.
    """
    if train_samples is None or valid_samples is None:
        loaded_train, loaded_valid = load_dataset(config.dataset, config.seed)
        train_samples = loaded_train if train_samples is None else train_samples
        valid_samples = loaded_valid if valid_samples is None else valid_samples
    run = _prepare_run(config, train_samples, valid_samples, initial_dictionary, out_dir, progress)
    trainer = _LockStep([run])
    try:
        trainer.train()
    except KeyboardInterrupt:
        if run.out_dir is not None and trainer.runs:  # the run is still live
            save_checkpoint(trainer.state.dictionary(0), run.out_dir / "dict_interrupted.lcad")
        raise
    if run.error is not None:
        raise run.error
    return trainer.result(run)


@dataclass(eq=False)  # a run is itself alone: two runs may hold equal settings and data
class _Run:
    """One training run of a lock-step stack: its data, its own bookkeeping, its outcome."""

    config: ExperimentConfig
    train: list
    valid: list
    dims: InputDims
    n: int
    initial: Optional[Dictionary] = None  # the start if not init_random's; the stack trains a copy
    out_dir: Optional[Path] = None
    progress: Optional[Callable[[str], None]] = None
    done: bool = False  # trained through its last epoch
    error: Optional[Exception] = None

    def __post_init__(self):
        self.rng = np.random.default_rng(self.config.seed)
        self.metrics = RunMetrics()
        self.pending: list[tuple[np.ndarray, np.ndarray]] = []  # (code, residual) per period
        self.train_features = self.valid_features = None

    def tally(self, peak, total) -> None:
        """Add a period's peak and total spike counts (per neuron, or summed) to the epoch's."""
        self.max_counts = max(self.max_counts, int(np.max(peak)))
        self.total_counts += int(np.sum(total))


def _prepare_run(
    config, train, valid, initial_dictionary=None, out_dir=None, progress=None,
) -> _Run:
    """Check a run's samples and build its start dictionary; raises what the run would.

    The samples go through ``data.check_splits``, the command line's rules
    in its words, with the readout rule under a classifier block, so a bad
    split is refused before any period runs.
    """
    dims = data_mod.check_splits(train, valid, readout=config.classifier is not None)
    n = resolve_dict_size(config.dict_size, dims.size)
    if initial_dictionary is not None:
        if initial_dictionary.dims != dims:
            raise ConfigError(f"dictionary dims {astuple(initial_dictionary.dims)} do not match "
                              f"the dims {astuple(dims)} of the dataset")
        n = initial_dictionary.element_count
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    return _Run(config, train, valid, dims, n, initial_dictionary, out_dir, progress)


@dataclass
class _Stack:
    """The dictionaries of R runs that share (N, D): the stack every period runs on.

    ``elements`` is (R, N, D) and ``inhib`` (R, N, N), each run's
    inhibition matrix; ``lam`` and ``spike_height`` hold one value per run,
    and ``dims`` are the input dims the runs share. ``build`` is the one
    way a stack is made. In training, a Hebbian step
    (``dictionary._hebbian_step``, the rule of ``hebbian_update``) moves a
    run's active rows of ``elements`` in place, and ``refresh`` recomputes
    those rows and columns of its inhibition matrix from the current
    elements, so the matrix never drifts from ``inhibition`` of the
    elements (it differs from a full rebuild by rounding only).
    """

    elements: np.ndarray
    inhib: np.ndarray
    lam: np.ndarray
    spike_height: np.ndarray
    dims: InputDims

    @classmethod
    def build(cls, elements, lam, spike_height, dims) -> "_Stack":
        """Dictionaries ``elements`` (R, N, D), not copied, with fresh ``inhibition`` matrices."""
        inhib = np.array([inhibition(Dictionary(e, dims)) for e in elements])
        return cls(elements, inhib, np.asarray(lam), np.asarray(spike_height), dims)

    @classmethod
    def lone(cls, dictionary: Dictionary, spec: PeriodSpec) -> "_Stack":
        """A lone dictionary at ``spec``'s threshold and spike height, as a stack of one."""
        return cls.build(dictionary.elements[None], [spec.params.lam], [spec.spike_height],
                         dictionary.dims)

    def select(self, index) -> "_Stack":
        """The runs ``index`` picks, still a stack: views for a slice, a copy for a mask."""
        return _Stack(self.elements[index], self.inhib[index], self.lam[index],
                      self.spike_height[index], self.dims)

    def refresh(self, r: int, rows: np.ndarray) -> None:
        """Recompute rows and columns ``rows`` of run ``r``'s inhibition matrix."""
        elements, inhib = self.elements[r], self.inhib[r]
        block = elements[rows] @ elements.T
        inhib[rows] = block
        inhib[:, rows] = block.T
        inhib[rows, rows] -= 1.0

    def dictionary(self, r: int) -> Dictionary:
        """Run ``r``'s dictionary, as a copy the stack will not write."""
        return Dictionary(self.elements[r].copy(), self.dims)


class _LockStep:
    """Trains runs that share N, D, mode and schedule in lock-step on one ``_Stack``.

    Each training period integrates every live run at once through
    ``_period``, with the potentials as (R, 1, N) against the
    (R, N, N) inhibition matrices, so each run computes what it computes
    alone, bit for bit. The runs validate together too, by one stacked
    ``_frozen_pass`` over (R, B, D) chunks of their validation samples,
    which gives each run the bits of its solo pass at its own config.
    Each run keeps its own seed, permutation, samples, warm state,
    ``lam`` and spike height, input encoder and metrics. A run that
    raises leaves the stack with the error it gives alone; the others go
    on unchanged.
    """

    def __init__(self, runs: list[_Run]):
        self.runs = list(runs)
        self.config = runs[0].config
        n, dims = runs[0].n, runs[0].dims
        elements = np.empty((len(runs), n, dims.size))
        for r, run in enumerate(runs):
            elements[r] = (run.initial or init_random(run.config.seed, n, dims)).elements
        self.state = _Stack.build(elements, [run.config.lam for run in runs],
                                  [run.config.spike_height for run in runs], dims)
        self.warm = None  # the live runs' last period, when state carries over

    def drop(self, errors: dict) -> None:
        """Take the runs that raised (index -> exception) out of the stack."""
        if not errors:
            return
        keep = np.ones(len(self.runs), dtype=bool)
        for i, exc in errors.items():
            self.runs[i].error = exc
            keep[i] = False
        self.runs = [run for run, kept in zip(self.runs, keep) if kept]
        self.state = self.state.select(keep)
        if self.warm is not None:
            self.warm = _pick(self.warm, keep)

    def stacked_period(self, sample, spec, *, warm=False, half=False):
        """One training (or gap) period at ``spec`` of every live run, run i on its ``sample(run)``.

        The (D,) samples stack as x (R, 1, D), each run's threshold and
        spike height as (R, 1, 1); with ``warm`` the period starts from
        ``self.warm``, and ``half`` computes the last-half mean (see
        ``_period``). Returns the ``_period`` result of the runs that
        remain, or None if none does. A run that fails (its potentials or
        its rate-encoded input go non-finite) leaves the stack with the
        error the stack finds for it, which names no row, as its
        single-sample period alone does. Any other exception propagates.
        """
        x = np.array([sample(run) for run in self.runs])[:, None, :]
        errors = {}
        out = _period(self.state, x, spec, warm=self.warm if warm else None, half=half,
                      rows=None, errors=errors)
        self.drop(errors)
        if errors:
            out = _pick(out, [i for i in range(len(x)) if i not in errors])
        return out if self.runs else None

    def each_run(self, step) -> None:
        """``step(i, run)`` for every live run; a run whose step raises leaves the stack."""
        errors = {}
        for i, run in enumerate(self.runs):
            try:
                step(i, run)
            except Exception as exc:  # noqa: BLE001 - recorded as the run's failure
                errors[i] = exc
        self.drop(errors)

    def train(self) -> None:
        """Run every epoch; marks each run ``done``, or sets its ``error``."""
        config = self.config
        spec = config.period_spec()  # lam and spike height come per run from the state
        n, d = self.state.elements.shape[1:]
        n_train = len(self.runs[0].train)
        want_features = config.classifier is not None
        scheme = config.feature_scheme
        half = want_features and scheme == "mean_last_half"
        for epoch in range(config.epochs):
            for run in self.runs:
                run.order = run.rng.permutation(n_train)
                run.rmse_sum, run.max_counts, run.total_counts = 0.0, 0, 0
                run.epoch_train_features = np.zeros((n_train, n)) if want_features else None
            for position in range(n_train):
                if self.warm is not None and config.gap_steps:
                    # Zero input, so no filter and no rate encoding; heights come per run.
                    gap = PeriodSpec(replace(spec.params, steps=config.gap_steps))
                    self.warm = self.stacked_period(lambda run: np.zeros(d), gap, warm=True)
                    if self.warm is None:
                        return
                out = self.stacked_period(
                    lambda run: run.train[run.order[position]].input.flattened, spec, warm=True,
                    half=half)
                if out is None:
                    return
                if config.warm_start:
                    self.warm = out
                residual = out.x - np.matmul(out.code, self.state.elements)
                feature = _feature(out, scheme) if want_features else None
                for i, run in enumerate(self.runs):
                    res = residual[i, 0]
                    run.rmse_sum += _rms(res)
                    if out.peak is not None:
                        run.tally(out.peak[i], out.total[i])
                    if want_features:
                        run.epoch_train_features[run.order[position]] = feature[i, 0]
                    run.pending.append((out.code[i, 0], res))
                if len(self.runs[0].pending) >= config.batch_size or position == n_train - 1:
                    self.each_run(lambda i, run: self.learn(i, run, config.learning_rate))
                    if not self.runs:
                        return
            self.end_epoch(spec, epoch)
            if not self.runs:
                return

        def finish(i, run):
            if run.out_dir is not None and config.epochs == 0:
                run.metrics.write_csv(run.out_dir / "metrics.csv")
                save_checkpoint(self.state.dictionary(i), run.out_dir / "dict_epoch_0.lcad")
            run.done = True

        self.each_run(finish)

    def result(self, run: _Run) -> TrainingResult:
        """A trained run's result; its dictionary is a copy the state will not write."""
        return TrainingResult(run.metrics, self.state.dictionary(self.runs.index(run)),
                              run.train_features, run.valid_features)

    def learn(self, i: int, run: _Run, learning_rate: float) -> None:
        """Apply run i's pending updates in order, then refresh the rows they moved once."""
        pending, run.pending = run.pending, []
        moved = [_hebbian_step(self.state.elements[i], code, residual, learning_rate)
                 for code, residual in pending if np.any(code)]
        if len(moved) == 1:
            self.state.refresh(i, moved[0])  # already sorted and unique
        elif moved:
            self.state.refresh(i, np.unique(np.concatenate(moved)))

    def end_epoch(self, spec: PeriodSpec, epoch: int) -> None:
        """Validate the live runs in one stacked pass, then write each run's epoch record.

        The pass is one ``_frozen_pass`` on a ``_Stack`` of the runs'
        current dictionaries, which takes the runs in groups whose chunks fit
        ``STACK_BYTES``. A run that fails there fails with the error the
        stack finds for it; the others keep their records.
        """
        scheme = self.config.feature_scheme if self.config.classifier is not None else "final"
        state, errors = self.state, {}
        records = _frozen_pass(
            _Stack.build(state.elements, state.lam, state.spike_height, state.dims),
            [run.valid for run in self.runs], spec, scheme, errors)

        def record(i, run):
            if i in errors:
                raise errors[i]
            self.record_epoch(i, run, records[i], epoch, spec.params.steps)

        self.each_run(record)

    def record_epoch(self, i: int, run: _Run, valid, epoch: int, steps: int) -> None:
        """Run i's epoch record from its validation: classifier, metrics, artifacts, progress."""
        config = run.config
        run.tally(valid.peak, valid.spikes)
        accuracy = math.nan
        if config.classifier is not None:
            run.train_features = run.epoch_train_features
            run.valid_features = valid.features
            model = classifier_mod.train(
                run.train_features,
                np.array([s.label for s in run.train]),
                config.classifier_config(),
            )
            if run.valid:
                accuracy = classifier_mod.evaluate(
                    model, run.valid_features, np.array([s.label for s in run.valid])
                )
        n = self.state.elements.shape[1]
        n_valid = max(len(run.valid), 1)
        steps_run = (len(run.train) + len(run.valid)) * steps
        metrics = run.metrics
        metrics.rmse_train.append(run.rmse_sum / len(run.train))
        metrics.rmse_val.append(valid.rmse / n_valid if run.valid else math.nan)
        metrics.sparsity_pct.append(valid.sparsity / n_valid if run.valid else math.nan)
        metrics.accuracy.append(accuracy)
        metrics.max_spikes_per_step.append(run.max_counts)
        metrics.mean_rate.append(
            run.total_counts / (steps_run * n) if config.spike_height > 0 else math.nan
        )
        if run.out_dir is not None:
            metrics.write_csv(run.out_dir / "metrics.csv")
            last = epoch == config.epochs - 1
            interval = config.checkpoint_every
            if last or (interval > 0 and (epoch + 1) % interval == 0):
                save_checkpoint(self.state.dictionary(i),
                                run.out_dir / f"dict_epoch_{epoch + 1}.lcad")
        if run.progress is not None:
            run.progress(
                f"epoch {epoch + 1}/{config.epochs}: "
                f"rmse_train={metrics.rmse_train[-1]:.4f} "
                f"rmse_val={metrics.rmse_val[-1]:.4f} "
                f"sparsity={metrics.sparsity_pct[-1]:.2f}%"
            )


def evaluate_codes(
    dictionary: Dictionary,
    samples: list,
    params: LcaParams,
    spike_height: float = 0.0,
    filter_spec: Optional[dict] = None,
) -> dict:
    """Reconstruction metrics for a frozen dictionary on a sample list.

    With ``spike_height`` > 0 and no filter the code is the raw period-end
    spike value (the no-averaging reading); a filter spec smooths it.
    """
    if not samples:
        raise ValueError("need at least one sample")
    totals = _lone_pass(dictionary, samples, PeriodSpec(params, spike_height, filter_spec))
    return {
        "rmse": totals.rmse / len(samples),
        "sparsity_pct": totals.sparsity / len(samples),
        "max_spikes_per_step": totals.peak,
    }


def collect_features(
    dictionary: Dictionary, samples: list, config: ExperimentConfig
) -> np.ndarray:
    """Classifier features from a frozen dictionary, one row per sample."""
    return _lone_pass(dictionary, samples, config.period_spec(), config.feature_scheme).features


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _dict_size_value(value):
    """A ``dict_size`` sweep value: an int, a ``{"ratio": r}``, or the text of either ("0.5x")."""
    if isinstance(value, str) and value.endswith("x"):
        return {"ratio": float(value[:-1])}
    return value if isinstance(value, dict) else int(value)


# Each sweep axis: the config field its values set, and the converter that reads
# a value from ``--values`` text ("64", "0.5x") or from Python.
SWEEP_AXES = {"lambda": ("lam", float), "s": ("spike_height", float),
              "dict_size": ("dict_size", _dict_size_value)}

SWEEP_HEADER = [
    "value", "repeats", "failed",
    "rmse_val_mean", "rmse_val_ci",
    "sparsity_mean", "sparsity_ci",
    "accuracy_mean", "accuracy_ci",
    "max_spikes_mean",
]

# A sweep row's statistics by column prefix: the mean and CI of a ``RunMetrics``
# list's last epoch over completed runs, kept where ``SWEEP_HEADER`` names them.
_SWEEP_STATS = {"rmse_val": "rmse_val", "sparsity": "sparsity_pct", "accuracy": "accuracy",
                "max_spikes": "max_spikes_per_step"}


@dataclass
class SweepResult:
    axis: str
    rows: list[dict]
    # One {"value", "seed", "error": "ExceptionType: message"} per failed run.
    failures: list[dict] = field(default_factory=list)

    def write_csv(self, path) -> None:
        write_csv(path, SWEEP_HEADER, ([row[key] for key in SWEEP_HEADER] for row in self.rows))


def _mean_ci(values: list[float]) -> tuple[float, float]:
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return math.nan, math.nan
    mean = float(np.mean(clean))
    if len(clean) < 2:
        return mean, math.nan
    from scipy.special import stdtrit  # deferred: most of the CLI's import time

    half = float(
        stdtrit(len(clean) - 1, 0.975) * np.std(clean, ddof=1) / math.sqrt(len(clean))
    )
    return mean, half


def _sweep_axis(axis: str):
    """The (config field, value converter) of a sweep axis; refuses an unknown one."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    return SWEEP_AXES[axis]


def apply_axis(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """``config`` with ``axis``'s field set to ``value``, converted by ``SWEEP_AXES``."""
    name, convert = _sweep_axis(axis)
    return replace(config, **{name: convert(value)})


def run_sweep(
    base: ExperimentConfig,
    axis: str,
    values: list,
    repeats: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Repeated seeded runs per axis value; reports mean and 95% CI half-widths.

    A run that raises marks its cell as failed instead of aborting the
    sweep, and its exception is kept in ``failures``; statistics cover the
    runs that completed. The dataset is loaded once per seed it depends
    on: every run shares it unless it is a synthetic spec without its own
    ``seed``, which each repeat generates from its run seed. Runs that
    share dims, N, mode and sample counts train in lock-step stacks of at
    most ``STACK_BYTES``; each gives the results, and any error, it gives
    alone. Rows, failures and progress lines keep the value-major order.
    """
    _sweep_axis(axis)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    spec = data_mod.read_dataset(base.dataset)
    run_seeded = isinstance(spec, data_mod.SyntheticSpec) and spec.seed is None
    datasets: dict = {}  # run seed the data depends on (None if none) -> (train, valid)
    cells = []  # (value, repeat, _Run or the exception that stopped it), value-major
    for value in values:
        for r in range(repeats):
            try:
                cfg = apply_axis(replace(base, seed=base.seed + r), axis, value)
                key = cfg.seed if run_seeded else None
                if key not in datasets:
                    datasets[key] = load_dataset(cfg.dataset, cfg.seed)
                cells.append((value, r, _prepare_run(cfg, *datasets[key])))
            except Exception as exc:  # noqa: BLE001 - failed cells are recorded, not fatal
                cells.append((value, r, exc))

    groups: dict = {}  # runs that can share a stack: same dims, N, mode and sample counts
    for _, _, run in cells:
        if isinstance(run, _Run):
            key = (run.dims, run.n, run.config.spike_height > 0,
                   len(run.train), len(run.valid))
            groups.setdefault(key, []).append(run)

    def finished(run) -> bool:
        return not isinstance(run, _Run) or run.done or run.error is not None

    reported = 0  # progress lines keep the cells' order: each once the cells before it finish
    for (dims, n, *_), runs in groups.items():
        size = max(1, STACK_BYTES // (8 * n * (dims.size + n)))
        for first in range(0, len(runs), size):
            stack = runs[first:first + size]
            try:
                _LockStep(stack).train()
            except Exception as exc:  # noqa: BLE001 - a broken stack fails its unfinished runs
                for run in stack:
                    if not finished(run):
                        run.error = exc
            while reported < len(cells) and finished(cells[reported][2]):
                value, r, run = cells[reported]
                if progress is not None and isinstance(run, _Run) and run.error is None:
                    progress(f"{axis}={value} repeat {r + 1}/{repeats} done")
                reported += 1

    rows = []
    failures = []
    for start in range(0, len(cells), repeats):
        value = cells[start][0]
        completed, failed = [], 0
        for _, r, run in cells[start:start + repeats]:
            error = run if not isinstance(run, _Run) else run.error
            if error is not None:
                failed += 1
                failures.append({"value": value, "seed": base.seed + r,
                                 "error": f"{type(error).__name__}: {error}"})
            elif run.metrics.rmse_val:
                completed.append(run.metrics)
        row = {"value": value, "repeats": repeats, "failed": failed}
        for prefix, name in _SWEEP_STATS.items():
            row[f"{prefix}_mean"], row[f"{prefix}_ci"] = _mean_ci(
                [float(getattr(m, name)[-1]) for m in completed])
        rows.append({key: row[key] for key in SWEEP_HEADER})
    return SweepResult(axis=axis, rows=rows, failures=failures)
