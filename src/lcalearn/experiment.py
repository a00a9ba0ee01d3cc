"""Training schedules, sweeps, metrics, and run artifacts.

One training run shows each sample for a fixed display period (preceded
by a zero-input gap), infers a sparse code with graded or spiking
dynamics, and applies one Hebbian dictionary update per period from the
period-end (filtered) code. Runs are reproducible bit-for-bit from the
config and seed. Passes over a frozen dictionary (validation, evaluation,
classifier features) stack their samples and integrate them as batches.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from lcalearn import data as data_mod
from lcalearn.accumulator import InputRateEncoder, run_spiking_inference
from lcalearn.dictionary import (
    Dictionary,
    InputDims,
    analyze,
    hebbian_update,
    init_random,
    save_checkpoint,
    synthesize,
)
from lcalearn.errors import ConfigError
from lcalearn.filters import make_filter
from lcalearn.lca import LcaParams, MembraneState, run_inference
from lcalearn import classifier as classifier_mod

METRICS_HEADER = [
    "epoch",
    "rmse_train",
    "rmse_val",
    "sparsity_pct",
    "accuracy",
    "max_spikes_per_step",
]

_DATASET_KEYS = {
    "synthetic": {
        "kind", "seed", "n_classes", "height", "width", "frames", "density",
        "noise", "train_per_class", "valid_per_class", "saturation",
    },
    "cifar": {"kind", "path", "crop", "limit", "valid_fraction"},
    "events": {
        "kind", "path", "window_us", "frames_per_window", "stride",
        "saturation", "sensor_width", "sensor_height",
    },
    "npy": {"kind", "path"},
}

_CONFIG_KEYS = {
    "dataset", "dict_size", "lambda", "spike_height", "dt", "tau",
    "display_ms", "gap_ms", "epochs", "learning_rate", "filter",
    "classifier", "seed", "warm_start", "input_encoding",
    "input_spike_height", "checkpoint_every", "batch_size",
}

# Samples per batched frozen-dictionary period. It caps memory: a boxcar
# filter holds window x chunk x N floats.
INFER_CHUNK = 64


@dataclass
class ExperimentConfig:
    """Everything one run needs; mirrors the JSON schema accepted by the CLI."""

    dataset: dict
    dict_size: int | dict
    lam: float
    spike_height: float = 0.0  # 0 disables spiking
    dt: float = 1.0
    tau: float = 100.0
    display_ms: float = 100.0
    gap_ms: float = 0.0
    epochs: int = 1
    learning_rate: float = 0.005
    filter: Optional[dict] = None
    classifier: Optional[dict] = None
    seed: int = 0
    warm_start: bool = False
    input_encoding: str = "constant"
    input_spike_height: float = 0.01
    checkpoint_every: int = 0  # 0 writes only the final checkpoint
    batch_size: int = 1

    def __post_init__(self):
        for name in ("dataset", "filter", "classifier"):
            value = getattr(self, name)
            if not isinstance(value, dict) and (name == "dataset" or value is not None):
                raise ConfigError(f"{name} must be a JSON object, got {value!r}")
        # Fields owned by other types are checked by building those types.
        try:
            self.lca_params()
        except ValueError as exc:
            raise ConfigError(f"invalid inference parameters: {exc}") from exc
        if self.spike_height < 0:
            raise ConfigError(f"spike_height must be >= 0, got {self.spike_height}")
        for name in ("display_ms", "gap_ms"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
            ratio = value / self.dt
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(f"{name}={value} is not a whole number of dt={self.dt} steps")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.input_encoding not in ("constant", "rate"):
            raise ConfigError(f"input_encoding must be 'constant' or 'rate', got {self.input_encoding!r}")
        if self.input_spike_height <= 0:
            raise ConfigError(f"input_spike_height must be > 0, got {self.input_spike_height}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if isinstance(self.dict_size, dict):
            extra = set(self.dict_size) - {"ratio"}
            if extra:
                raise ConfigError(f"unknown dict_size keys {sorted(extra)}")
            if self.dict_size.get("ratio", 0) <= 0:
                raise ConfigError("dict_size ratio must be > 0")
        elif self.dict_size < 1:
            raise ConfigError(f"dict_size must be >= 1, got {self.dict_size}")
        kind = self.dataset.get("kind")
        if kind not in _DATASET_KEYS:
            raise ConfigError(f"unknown dataset kind {kind!r}")
        extra = set(self.dataset) - _DATASET_KEYS[kind]
        if extra:
            raise ConfigError(f"unknown dataset keys {sorted(extra)}")
        if kind == "synthetic":
            try:
                _synthetic_spec(self.dataset)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"dataset: {exc}") from exc
        elif "path" not in self.dataset:
            raise ConfigError(f"dataset kind {kind!r} needs a path")
        make_filter(self.filter, self.dt)
        if self.feature_scheme not in classifier_mod.FEATURE_SCHEMES:
            raise ConfigError(f"unknown feature_scheme {self.feature_scheme!r}")
        try:
            self.classifier_config()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"classifier: {exc}") from exc

    @property
    def display_steps(self) -> int:
        return round(self.display_ms / self.dt)

    @property
    def gap_steps(self) -> int:
        return round(self.gap_ms / self.dt)

    @property
    def feature_scheme(self) -> str:
        return (self.classifier or {}).get("feature_scheme", "mean_last_half")

    def lca_params(self) -> LcaParams:
        return LcaParams(lam=self.lam, dt=self.dt, tau=self.tau, steps=self.display_steps)

    def classifier_config(self) -> classifier_mod.ClassifierConfig:
        """Readout settings: the ``classifier`` block minus ``feature_scheme``, plus the seed."""
        spec = {k: v for k, v in (self.classifier or {}).items() if k != "feature_scheme"}
        return classifier_mod.ClassifierConfig(**spec, seed=self.seed)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(raw) - _CONFIG_KEYS
    if extra:
        raise ConfigError(f"unknown config keys {sorted(extra)}")
    missing = {"dataset", "dict_size", "lambda"} - set(raw)
    if missing:
        raise ConfigError(f"missing required config keys {sorted(missing)}")
    kwargs = dict(raw)
    kwargs["lam"] = kwargs.pop("lambda")
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(raw)


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
        return [
            [
                epoch + 1,
                repr(self.rmse_train[epoch]),
                repr(self.rmse_val[epoch]),
                repr(self.sparsity_pct[epoch]),
                repr(self.accuracy[epoch]),
                self.max_spikes_per_step[epoch],
            ]
            for epoch in range(len(self.rmse_train))
        ]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            writer.writerows(self.rows())


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
    diff = original - reconstruction
    return float(np.sqrt(np.mean(diff * diff)))


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


def _synthetic_spec(spec: dict) -> data_mod.SyntheticSpec:
    return data_mod.SyntheticSpec(**{k: v for k, v in spec.items() if k not in ("kind", "seed")})


def load_dataset(
    spec: dict, fallback_seed: int = 0
) -> tuple[list[data_mod.LabeledSample], list[data_mod.LabeledSample]]:
    """Materialize (train, valid) sample lists from a dataset config."""
    kind = spec["kind"]
    if kind == "synthetic":
        return data_mod.generate_synthetic(spec.get("seed", fallback_seed), _synthetic_spec(spec))
    if kind == "npy":
        return data_mod.load_dataset_npy(spec["path"])
    if kind == "cifar":
        samples = data_mod.load_cifar(
            spec["path"], crop=spec.get("crop", 16), limit=spec.get("limit")
        )
        fraction = spec.get("valid_fraction", 0.2)
        split = len(samples) - max(1, int(len(samples) * fraction))
        return samples[:split], samples[split:]
    if kind == "events":
        return data_mod.load_event_dataset(
            spec["path"],
            window_us=spec.get("window_us", 1000),
            frames_per_window=spec.get("frames_per_window", 5),
            stride=spec.get("stride", 1),
            saturation=spec.get("saturation", 2),
            sensor=(
                (spec["sensor_width"], spec["sensor_height"])
                if "sensor_width" in spec
                else None
            ),
        )
    raise ConfigError(f"unknown dataset kind {kind!r}")


def infer_period(
    dictionary, vec, params, spike_height=0.0, filter_spec=None, *,
    warm=None, input_encoder=None, record=False,
):
    """One period of graded (``spike_height`` 0) or spiking inference.

    The one place that chooses between ``run_inference`` and
    ``run_spiking_inference``. ``vec`` is one sample (D,) or a stack of
    them (B, D). ``warm`` is the previous period's result to continue
    from. ``record`` asks for the trace (graded) or raster (spiking) of one
    sample.
    """
    state = None if warm is None else warm.state
    if spike_height > 0:
        return run_spiking_inference(
            dictionary, vec, params, spike_height, make_filter(filter_spec, params.dt),
            initial_state=state, initial_accumulator=None if warm is None else warm.accumulator,
            record_raster=record, input_encoder=input_encoder,
        )
    return run_inference(
        dictionary, vec, params, initial_state=state, record_trace=record,
        input_encoder=input_encoder,
    )


def _feature(result, scheme: str) -> np.ndarray:
    """Classifier feature of one period: the final code or its last-half mean."""
    return result.code if scheme == "final" else result.half_mean


def config_period(dictionary, vec, config, *, warm=None, record=False):
    """One display period as the config sets it: spike height, filter, input encoding.

    The one place that turns ``input_encoding`` into an input encoder.
    ``vec`` is one sample or a (B, D) stack.
    """
    rate = config.input_encoding == "rate"
    return infer_period(
        dictionary, vec, config.lca_params(), config.spike_height, config.filter,
        warm=warm, record=record,
        input_encoder=InputRateEncoder(vec, config.input_spike_height) if rate else None,
    )


def sample_stacks(samples):
    """Yield the samples' vectors as (B, D) stacks of at most ``INFER_CHUNK`` rows, in order.

    A frozen-dictionary pass makes one batched period per stack.
    """
    for start in range(0, len(samples), INFER_CHUNK):
        yield np.stack([s.input.flattened for s in samples[start:start + INFER_CHUNK]])


def _run_gap(dictionary, config, params, warm):
    """Integrate the zero-input gap when state carries across periods.

    With reset-to-zero boundaries the zero state is a fixed point of the
    zero-input dynamics and emits nothing, so the gap is skipped entirely.
    """
    if warm is None or config.gap_steps == 0:
        return warm
    zero = np.zeros(dictionary.input_size)
    gap_params = replace(params, steps=config.gap_steps)
    return infer_period(dictionary, zero, gap_params, config.spike_height, warm=warm)


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
    ``dict_epoch_<k>.lcad`` checkpoints.
    """
    if train_samples is None or valid_samples is None:
        loaded_train, loaded_valid = load_dataset(config.dataset, config.seed)
        train_samples = loaded_train if train_samples is None else train_samples
        valid_samples = loaded_valid if valid_samples is None else valid_samples
    if not train_samples:
        raise ConfigError("training set is empty")
    dims = train_samples[0].input.dims
    for sample in list(train_samples) + list(valid_samples):
        if sample.input.dims != dims:
            raise ConfigError("samples disagree on input dimensions")

    n = resolve_dict_size(config.dict_size, dims.size)
    dictionary = (
        initial_dictionary
        if initial_dictionary is not None
        else init_random(config.seed, n, dims)
    )
    if dictionary.dims != dims:
        raise ConfigError("initial dictionary does not match the dataset dims")
    params = config.lca_params()
    spiking = config.spike_height > 0
    want_features = config.classifier is not None
    rng = np.random.default_rng(config.seed)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    metrics = RunMetrics()
    train_features = valid_features = None
    warm = None
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_samples))
        rmse_sum = 0.0
        max_counts = 0
        total_counts = 0
        epoch_train_features = np.zeros((len(train_samples), n)) if want_features else None
        pending: list[tuple[np.ndarray, np.ndarray]] = []
        for position, sample_idx in enumerate(order):
            sample = train_samples[sample_idx]
            vec = sample.input.flattened
            warm = _run_gap(dictionary, config, params, warm)
            result = config_period(dictionary, vec, config, warm=warm)
            code = result.code
            if config.warm_start:
                warm = result
            residual = vec - synthesize(dictionary, code)
            rmse_sum += float(np.sqrt(np.mean(residual * residual)))
            if spiking:
                max_counts = max(max_counts, result.max_counts)
                total_counts += result.total_counts
            if want_features:
                epoch_train_features[sample_idx] = _feature(result, config.feature_scheme)
            pending.append((code, residual))
            if len(pending) >= config.batch_size or position == len(order) - 1:
                for upd_code, upd_residual in pending:
                    if np.any(upd_code):
                        dictionary = hebbian_update(
                            dictionary, upd_code, upd_residual, config.learning_rate
                        )
                pending = []

        val_rmse_sum = 0.0
        val_sparsity_sum = 0.0
        epoch_valid_features = np.zeros((len(valid_samples), n)) if want_features else None
        v_idx = 0
        for stack in sample_stacks(valid_samples):
            result = config_period(dictionary, stack, config)
            for vec, code, recon in zip(stack, result.code, synthesize(dictionary, result.code)):
                val_rmse_sum += rmse(vec, recon)
                val_sparsity_sum += sparsity(code)
            if spiking:
                max_counts = max(max_counts, result.max_counts)
                total_counts += result.total_counts
            if want_features:
                epoch_valid_features[v_idx:v_idx + len(stack)] = _feature(
                    result, config.feature_scheme
                )
            v_idx += len(stack)

        accuracy = math.nan
        if want_features:
            train_features, valid_features = epoch_train_features, epoch_valid_features
            model = classifier_mod.train(
                train_features,
                np.array([s.label for s in train_samples]),
                config.classifier_config(),
            )
            if valid_samples:
                accuracy = classifier_mod.evaluate(
                    model, valid_features, np.array([s.label for s in valid_samples])
                )

        n_valid = max(len(valid_samples), 1)
        steps_run = (len(train_samples) + len(valid_samples)) * params.steps
        metrics.rmse_train.append(rmse_sum / len(train_samples))
        metrics.rmse_val.append(val_rmse_sum / n_valid if valid_samples else math.nan)
        metrics.sparsity_pct.append(val_sparsity_sum / n_valid if valid_samples else math.nan)
        metrics.accuracy.append(accuracy)
        metrics.max_spikes_per_step.append(max_counts)
        metrics.mean_rate.append(total_counts / (steps_run * n) if spiking else math.nan)

        if out_dir is not None:
            metrics.write_csv(out_dir / "metrics.csv")
            last = epoch == config.epochs - 1
            interval = config.checkpoint_every
            if last or (interval > 0 and (epoch + 1) % interval == 0):
                save_checkpoint(dictionary, out_dir / f"dict_epoch_{epoch + 1}.lcad")
        if progress is not None:
            progress(
                f"epoch {epoch + 1}/{config.epochs}: "
                f"rmse_train={metrics.rmse_train[-1]:.4f} "
                f"rmse_val={metrics.rmse_val[-1]:.4f} "
                f"sparsity={metrics.sparsity_pct[-1]:.2f}%"
            )

    if out_dir is not None:
        if config.epochs == 0:
            metrics.write_csv(out_dir / "metrics.csv")
            save_checkpoint(dictionary, out_dir / "dict_epoch_0.lcad")
    return TrainingResult(
        metrics=metrics,
        dictionary=dictionary,
        train_features=train_features,
        valid_features=valid_features,
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
    rmse_sum = 0.0
    sparsity_sum = 0.0
    max_counts = 0
    for stack in sample_stacks(samples):
        result = infer_period(dictionary, stack, params, spike_height, filter_spec)
        if spike_height > 0:
            max_counts = max(max_counts, result.max_counts)
        for vec, code, recon in zip(stack, result.code, synthesize(dictionary, result.code)):
            rmse_sum += rmse(vec, recon)
            sparsity_sum += sparsity(code)
    return {
        "rmse": rmse_sum / len(samples),
        "sparsity_pct": sparsity_sum / len(samples),
        "max_spikes_per_step": max_counts,
    }


def collect_features(
    dictionary: Dictionary, samples: list, config: ExperimentConfig
) -> np.ndarray:
    """Classifier features from a frozen dictionary, one row per sample."""
    rows = [
        _feature(config_period(dictionary, stack, config), config.feature_scheme)
        for stack in sample_stacks(samples)
    ]
    return np.concatenate(rows) if rows else np.zeros((0, dictionary.element_count))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("lambda", "s", "dict_size")

SWEEP_HEADER = [
    "value", "repeats", "failed",
    "rmse_val_mean", "rmse_val_ci",
    "sparsity_mean", "sparsity_ci",
    "accuracy_mean", "accuracy_ci",
    "max_spikes_mean",
]


@dataclass
class SweepResult:
    axis: str
    rows: list[dict]
    # One {"value", "seed", "error": "ExceptionType: message"} per failed run.
    failures: list[dict] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_HEADER)
            for row in self.rows:
                writer.writerow([
                    row["value"], row["repeats"], row["failed"],
                    repr(row["rmse_val_mean"]), repr(row["rmse_val_ci"]),
                    repr(row["sparsity_mean"]), repr(row["sparsity_ci"]),
                    repr(row["accuracy_mean"]), repr(row["accuracy_ci"]),
                    repr(row["max_spikes_mean"]),
                ])


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


def apply_axis(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "lambda":
        return replace(config, lam=float(value))
    if axis == "s":
        return replace(config, spike_height=float(value))
    if axis == "dict_size":
        size = value if isinstance(value, dict) else int(value)
        return replace(config, dict_size=size)
    raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


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
    ``seed``, which each repeat generates from its run seed.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    rows = []
    failures = []
    run_seeded = base.dataset["kind"] == "synthetic" and "seed" not in base.dataset
    datasets: dict = {}  # run seed the data depends on (None if none) -> (train, valid)
    for value in values:
        metrics_lists: dict[str, list[float]] = {
            "rmse_val": [], "sparsity": [], "accuracy": [], "max_spikes": []
        }
        failed = 0
        for r in range(repeats):
            try:
                cfg = apply_axis(replace(base, seed=base.seed + r), axis, value)
                key = cfg.seed if run_seeded else None
                if key not in datasets:
                    datasets[key] = load_dataset(cfg.dataset, cfg.seed)
                result = run_training(cfg, *datasets[key])
            except Exception as exc:  # noqa: BLE001 - failed cells are recorded, not fatal
                failed += 1
                error = f"{type(exc).__name__}: {exc}"
                failures.append({"value": value, "seed": base.seed + r, "error": error})
                continue
            m = result.metrics
            if m.rmse_val:
                metrics_lists["rmse_val"].append(m.rmse_val[-1])
                metrics_lists["sparsity"].append(m.sparsity_pct[-1])
                metrics_lists["accuracy"].append(m.accuracy[-1])
                metrics_lists["max_spikes"].append(float(m.max_spikes_per_step[-1]))
            if progress is not None:
                progress(f"{axis}={value} repeat {r + 1}/{repeats} done")
        rmse_mean, rmse_ci = _mean_ci(metrics_lists["rmse_val"])
        sp_mean, sp_ci = _mean_ci(metrics_lists["sparsity"])
        acc_mean, acc_ci = _mean_ci(metrics_lists["accuracy"])
        spikes_mean, _ = _mean_ci(metrics_lists["max_spikes"])
        rows.append({
            "value": value,
            "repeats": repeats,
            "failed": failed,
            "rmse_val_mean": rmse_mean, "rmse_val_ci": rmse_ci,
            "sparsity_mean": sp_mean, "sparsity_ci": sp_ci,
            "accuracy_mean": acc_mean, "accuracy_ci": acc_ci,
            "max_spikes_mean": spikes_mean,
        })
    return SweepResult(axis=axis, rows=rows, failures=failures)


# ---------------------------------------------------------------------------
# Dense/convolutional equivalence
# ---------------------------------------------------------------------------

def conv_equivalence_check(
    seed: int = 0,
    input_shape: tuple[int, int] = (4, 4),
    kernel_shape: Optional[tuple[int, int]] = None,
    n_kernels: int = 3,
) -> dict:
    """Compare dense synthesis/analysis against a one-position convolution.

    A dense dictionary whose input dims equal a kernel's full support is
    the same linear map as a single-position convolutional dictionary;
    this check documents that reading. Kernels smaller than the input
    would have multiple placements, which the dense layout does not
    represent, so that case reports not-applicable.
    """
    from scipy import signal

    kernel_shape = input_shape if kernel_shape is None else kernel_shape
    if kernel_shape != input_shape:
        return {"status": "not-applicable", "passed": False,
                "reason": "kernel support does not cover the full input"}

    rng = np.random.default_rng(seed)
    kernels = rng.normal(size=(n_kernels,) + kernel_shape)
    kernels /= np.sqrt((kernels ** 2).sum(axis=(1, 2), keepdims=True))
    dense = Dictionary(
        kernels.reshape(n_kernels, -1),
        InputDims(height=input_shape[0], width=input_shape[1]),
    )

    image = rng.normal(size=input_shape)
    code = rng.uniform(0, 1, size=n_kernels)

    conv_drive = np.array([
        signal.correlate2d(image, k, mode="valid")[0, 0] for k in kernels
    ])
    dense_drive = analyze(dense, image.reshape(-1))
    analysis_diff = float(np.abs(conv_drive - dense_drive).max())

    conv_recon = np.zeros(input_shape)
    for amp, k in zip(code, kernels):
        conv_recon[0 : kernel_shape[0], 0 : kernel_shape[1]] += amp * k
    dense_recon = synthesize(dense, code).reshape(input_shape)
    synthesis_diff = float(np.abs(conv_recon - dense_recon).max())

    passed = analysis_diff < 1e-10 and synthesis_diff < 1e-10
    return {
        "status": "ok",
        "passed": passed,
        "max_analysis_diff": analysis_diff,
        "max_synthesis_diff": synthesis_diff,
    }
