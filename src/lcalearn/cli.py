"""Command-line entry point.

Exit codes: 0 success, 1 usage error (bad flags, unreadable or invalid
config), 2 runtime error (bad data files, numeric failures, interrupts).
Every command writes only under ``--out``; configs are echoed verbatim
into the run directory before any computation so a run directory is
self-describing. An interrupted training run keeps the metrics rows of
its completed epochs and leaves a ``partial.marker`` file beside them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from lcalearn import atomic
from lcalearn import classifier as classifier_mod
from lcalearn import data as data_mod
from lcalearn import experiment as experiment_mod
from lcalearn import export as export_mod
from lcalearn.accumulator import write_raster_csv
from lcalearn.dictionary import load_checkpoint, save_checkpoint, synthesize
from lcalearn.errors import ConfigError, FormatError, NumericError
from lcalearn.lca import write_trace_csv


class UsageError(Exception):
    """Command-line misuse; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _log(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _progress(args):
    return (lambda line: print(line, file=sys.stderr)) if args.verbose else None


def _require_out(args) -> Path:
    if args.out is None:
        raise UsageError(f"{args.command}: --out is required")
    return Path(args.out)


def _load_config(args) -> experiment_mod.ExperimentConfig:
    if args.config is None:
        raise UsageError(f"{args.command}: --config is required")
    path = Path(args.config)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    config = experiment_mod.load_config(path)
    if args.seed is not None:
        config = experiment_mod.config_from_dict(
            {**experiment_mod.config_to_dict(config), "seed": args.seed}
        )
    return config


def _echo_config(args, out: Path) -> None:
    """Copy the config file byte for byte into the run directory."""
    out.mkdir(parents=True, exist_ok=True)
    atomic.write_bytes(out / "config.json", Path(args.config).read_bytes())


def _check_positive(args, *names) -> None:
    """Each named integer flag, where given, must be at least 1."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _image_name(stem: str, channels: int) -> str:
    return f"{stem}.ppm" if channels == 3 else f"{stem}.pgm"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    config = _load_config(args)
    out = _require_out(args)
    _echo_config(args, out)
    initial = load_checkpoint(args.init_dict) if args.init_dict else None
    try:
        result = experiment_mod.run_training(
            config,
            out_dir=out,
            initial_dictionary=initial,
            progress=_progress(args),
        )
    except KeyboardInterrupt:
        atomic.write_text(
            out / "partial.marker", "run interrupted; metrics.csv holds completed epochs only\n"
        )
        print("interrupted; wrote partial.marker", file=sys.stderr)
        return 2
    metrics = result.metrics
    if metrics.rmse_train:
        print(
            f"trained {config.epochs} epochs: "
            f"rmse_val={metrics.rmse_val[-1]:.4f} "
            f"sparsity={metrics.sparsity_pct[-1]:.2f}%"
        )
    else:
        print("epochs=0: wrote the initial dictionary unchanged")
    return 0


def _parse_values(axis: str, raw: str) -> list:
    values = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            raise UsageError(f"empty entry in --values {raw!r}")
        try:
            if axis == "dict_size":
                if item.endswith("x"):
                    values.append({"ratio": float(item[:-1])})
                else:
                    values.append(int(item))
            else:
                values.append(float(item))
        except ValueError:
            raise UsageError(f"--values entry {item!r} is not a valid {axis} value") from None
    return values


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    out = _require_out(args)
    values = _parse_values(args.axis, args.values)
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    _echo_config(args, out)
    try:
        result = experiment_mod.run_sweep(
            config, args.axis, values, repeats=args.repeats, progress=_progress(args)
        )
    except KeyboardInterrupt:
        atomic.write_text(out / "partial.marker", "sweep interrupted before completion\n")
        print("interrupted; wrote partial.marker", file=sys.stderr)
        return 2
    result.write_csv(out / "sweep.csv")
    for failure in result.failures:
        print(
            f"failed run: {args.axis}={failure['value']} seed={failure['seed']}: "
            f"{failure['error']}",
            file=sys.stderr,
        )
    header = experiment_mod.SWEEP_HEADER
    # value, repeats and failed print as they are; statistics to 4 places, max spikes to 1.
    formats = {"value": "", "repeats": "", "failed": "", "max_spikes_mean": ".1f"}
    print(",".join(header))
    for row in result.rows:
        print(",".join(format(row[key], formats.get(key, ".4f")) for key in header))
    return 0


def _cmd_infer(args) -> int:
    config = _load_config(args)
    out = _require_out(args)
    dictionary = load_checkpoint(args.dict)
    train, valid = experiment_mod.load_dataset(config.dataset, config.seed)
    samples = train if args.split == "train" else valid
    if not 0 <= args.index < len(samples):
        raise UsageError(f"--index {args.index} out of range for {len(samples)} samples")
    _echo_config(args, out)
    sample = samples[args.index]
    vec = sample.input.flattened
    spec = config.period_spec()
    result = experiment_mod._period(experiment_mod._Stack.lone(dictionary, spec),
                                    vec[None, None], spec, record=True, rows=None)
    write_trace_csv(out / "trace.csv", result.trace)
    if result.raster is not None:
        write_raster_csv(out / "raster.csv", result.raster)
    code = result.code[0, 0]
    atomic.save_npy(out / "code.npy", code)
    recon = synthesize(dictionary, code)
    atomic.save_npy(out / "reconstruction.npy", recon)
    print(
        f"sample {args.split}[{args.index}] label={sample.label}: "
        f"rmse={experiment_mod.rmse(vec, recon):.4f} "
        f"sparsity={experiment_mod.sparsity(code):.2f}%"
    )
    return 0


def _cmd_classify_train(args) -> int:
    config = _load_config(args)
    out = _require_out(args)
    _echo_config(args, out)
    dictionary = load_checkpoint(args.dict)
    train, valid = experiment_mod.load_dataset(config.dataset, config.seed)
    _log(args, f"extracting features for {len(train)} train / {len(valid)} valid samples")
    train_features = experiment_mod.collect_features(dictionary, train, config)
    model = classifier_mod.train(
        train_features, np.array([s.label for s in train]), config.classifier_config()
    )
    classifier_mod.save_model(model, out / "classifier.lcls")
    train_acc = classifier_mod.evaluate(
        model, train_features, np.array([s.label for s in train])
    )
    line = f"train accuracy {train_acc:.4f}"
    if valid:
        valid_features = experiment_mod.collect_features(dictionary, valid, config)
        valid_acc = classifier_mod.evaluate(
            model, valid_features, np.array([s.label for s in valid])
        )
        line += f", validation accuracy {valid_acc:.4f}"
    print(line)
    return 0


def _cmd_classify_eval(args) -> int:
    config = _load_config(args)
    dictionary = load_checkpoint(args.dict)
    model = classifier_mod.load_model(args.model)
    _, valid = experiment_mod.load_dataset(config.dataset, config.seed)
    if not valid:
        raise FormatError("validation split is empty")
    features = experiment_mod.collect_features(dictionary, valid, config)
    labels = np.array([s.label for s in valid])
    accuracy = classifier_mod.evaluate(model, features, labels)
    print(f"validation accuracy {accuracy:.4f} on {len(valid)} samples")
    if args.out is not None:
        out = _require_out(args)
        _echo_config(args, out)
        atomic.write_text(
            out / "eval.json",
            json.dumps({"accuracy": accuracy, "samples": len(valid)}, indent=2) + "\n",
        )
    return 0


def _cmd_events_to_frames(args) -> int:
    out = _require_out(args)
    _check_positive(args, "window_us", "saturation", "sensor_width", "sensor_height")
    events, frames = data_mod.recording_frames(
        args.input, args.window_us, args.saturation,
        width=args.sensor_width, height=args.sensor_height,
    )
    out.mkdir(parents=True, exist_ok=True)
    atomic.save_npy(out / "frames.npy", frames)
    _, height, width = frames.shape
    print(
        f"{len(events)} events -> {len(frames)} frames of {height}x{width} "
        f"({args.window_us} us windows) -> {out / 'frames.npy'}"
    )
    return 0


def _cmd_synth(args) -> int:
    out = _require_out(args)
    spec_kwargs = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        raw = experiment_mod.read_json(path)
        if not isinstance(raw, dict):
            raise ConfigError("synthetic spec must be a JSON object")
        spec_kwargs = dict(raw)
    spec_seed = spec_kwargs.pop("seed", 0)
    seed = spec_seed if args.seed is None else args.seed  # --seed overrides the spec's
    try:
        experiment_mod._check_seed(seed)
        spec = data_mod.SyntheticSpec(**spec_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    for name in ("train_per_class", "valid_per_class"):  # a training config may leave one at 0
        if getattr(spec, name) < 1:
            raise ConfigError(f"{name} must be >= 1 for synth, which writes both splits")
    train, valid = data_mod.generate_synthetic(seed, spec)
    data_mod.save_dataset_npy(out, train, valid)
    if args.config is not None:
        _echo_config(args, out)
    print(f"wrote {len(train)} train / {len(valid)} valid samples under {out}")
    return 0


def _cmd_export_dict(args) -> int:
    out = _require_out(args)
    _check_positive(args, "top_k", "cols")
    dictionary = load_checkpoint(args.dict)
    if args.top_k is not None and args.top_k > dictionary.element_count:
        raise UsageError(
            f"--top-k must be at most the {dictionary.element_count} elements, got {args.top_k}"
        )
    activity = np.load(args.activity) if args.activity else None
    grid = export_mod.render_dictionary_grid(
        dictionary, activity=activity, top_k=args.top_k, cols=args.cols
    )
    for warning in grid.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    out.mkdir(parents=True, exist_ok=True)
    name = _image_name("dictionary", dictionary.dims.channels)
    grid.save(out / name)
    print(f"wrote {out / name} ({grid.rows}x{grid.cols} tiles)")
    return 0


def _cmd_export_recon(args) -> int:
    config = _load_config(args)
    out = _require_out(args)
    _check_positive(args, "count")
    _echo_config(args, out)
    dictionary = load_checkpoint(args.dict)
    _, valid = experiment_mod.load_dataset(config.dataset, config.seed)
    if not valid:
        raise FormatError("validation split is empty")
    samples = valid[:args.count]
    codes = experiment_mod._lone_pass(dictionary, samples, config.period_spec()).features
    strip = export_mod.render_reconstruction_strip(
        [s.input.flattened for s in samples], list(synthesize(dictionary, codes)),
        dictionary.dims)
    name = _image_name("reconstructions", dictionary.dims.channels)
    strip.save(out / name)
    print(f"wrote {out / name} ({len(samples)} samples)")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcalearn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (all writes land here)")
        p.add_argument("--verbose", action="store_true", help="log progress to stderr")
        p.set_defaults(func=func)
        return p

    p = add("train", _cmd_train, "learn a dictionary per the config")
    p.add_argument("--init-dict", help="start from this checkpoint instead of random init")

    p = add("infer", _cmd_infer, "run inference on one sample, writing its trace (and raster)")
    p.add_argument("--dict", required=True, help="dictionary checkpoint (.lcad)")
    p.add_argument("--split", choices=("train", "valid"), default="valid")
    p.add_argument("--index", type=int, default=0)

    p = add("sweep", _cmd_sweep, "repeat runs over one axis, tabulating mean and CI")
    p.add_argument("--axis", required=True, choices=experiment_mod.SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated; dict_size takes ints or ratios like 0.5x")
    p.add_argument("--repeats", type=int, default=1)

    p = add("classify-train", _cmd_classify_train, "fit a linear readout on codes")
    p.add_argument("--dict", required=True)

    p = add("classify-eval", _cmd_classify_eval, "evaluate a saved readout")
    p.add_argument("--dict", required=True)
    p.add_argument("--model", required=True, help="classifier file (.lcls)")

    p = add("events-to-frames", _cmd_events_to_frames, "accumulate an event file into frames")
    p.add_argument("--input", required=True, help="event file (.evt or .csv)")
    p.add_argument("--window-us", type=int, default=1000)
    p.add_argument("--saturation", type=int, default=2)
    p.add_argument("--sensor-width", type=int)
    p.add_argument("--sensor-height", type=int)

    add("synth", _cmd_synth, "generate the deterministic synthetic dataset")

    p = add("export-dict", _cmd_export_dict, "render dictionary elements to an image grid")
    p.add_argument("--dict", required=True)
    p.add_argument("--top-k", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--activity", help=".npy of per-element activation counts for ranking")

    p = add("export-recon", _cmd_export_recon, "render originals above reconstructions")
    p.add_argument("--dict", required=True)
    p.add_argument("--count", type=int, default=10)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2
    except (FormatError, NumericError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
