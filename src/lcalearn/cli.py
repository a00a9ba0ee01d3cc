"""Command-line entry point.

Exit codes: 0 success, 1 usage error (bad flags, unreadable or invalid
config), 2 runtime error (bad data files, numeric failures, interrupts).
Every command writes only under ``--out``, and calls ``_inputs`` before
it reads a file. That one step loads the command's flags, config,
checkpoint, model and dataset, and checks them against each other before
anything is written: a non-empty split whose samples share their dims,
two classes or more for a readout fit, the dictionary's dims against the
dataset's, the model's feature count against the dictionary's element
count, and ``--index`` within the split. A failed cross-check exits 1 and
names the files it involves. Configs are then echoed verbatim into the run directory before
any computation, so a run directory is self-describing. An interrupted
command whose ``--out`` exists leaves a ``partial.marker`` there; an
interrupted ``train`` also keeps the metrics rows of its completed epochs
and its dictionary as it stood (``dict_interrupted.lcad``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from lcalearn import atomic
from lcalearn import classifier as classifier_mod
from lcalearn import data as data_mod
from lcalearn import experiment as experiment_mod
from lcalearn import export as export_mod
from lcalearn.accumulator import write_raster_csv
from lcalearn.dictionary import load_checkpoint, synthesize
from lcalearn.errors import ConfigError, FormatError, NumericError, read_block
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


# Integer flags that must be at least 1, on whichever command has them.
_POSITIVE_FLAGS = ("repeats", "count", "top_k", "cols", "window_us", "saturation",
                   "sensor_width", "sensor_height")


def _inputs(args, split=None, config="run"):
    """Load a command's inputs, check them against each other, then echo its config.

    Every command calls this before it writes anything. It loads, in order:
    the flags; the config (``config`` is ``"run"`` for a required
    experiment config, ``"spec"`` for ``synth``'s optional dataset spec,
    None for none); the checkpoint (``--dict`` or ``--init-dict``); the
    model (``--model``); and the dataset, when the command reads ``split``.
    Then it checks that ``split`` is not empty, that every sample of both
    splits has the dims of its first, that a command which fits a readout
    has train samples of two classes or more, the dictionary's dims against
    the dataset's, the model's feature count against the dictionary's
    element count, and that ``--index`` and ``--top-k`` are in range. A
    failed cross-check is a ``ConfigError`` (or ``UsageError`` for a flag)
    naming both files. Only then is the config file copied byte for byte to
    ``<out>/config.json``, its one writer.
    """
    for name in _POSITIVE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
    if args.out is None and args.command != "classify-eval":  # which may only print
        raise UsageError(f"{args.command}: --out is required")
    got = SimpleNamespace(out=None if args.out is None else Path(args.out), config=None,
                          dictionary=None, model=None, samples=None)
    path = None if args.config is None or config is None else Path(args.config)
    if path is None and config == "run":
        raise UsageError(f"{args.command}: --config is required")
    if path is not None and not path.is_file():
        raise UsageError(f"config file not found: {path}")
    if config == "spec":  # a synthetic dataset block without its kind
        raw = {} if path is None else experiment_mod.read_json(path)
        got.config = read_block(data_mod.SyntheticSpec, raw, "synth spec", path, nulls=True)
        for name in ("train_per_class", "valid_per_class"):  # a training config may leave one at 0
            if getattr(got.config, name) < 1:
                raise ConfigError(f"{name} must be >= 1 for synth, which writes both splits")
    elif path is not None:
        got.config = experiment_mod.load_config(path)
    if args.seed is not None and got.config is not None:
        got.config = replace(got.config, seed=args.seed)
    checkpoint = getattr(args, "dict", None) or getattr(args, "init_dict", None)
    if checkpoint:
        got.dictionary = load_checkpoint(checkpoint)
    if getattr(args, "model", None):
        got.model = classifier_mod.load_model(args.model)
    if split:
        got.train, got.valid = experiment_mod.load_dataset(got.config.dataset, got.config.seed)
        got.samples = got.train if split == "train" else got.valid
        if not got.samples:
            raise ConfigError(f"{path}: the {split} split of its dataset is empty")
        dims = got.samples[0].input.dims
        for name, samples in (("train", got.train), ("valid", got.valid)):
            odd = next((i for i, s in enumerate(samples) if s.input.dims != dims), None)
            if odd is not None:
                raise ConfigError(f"{path}: {name} sample {odd} of its dataset has dims "
                                  f"{astuple(samples[odd].input.dims)}, but {split} sample 0 "
                                  f"has {astuple(dims)}")
        classes = {s.label for s in got.train}
        if len(classes) < 2 and (args.command == "classify-train" or (
                args.command == "train" and got.config.classifier is not None)):
            raise ConfigError(f"{path}: a readout needs train samples from at least two "
                              f"classes, but its dataset's train split holds only class "
                              f"{classes.pop()}")
        if got.dictionary is not None and got.dictionary.dims != dims:
            raise ConfigError(f"{checkpoint}: dictionary dims {astuple(got.dictionary.dims)} do "
                              f"not match the dims {astuple(dims)} of the dataset of {path}")
        index = getattr(args, "index", 0)
        if not 0 <= index < len(got.samples):
            raise UsageError(f"--index {index} out of range for {len(got.samples)} samples")
    if got.model is not None and got.model.n_features != got.dictionary.element_count:
        raise ConfigError(f"{args.model}: the model takes {got.model.n_features} features, but "
                          f"{checkpoint} has {got.dictionary.element_count} elements")
    top_k = getattr(args, "top_k", None)
    if top_k is not None and top_k > got.dictionary.element_count:
        raise UsageError(
            f"--top-k must be at most the {got.dictionary.element_count} elements, got {top_k}")
    if path is not None and got.out is not None:
        got.out.mkdir(parents=True, exist_ok=True)
        atomic.write_bytes(got.out / "config.json", path.read_bytes())
    return got


def _image_name(stem: str, channels: int) -> str:
    return f"{stem}.ppm" if channels == 3 else f"{stem}.pgm"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    got = _inputs(args, "train")
    result = experiment_mod.run_training(
        got.config, got.train, got.valid, out_dir=got.out, initial_dictionary=got.dictionary,
        progress=_progress(args)
    )
    metrics = result.metrics
    if metrics.rmse_train:
        print(
            f"trained {got.config.epochs} epochs: "
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
    values = _parse_values(args.axis, args.values)
    got = _inputs(args)  # no dataset: run_sweep loads the data once per seed
    result = experiment_mod.run_sweep(
        got.config, args.axis, values, repeats=args.repeats, progress=_progress(args)
    )
    result.write_csv(got.out / "sweep.csv")
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
    got = _inputs(args, args.split)
    out, dictionary = got.out, got.dictionary
    sample = got.samples[args.index]
    vec = sample.input.flattened
    spec = got.config.period_spec()
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
    got = _inputs(args, "train")
    config, dictionary, train, valid = got.config, got.dictionary, got.train, got.valid
    _log(args, f"extracting features for {len(train)} train / {len(valid)} valid samples")
    train_features = experiment_mod.collect_features(dictionary, train, config)
    model = classifier_mod.train(
        train_features, np.array([s.label for s in train]), config.classifier_config()
    )
    classifier_mod.save_model(model, got.out / "classifier.lcls")
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
    got = _inputs(args, "valid")
    valid = got.samples
    features = experiment_mod.collect_features(got.dictionary, valid, got.config)
    labels = np.array([s.label for s in valid])
    accuracy = classifier_mod.evaluate(got.model, features, labels)
    print(f"validation accuracy {accuracy:.4f} on {len(valid)} samples")
    if got.out is not None:
        atomic.write_text(
            got.out / "eval.json",
            json.dumps({"accuracy": accuracy, "samples": len(valid)}, indent=2) + "\n",
        )
    return 0


def _cmd_events_to_frames(args) -> int:
    out = _inputs(args, config=None).out
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
    got = _inputs(args, config="spec")
    train, valid = got.config.load()
    data_mod.save_dataset_npy(got.out, train, valid)
    print(f"wrote {len(train)} train / {len(valid)} valid samples under {got.out}")
    return 0


def _cmd_export_dict(args) -> int:
    got = _inputs(args, config=None)
    out, dictionary = got.out, got.dictionary
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
    got = _inputs(args, "valid")
    out, dictionary = got.out, got.dictionary
    samples = got.samples[:args.count]
    codes = experiment_mod._lone_pass(dictionary, samples, got.config.period_spec()).features
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
    args = None
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
        out = getattr(args, "out", None)
        if out is not None and Path(out).is_dir():
            atomic.write_text(Path(out) / "partial.marker",
                              f"{args.command} interrupted; files here may be incomplete\n")
            print("interrupted; wrote partial.marker", file=sys.stderr)
        else:
            print("interrupted", file=sys.stderr)
        return 2
    except (FormatError, NumericError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
