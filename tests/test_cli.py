"""Command dispatch, exit codes, and run-directory artifacts."""

import argparse
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from lcalearn import classifier as classifier_mod
from lcalearn import cli
from lcalearn import experiment as experiment_mod
from lcalearn import filters as filters_mod
from lcalearn.classifier import ClassifierConfig
from lcalearn.data import DATASET_KINDS, save_events
from lcalearn.dictionary import InputDims, init_random, load_checkpoint, save_checkpoint


@pytest.fixture()
def config_path(tmp_path):
    raw = {
        "dataset": {
            "kind": "synthetic", "seed": 1, "height": 8, "width": 8, "frames": 2,
            "train_per_class": 3, "valid_per_class": 2,
        },
        "dict_size": 16,
        "lambda": 0.3,
        "dt": 1.0, "tau": 10.0, "display_ms": 30.0,
        "epochs": 1, "learning_rate": 0.01, "seed": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = run("train", "--config", tmp_path / "missing.json", "--out", tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert "missing.json" in captured.err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run("frobnicate") == 1

    def test_unknown_flag_is_usage_error(self, config_path, tmp_path, capsys):
        code = run("train", "--config", config_path, "--out", tmp_path / "o", "--fast")
        assert code == 1

    def test_invalid_config_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": {"kind": "synthetic"}, "dict_size": 4,
                                    "lambda": 0.1, "momentum": 1}))
        code = run("train", "--config", path, "--out", tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert "momentum" in captured.err

    def test_corrupt_data_file_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.evt"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        code = run("events-to-frames", "--input", bad, "--out", tmp_path / "o")
        assert code == 2

    def test_missing_out_is_usage_error(self, config_path, capsys):
        assert run("train", "--config", config_path) == 1

    def test_interrupt_writes_partial_marker(self, config_path, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment_mod, "run_training", boom)
        out = tmp_path / "o"
        code = run("train", "--config", config_path, "--out", out)
        assert code == 2
        assert (out / "partial.marker").exists()


class TestTrain:
    def test_writes_run_directory(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("train", "--config", config_path, "--out", out) == 0
        assert (out / "config.json").read_bytes() == config_path.read_bytes()
        assert (out / "metrics.csv").exists()
        assert (out / "dict_epoch_1.lcad").exists()

    def test_rerun_is_byte_identical(self, config_path, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", config_path, "--out", a) == 0
        assert run("train", "--config", config_path, "--out", b) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "dict_epoch_1.lcad").read_bytes() == (b / "dict_epoch_1.lcad").read_bytes()

    def test_seed_override_changes_metrics(self, config_path, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", config_path, "--out", a) == 0
        assert run("train", "--config", config_path, "--out", b, "--seed", 5) == 0
        assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()

    def test_init_dict_flag(self, config_path, tmp_path, capsys):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run("train", "--config", config_path, "--out", first) == 0
        assert run(
            "train", "--config", config_path, "--out", second,
            "--init-dict", first / "dict_epoch_1.lcad",
        ) == 0


class TestSynth:
    def test_deterministic_across_invocations(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--seed", 7, "--out", a) == 0
        assert run("synth", "--seed", 7, "--out", b) == 0
        for name in ("train_inputs.npy", "train_labels.npy",
                     "valid_inputs.npy", "valid_labels.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_spec_overrides(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_classes": 2, "train_per_class": 3,
                                    "valid_per_class": 1, "height": 4, "width": 4,
                                    "frames": 2}))
        out = tmp_path / "d"
        assert run("synth", "--seed", 0, "--out", out, "--config", spec) == 0
        labels = np.load(out / "train_labels.npy")
        assert labels.shape == (6,)

    def test_bad_spec_key_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"wibble": 3}))
        assert run("synth", "--seed", 0, "--out", tmp_path / "d", "--config", spec) == 1

    def test_malformed_spec_is_config_error_naming_the_file(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text('{"n_classes": 2,')
        out = tmp_path / "d"
        code = run("synth", "--out", out, "--config", spec)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"config error: {spec}: ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_negative_seed_writes_nothing(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": -1}))
        for argv, seed in ((["--seed", -3], -3), (["--config", spec], -1)):
            out = tmp_path / "d"
            assert run("synth", "--out", out, *argv) == 1
            assert capsys.readouterr().err == f"config error: seed must be >= 0, got {seed}\n"
            assert not out.exists()

    def test_seed_flag_overrides_the_spec_seed(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        shape = {"n_classes": 2, "train_per_class": 3, "valid_per_class": 1, "height": 4,
                 "width": 4, "frames": 2}
        spec.write_text(json.dumps({**shape, "seed": 1}))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(shape))
        runs = {"flag": ["--seed", 5, "--config", spec],
                "flag-only": ["--seed", 5, "--config", plain],
                "spec": ["--config", spec], "spec-seed": ["--seed", 1, "--config", plain],
                "none": ["--config", plain], "zero": ["--seed", 0, "--config", plain]}
        inputs = {}
        for name, argv in runs.items():
            assert run("synth", "--out", tmp_path / name, *argv) == 0
            inputs[name] = (tmp_path / name / "train_inputs.npy").read_bytes()
        assert inputs["flag"] == inputs["flag-only"] != inputs["spec"]
        assert inputs["spec"] == inputs["spec-seed"]
        assert inputs["none"] == inputs["zero"] != inputs["spec"]

    def test_empty_split_writes_nothing(self, tmp_path, capsys):
        # An empty split is an invalid synth spec: exit 1 before anything is written.
        for name in ("valid_per_class", "train_per_class"):
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps({"height": 4, "width": 4, "frames": 2, name: 0}))
            out = tmp_path / name
            assert run("synth", "--out", out, "--config", spec) == 1
            assert capsys.readouterr().err == (
                f"config error: {name} must be >= 1 for synth, which writes both splits\n")
            assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ({"height": 2.5}, "height must be an integer, got 2.5"),
        ({"noise": math.nan}, "noise must be a finite number, got nan"),
    ], ids=["height-2.5", "noise-nan"])
    def test_wrong_type_writes_nothing(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "d"
        assert run("synth", "--out", out, "--config", path) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestSweep:
    def test_table_has_row_per_value(self, config_path, tmp_path, capsys):
        out = tmp_path / "sw"
        code = run(
            "sweep", "--config", config_path, "--out", out,
            "--axis", "s", "--values", "1,5,10,20",
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [l for l in captured.out.strip().splitlines() if l]
        assert len(lines) == 5  # header + 4 rows
        csv_lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 5

    def test_bad_axis_is_usage_error(self, config_path, tmp_path, capsys):
        code = run(
            "sweep", "--config", config_path, "--out", tmp_path / "sw",
            "--axis", "momentum", "--values", "1",
        )
        assert code == 1

    def test_zero_repeats_is_usage_error_and_writes_nothing(self, config_path, tmp_path, capsys):
        out = tmp_path / "sw"
        code = run(
            "sweep", "--config", config_path, "--out", out,
            "--axis", "s", "--values", "1", "--repeats", 0,
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "--repeats must be >= 1" in captured.err
        assert not (out / "config.json").exists()


class TestInfer:
    def test_graded_writes_trace(self, config_path, tmp_path, capsys):
        train_out = tmp_path / "run"
        assert run("train", "--config", config_path, "--out", train_out) == 0
        out = tmp_path / "inf"
        code = run(
            "infer", "--config", config_path, "--out", out,
            "--dict", train_out / "dict_epoch_1.lcad",
        )
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "code.npy").exists()
        assert (out / "reconstruction.npy").exists()

    def test_spiking_writes_trace_and_raster(self, tmp_path, capsys):
        config = {
            "dataset": {"kind": "synthetic", "seed": 1, "height": 8, "width": 8,
                        "frames": 2, "train_per_class": 3, "valid_per_class": 2},
            "dict_size": 16, "lambda": 0.3, "spike_height": 0.5,
            "dt": 1.0, "tau": 10.0, "display_ms": 30.0,
            "epochs": 1, "learning_rate": 0.01, "seed": 0,
        }
        path = tmp_path / "spk.json"
        path.write_text(json.dumps(config))
        train_out = tmp_path / "run"
        assert run("train", "--config", path, "--out", train_out) == 0
        out = tmp_path / "inf"
        assert run("infer", "--config", path, "--out", out,
                   "--dict", train_out / "dict_epoch_1.lcad") == 0
        assert (out / "raster.csv").exists()
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "step,energy,active,du_inf"
        assert len(rows) == 1 + 30  # one row per display step
        code = np.load(out / "code.npy")
        assert rows[-1].split(",")[2] == str(np.count_nonzero(code))

    def test_index_out_of_range_is_usage_error(self, config_path, tmp_path, capsys):
        train_out = tmp_path / "run"
        assert run("train", "--config", config_path, "--out", train_out) == 0
        code = run(
            "infer", "--config", config_path, "--out", tmp_path / "inf",
            "--dict", train_out / "dict_epoch_1.lcad", "--index", 999,
        )
        assert code == 1


class TestClassify:
    def test_train_then_eval(self, config_path, tmp_path, capsys):
        train_out = tmp_path / "run"
        assert run("train", "--config", config_path, "--out", train_out) == 0
        cls_out = tmp_path / "cls"
        assert run(
            "classify-train", "--config", config_path, "--out", cls_out,
            "--dict", train_out / "dict_epoch_1.lcad",
        ) == 0
        assert (cls_out / "classifier.lcls").exists()
        code = run(
            "classify-eval", "--config", config_path,
            "--dict", train_out / "dict_epoch_1.lcad",
            "--model", cls_out / "classifier.lcls",
            "--out", tmp_path / "ev",
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "accuracy" in captured.out
        assert (tmp_path / "ev" / "eval.json").exists()


class TestEventsToFrames:
    def test_converts_file(self, tmp_path, capsys):
        rec = tmp_path / "r.evt"
        events = [(100 * k, k % 3, 0, 1) for k in range(30)]
        save_events(rec, events, width=4, height=4)
        out = tmp_path / "frames"
        assert run("events-to-frames", "--input", rec, "--out", out,
                   "--window-us", 1000) == 0
        frames = np.load(out / "frames.npy")
        assert frames.shape == (3, 4, 4)

    def test_event_off_the_given_sensor_names_file_and_record(self, tmp_path, capsys):
        rec = tmp_path / "r.evt"
        save_events(rec, [(100 * k, k % 3, 0, 1) for k in range(30)], width=4, height=4)
        out = tmp_path / "frames"
        code = run("events-to-frames", "--input", rec, "--out", out, "--sensor-width", 2)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {rec}: record 2 at (2, 0) outside 2x4\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--window-us", "--saturation"])
    def test_nonpositive_flag_is_usage_error(self, tmp_path, capsys, flag):
        rec = tmp_path / "r.evt"
        save_events(rec, [(100 * k, k % 3, 0, 1) for k in range(30)],
                    width=4, height=4)
        out = tmp_path / "frames"
        code = run("events-to-frames", "--input", rec, "--out", out, flag, 0)
        captured = capsys.readouterr()
        assert code == 1
        assert f"{flag} must be >= 1, got 0" in captured.err
        assert not out.exists()


class TestBadFlagsWriteNothing:
    """A bad flag value exits 1 with one error line, before anything lands under --out."""

    @pytest.mark.parametrize("argv", [
        ["export-dict", "--cols", 0],
        ["export-dict", "--cols", -1],
        ["export-dict", "--top-k", 0],
        ["export-dict", "--top-k", 17],
        ["export-recon", "--config", "{config}", "--count", -1],
        ["export-recon", "--config", "{config}", "--count", 0],
        ["events-to-frames", "--input", "{events}", "--sensor-width", 0],
        ["events-to-frames", "--input", "{events}", "--sensor-width", -3],
        ["events-to-frames", "--input", "{events}", "--sensor-height", 0],
        ["infer", "--config", "{config}", "--index", 99],
    ], ids=["cols-0", "cols-neg", "top-k-0", "top-k-over-n", "count-neg", "count-0",
            "sensor-width-0", "sensor-width-neg", "sensor-height-0", "index-99"])
    def test_exits_1_and_writes_nothing(self, config_path, tmp_path, capsys, argv):
        dict_path = tmp_path / "d.lcad"
        sample = experiment_mod.load_dataset(experiment_mod.load_config(config_path).dataset)[0][0]
        save_checkpoint(init_random(0, 16, sample.input.dims), dict_path)
        events = tmp_path / "r.evt"
        save_events(events, [(100 * k, k % 3, 0, 1) for k in range(30)], width=4, height=4)
        paths = {"{config}": config_path, "{events}": events}
        argv = [paths.get(a, a) for a in argv]
        if argv[0] != "events-to-frames":
            argv += ["--dict", dict_path]
        out = tmp_path / "out"
        code = run(*argv, "--out", out)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestExportCommands:
    def test_export_dict_and_recon(self, config_path, tmp_path, capsys):
        train_out = tmp_path / "run"
        assert run("train", "--config", config_path, "--out", train_out) == 0
        fig = tmp_path / "fig"
        assert run("export-dict", "--dict", train_out / "dict_epoch_1.lcad",
                   "--out", fig, "--top-k", 4) == 0
        assert (fig / "dictionary.pgm").exists()
        captured = capsys.readouterr()
        assert "index order" in captured.err  # no activity ranking given
        fig2 = tmp_path / "fig2"
        assert run("export-recon", "--config", config_path,
                   "--dict", train_out / "dict_epoch_1.lcad",
                   "--out", fig2, "--count", 3) == 0
        assert (fig2 / "reconstructions.pgm").exists()

    def test_export_images_deterministic(self, config_path, tmp_path, capsys):
        train_out = tmp_path / "run"
        assert run("train", "--config", config_path, "--out", train_out) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("export-dict", "--dict", train_out / "dict_epoch_1.lcad",
                       "--out", out) == 0
        assert (a / "dictionary.pgm").read_bytes() == (b / "dictionary.pgm").read_bytes()


class TestConfigRejectedAtLoad:
    """Invalid configs exit 1 before any run starts."""

    def write(self, tmp_path, **overrides):
        raw = {
            "dataset": {
                "kind": "synthetic", "seed": 1, "height": 8, "width": 8, "frames": 2,
                "train_per_class": 3, "valid_per_class": 2,
            },
            "dict_size": 16, "lambda": 0.3,
            "dt": 1.0, "tau": 10.0, "display_ms": 30.0,
            "epochs": 1, "learning_rate": 0.01, "seed": 0,
        }
        raw.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_sweep_with_boxcar_missing_window_is_usage_error(self, tmp_path, capsys):
        path = self.write(tmp_path, spike_height=1.0, filter={"kind": "boxcar"})
        code = run("sweep", "--config", path, "--out", tmp_path / "sw",
                   "--axis", "s", "--values", "1,5")
        captured = capsys.readouterr()
        assert code == 1
        assert "window_ms" in captured.err
        assert not (tmp_path / "sw" / "sweep.csv").exists()

    def test_npy_dataset_without_path_is_usage_error(self, tmp_path, capsys):
        path = self.write(tmp_path, dataset={"kind": "npy"})
        code = run("train", "--config", path, "--out", tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert "path" in captured.err

    def test_classifier_zero_epochs_fails_before_training(self, tmp_path, capsys):
        path = self.write(tmp_path, classifier={"epochs": 0})
        code = run("train", "--config", path, "--out", tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert "epochs" in captured.err
        assert not (tmp_path / "o" / "metrics.csv").exists()


    @pytest.mark.parametrize("field", ["filter", "dataset", "classifier"])
    def test_non_object_block_is_usage_error(self, tmp_path, capsys, field):
        path = self.write(tmp_path, **{field: "boxcar"})
        code = run("train", "--config", path, "--out", tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("config error:")
        assert field in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("key, value", [
        ("spike_height", float("nan")), ("tau", float("inf")), ("gap_ms", float("inf")),
        ("warm_start", "no"), ("batch_size", 2.5), ("dict_size", 8.5),
        ("checkpoint_every", 0.5), ("epochs", 1.5), ("seed", 1.5), ("seed", -1),
    ])
    def test_wrong_type_exits_1_naming_the_key(self, tmp_path, capsys, key, value):
        path = self.write(tmp_path, **{key: value})
        code = run("train", "--config", path, "--out", tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"config error: {key} must be ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, extra", [
        ("train", []), ("sweep", ["--axis", "s", "--values", "1"]),
    ], ids=["train", "sweep"])
    def test_negative_seed_flag_exits_1_before_writing(self, tmp_path, capsys, command, extra):
        path = self.write(tmp_path)
        code = run(command, "--config", path, "--out", tmp_path / "o", "--seed", -2, *extra)
        assert code == 1
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -2\n"
        assert not (tmp_path / "o").exists()

    def test_negative_dataset_seed_exits_1_before_writing(self, tmp_path, capsys):
        path = self.write(tmp_path, dataset={"kind": "synthetic", "seed": -1})
        assert run("train", "--config", path, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == "config error: dataset: seed must be >= 0, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_bad_synthetic_value_fails_before_writing(self, tmp_path, capsys):
        path = self.write(tmp_path, dataset={"kind": "synthetic", "density": 2.0})
        code = run("train", "--config", path, "--out", tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 1
        assert "density" in captured.err
        assert not (tmp_path / "o" / "config.json").exists()


def _typed_keys():
    """(block, key, type) for every int, float and str of a config, read from the code that owns it.

    The block is None for the top level, else the dataset kind, "classifier"
    or the filter kind that holds the key.
    """
    owners = {None: experiment_mod.ExperimentConfig, **DATASET_KINDS,
              "classifier": ClassifierConfig, **filters_mod.FILTER_KINDS}
    return [(block, f.metadata.get("key", f.name), f.type.removesuffix(" | None"))
            for block, owner in owners.items() for f in fields(owner)
            if f.type.removesuffix(" | None") in _WRONG_VALUES
            and f.metadata.get("key", f.name) is not None]  # set by the owner, not the block


_WRONG_VALUES = {"int": [2.5, True], "float": [math.nan, math.inf, "1", True],
                 "str": [1, True, [1]]}

# One value past each bound or outside each choice that a field's metadata sets.
_OUT_OF_RULE = [("synthetic", "density", 1.5), ("cifar", "crop", 33),
                ("cifar", "valid_fraction", 1.0), (None, "input_encoding", "spikes"),
                ("classifier", "feature_scheme", "max")]


def _train_with(tmp_path, capsys, block, key, value):
    """Run ``train`` on a small config with ``key`` set to ``value`` in ``block``.

    Asserts that it exits 1 with one ``config error:`` line, before the run
    directory is written, and returns that line.
    """
    raw = {
        "dataset": {"kind": "synthetic", "seed": 1, "height": 4, "width": 4, "frames": 2,
                    "train_per_class": 2, "valid_per_class": 1},
        "dict_size": 8, "lambda": 0.3, "tau": 10.0, "display_ms": 10.0,
    }
    if block is None:
        raw[key] = value
    elif block == "synthetic":
        raw["dataset"][key] = value
    elif block in DATASET_KINDS:
        raw["dataset"] = {"kind": block, "path": "absent", key: value}
    elif block == "classifier":
        raw["classifier"] = {key: value}
    else:
        raw["filter"] = {"kind": block, key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    code = run("train", "--config", path, "--out", out)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (out / "config.json").exists()
    return err


class TestEveryFieldTyped:
    """Every field refuses a value of the wrong type, past its bounds or outside its choices.

    An int field refuses 2.5 and true, a float field NaN, Infinity, "1" and
    true, a str field 1, true and [1]. At the top level and in every block
    alike: exit 1 with one ``config error:`` line naming the key, before the
    run directory is written.
    """

    @pytest.mark.parametrize("block, key, value", [
        pytest.param(block, key, value, id=f"{block or 'top'}-{key}-{value!r}")
        for block, key, kind in _typed_keys() for value in _WRONG_VALUES[kind]
    ])
    def test_wrong_type_exits_1_naming_the_key(self, tmp_path, capsys, block, key, value):
        assert f"{key} must be " in _train_with(tmp_path, capsys, block, key, value)

    def test_str_fields_are_covered(self):
        typed = {(block, key) for block, key, kind in _typed_keys() if kind == "str"}
        assert typed == {("cifar", "path"), ("events", "path"), ("npy", "path"),
                         (None, "input_encoding"), ("classifier", "feature_scheme")}

    def test_a_wrong_path_type_is_refused_by_name(self, tmp_path, capsys):
        err = _train_with(tmp_path, capsys, "npy", "path", [1])
        assert err == "config error: dataset: path must be a string, got [1]\n"

    @pytest.mark.parametrize("block, key, value", [
        pytest.param(*case, id=f"{case[0] or 'top'}-{case[1]}") for case in _OUT_OF_RULE])
    def test_value_outside_its_rule_exits_1_naming_the_key(self, tmp_path, capsys, block, key,
                                                          value):
        assert key in _train_with(tmp_path, capsys, block, key, value)

    @pytest.mark.parametrize("key", ["foo", "seed"])
    def test_unknown_classifier_key_is_refused_by_name(self, config_path, tmp_path, capsys, key):
        raw = json.loads(config_path.read_text())
        raw["classifier"] = {"epochs": 5, key: 3}
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert run("train", "--config", config_path, "--out", out) == 1
        assert capsys.readouterr().err == f"config error: unknown classifier keys ['{key}']\n"
        assert not out.exists()


# A small run config; ``_block_cases`` swaps one of its blocks.
_RUN = {"dataset": {"kind": "synthetic", "seed": 1, "height": 4, "width": 4, "frames": 2,
                    "train_per_class": 2, "valid_per_class": 1},
        "dict_size": 8, "lambda": 0.3, "tau": 10.0, "display_ms": 10.0}


def _block_cases():
    """(block, value, message) for a non-object, an unknown key and a missing key of each block.

    ``value`` replaces the whole config for "config", is the spec file for
    "synth", and else is the block of that name in ``_RUN``; a dataset kind
    names its block "dataset". ``{path}`` in ``message`` is the file read.
    """
    top = {k: v for k, v in _RUN.items() if k != "lambda"}
    cases = [("config", [1, 2], "{path}: config must be a JSON object, got [1, 2]"),
             ("config", {**_RUN, "foo": 1}, "unknown config keys ['foo']"),
             ("config", top, "missing required config keys ['lambda']"),
             ("dataset", "npy", "dataset must be a JSON object, got 'npy'"),
             ("classifier", [1], "classifier must be a JSON object, got [1]"),
             ("classifier", {"foo": 1}, "unknown classifier keys ['foo']"),
             ("synth", [1, 2], "{path}: synth spec must be a JSON object, got [1, 2]"),
             ("synth", {"foo": 1}, "unknown synth spec keys ['foo']")]
    for kind, spec in DATASET_KINDS.items():
        required = {f.name: "absent" for f in fields(spec) if f.name == "path"}
        cases.append(("dataset", {"kind": kind, **required, "foo": 1},
                      "unknown dataset keys ['foo']"))
        if required:
            cases.append(("dataset", {"kind": kind}, "missing required dataset keys ['path']"))
    return cases


class TestEveryBlockRead:
    """Every block is read by ``errors.read_block``: one rule for its keys, one message each."""

    @pytest.mark.parametrize("block, value, message", [
        pytest.param(*case, id=f"{case[0]}-{i}") for i, case in enumerate(_block_cases())])
    def test_refusal_names_the_block_and_writes_nothing(self, tmp_path, capsys, block, value,
                                                        message):
        path = tmp_path / "cfg.json"
        if block in ("config", "synth"):
            path.write_text(json.dumps(value))
        else:
            path.write_text(json.dumps({**_RUN, block: value}))
        out = tmp_path / "o"
        assert run("synth" if block == "synth" else "train", "--config", path, "--out", out) == 1
        assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"
        assert not out.exists()

    def test_null_keeps_the_default_in_a_synth_spec_and_a_dataset_block(self, tmp_path, capsys):
        shape = {"height": 4, "width": 4, "frames": 2, "train_per_class": 2, "valid_per_class": 1}
        arrays = []
        for name, spec in (("plain", shape), ("null", {**shape, "noise": None, "seed": None})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(spec))
            assert run("synth", "--config", path, "--out", tmp_path / name) == 0
            arrays.append(np.load(tmp_path / name / "train_inputs.npy"))
            block = {"kind": "synthetic", **spec}
            train, _ = experiment_mod.load_dataset(block)  # the run seed 0 for a null seed
            arrays.append(np.array([s.input.frames for s in train]))
        for array in arrays[1:]:
            assert np.array_equal(array, arrays[0])


class TestDatasetValues:
    """File-dataset values are checked at config load; a null value keeps the default."""

    @pytest.fixture()
    def paths(self, tmp_path):
        rng = np.random.default_rng(0)
        images = tmp_path / "images.bin"
        records = rng.integers(0, 256, size=(10, 3073), dtype=np.uint8)
        records[:, 0] = np.arange(10) % 2
        images.write_bytes(records.tobytes())
        events = tmp_path / "events"
        for split in ("train", "valid"):
            (events / split).mkdir(parents=True)
            for k in range(2):
                times = np.sort(rng.integers(0, 8000, size=60))
                save_events(events / split / f"{k}_{k}.evt", [
                    (int(t), int(rng.integers(4)), int(rng.integers(4)), 1)
                    for t in times
                ], width=4, height=4)
        return {"cifar": str(images), "events": str(events)}

    def write(self, tmp_path, dataset):
        raw = {"dataset": dataset, "dict_size": 16, "lambda": 0.3, "tau": 10.0,
               "display_ms": 20.0, "epochs": 1, "learning_rate": 0.01}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    @pytest.mark.parametrize("dataset, values, message", [
        pytest.param({"kind": "events", "sensor_width": 4}, None,
                     "sensor_width and sensor_height", id="sensor-width-alone"),
        pytest.param({"kind": "events", "sensor_height": 4}, None,
                     "sensor_width and sensor_height", id="sensor-height-alone"),
        pytest.param({"kind": "events", "window_us": 0}, None, "window_us", id="window-us-0"),
        pytest.param({"kind": "events", "frames_per_window": 0}, None, "frames_per_window",
                     id="frames-per-window-0"),
        pytest.param({"kind": "cifar", "crop": 40}, None, "crop", id="crop-40"),
        pytest.param({"kind": "cifar", "valid_fraction": -0.5}, None, "valid_fraction",
                     id="valid-fraction-negative"),
        pytest.param({"kind": "cifar", "valid_fraction": 1.5}, None, "valid_fraction",
                     id="valid-fraction-above-1"),
        pytest.param({"kind": "cifar", "limit": -3}, None, "limit", id="limit-negative"),
        pytest.param(None, ("lambda", "abc"), "'abc'", id="values-lambda-abc"),
        pytest.param(None, ("dict_size", "3.5"), "'3.5'", id="values-dict-size-3.5"),
    ])
    def test_bad_value_exits_1_and_writes_nothing(
        self, config_path, paths, tmp_path, capsys, dataset, values, message
    ):
        out = tmp_path / "o"
        if dataset is not None:
            path = self.write(tmp_path, {**dataset, "path": paths[dataset["kind"]]})
            code = run("train", "--config", path, "--out", out)
        else:
            axis, listed = values
            code = run("sweep", "--config", config_path, "--out", out,
                       "--axis", axis, "--values", listed)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("config error:" if dataset else "error:")
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert not (out / "config.json").exists()

    def test_event_off_the_configured_sensor_names_file_and_record(self, paths, tmp_path, capsys):
        path = self.write(tmp_path, {"kind": "events", "path": paths["events"],
                                     "sensor_width": 4, "sensor_height": 2})
        code = run("train", "--config", path, "--out", tmp_path / "o")
        captured = capsys.readouterr()
        assert code == 2
        recording = Path(paths["events"]) / "train" / "0_0.evt"
        assert captured.err.startswith(f"error: {recording}: record ")
        assert captured.err.rstrip().endswith("outside 4x2")

    @pytest.mark.parametrize("dataset", [
        {"kind": "cifar", "crop": 16, "limit": None, "valid_fraction": 0.2},
        {"kind": "events", "window_us": 1000, "frames_per_window": 5, "stride": 1,
         "saturation": 2, "sensor_width": None, "sensor_height": None},
    ], ids=["cifar", "events"])
    def test_readme_examples_train(self, paths, tmp_path, capsys, dataset):
        path = self.write(tmp_path, {**dataset, "path": paths[dataset["kind"]]})
        assert run("train", "--config", path, "--out", tmp_path / "o") == 0
        assert (tmp_path / "o" / "dict_epoch_1.lcad").exists()


class TestRateEncodedInference:
    """``infer`` and ``export-recon`` drive the dynamics as training does."""

    @pytest.mark.parametrize("spike_height", [0.0, 0.5])
    def test_infer_code_is_the_training_path_code(self, tmp_path, capsys, spike_height):
        raw = {
            "dataset": {"kind": "synthetic", "seed": 1, "height": 8, "width": 8,
                        "frames": 2, "train_per_class": 3, "valid_per_class": 2},
            "dict_size": 16, "lambda": 0.3, "spike_height": spike_height,
            "dt": 1.0, "tau": 10.0, "display_ms": 30.0,
            "epochs": 1, "learning_rate": 0.01, "seed": 0,
            "input_encoding": "rate", "input_spike_height": 0.3,
            "filter": {"kind": "exponential", "time_constant_ms": 5.0},
        }
        path = tmp_path / "rate.json"
        path.write_text(json.dumps(raw))
        assert run("train", "--config", path, "--out", tmp_path / "run") == 0
        dict_path = tmp_path / "run" / "dict_epoch_1.lcad"
        out = tmp_path / "inf"
        assert run("infer", "--config", path, "--out", out, "--dict", dict_path,
                   "--index", 1) == 0
        config = experiment_mod.load_config(path)
        dictionary = load_checkpoint(dict_path)
        _, valid = experiment_mod.load_dataset(config.dataset)
        vec = valid[1].input.flattened
        params = config.lca_params()

        def period(spec):
            # The dictionary's stack of one, its (1, 1, N) code read back as (N,).
            stack = experiment_mod._Stack.lone(dictionary, spec)
            result = experiment_mod._period(stack, vec[None, None], spec)
            result.code = result.code[0, 0]
            return result

        trained = period(config.period_spec())
        assert config.period_spec().input_spike_height == 0.3
        constant = period(experiment_mod.PeriodSpec(params, spike_height, config.filter))
        code = np.load(out / "code.npy")
        assert np.array_equal(code, trained.code)
        assert not np.array_equal(code, constant.code)


class TestSweepFailureReport:
    def test_failed_cell_names_its_exception_on_stderr(self, config_path, tmp_path, capsys):
        out = tmp_path / "sw"
        code = run("sweep", "--config", config_path, "--out", out,
                   "--axis", "lambda", "--values", "0.3,-1")
        captured = capsys.readouterr()
        assert code == 0
        failures = [l for l in captured.err.splitlines() if l.startswith("failed run:")]
        assert len(failures) == 1
        assert "lambda=-1.0" in failures[0]
        assert "ConfigError: " in failures[0]
        assert "threshold must be >= 0" in failures[0]
        # The table itself is unchanged: the failure shows only as a count.
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == ",".join(experiment_mod.SWEEP_HEADER)
        assert rows[2].split(",")[2] == "1"


def write_config(config_path, name, **changes):
    """The config at ``config_path`` with ``changes``, as ``<name>.json`` beside it."""
    raw = json.loads(config_path.read_text())
    path = config_path.with_name(f"{name}.json")
    path.write_text(json.dumps({**raw, **changes}))
    return path


def interrupt(*args, **kwargs):
    raise KeyboardInterrupt


class TestInterrupt:
    def test_interrupted_train_keeps_its_dictionary_to_resume_from(
            self, config_path, tmp_path, monkeypatch, capsys):
        two = write_config(config_path, "two", epochs=2)
        with monkeypatch.context() as patch:
            patch.setattr(experiment_mod._LockStep, "end_epoch", interrupt)
            assert run("train", "--config", two, "--out", tmp_path / "cut") == 2
        assert capsys.readouterr().err == "interrupted; wrote partial.marker\n"
        saved = tmp_path / "cut" / "dict_interrupted.lcad"
        assert (tmp_path / "cut" / "partial.marker").read_text() == (
            "train interrupted; files here may be incomplete\n")
        assert run("train", "--config", config_path, "--out", tmp_path / "one") == 0
        assert saved.read_bytes() == (tmp_path / "one" / "dict_epoch_1.lcad").read_bytes()
        assert run("train", "--config", two, "--out", tmp_path / "resumed",
                   "--init-dict", saved) == 0

    def test_interrupted_sweep_leaves_the_marker(self, config_path, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setattr(experiment_mod, "run_sweep", interrupt)
        out = tmp_path / "sw"
        assert run("sweep", "--config", config_path, "--out", out,
                   "--axis", "s", "--values", "1,5") == 2
        assert capsys.readouterr().err == "interrupted; wrote partial.marker\n"
        assert (out / "partial.marker").read_text() == (
            "sweep interrupted; files here may be incomplete\n")

    def test_interrupted_infer_leaves_the_marker_once_its_out_exists(
            self, config_path, tmp_path, monkeypatch, capsys):
        assert run("train", "--config", config_path, "--out", tmp_path / "run") == 0
        capsys.readouterr()
        monkeypatch.setattr(experiment_mod, "_period", interrupt)
        out = tmp_path / "inf"
        assert run("infer", "--config", config_path, "--out", out,
                   "--dict", tmp_path / "run" / "dict_epoch_1.lcad") == 2
        assert capsys.readouterr().err == "interrupted; wrote partial.marker\n"
        assert (out / "partial.marker").read_text() == (
            "infer interrupted; files here may be incomplete\n")

    def test_interrupt_before_the_out_exists_writes_nothing(
            self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "load_checkpoint", interrupt)
        out = tmp_path / "inf"
        assert run("infer", "--config", config_path, "--out", out,
                   "--dict", tmp_path / "any.lcad") == 2
        assert capsys.readouterr().err == "interrupted\n"
        assert not out.exists()


# The refusal of a readout fit on a train split of one class.
ONE_CLASS = ("config error: {config}: a readout needs train samples from at least two classes, "
             "but its dataset's train split holds only class 0")
# The refusal of a 4x4 dictionary against the 8x8x2 data of the ``config_path`` fixture.
SMALL_DICT = ("config error: {small}: dictionary dims (4, 4, 1, 1) do not match the dims "
              "(8, 8, 1, 2) of the dataset of {config}")


class TestInputsCheckedBeforeWriting:
    """Every input is loaded and cross-checked by ``cli._inputs`` before anything is written."""

    @pytest.mark.parametrize("command, flag", [
        ("train", "--init-dict"), ("classify-train", "--dict"), ("export-recon", "--dict"),
        ("infer", "--dict"),
    ])
    def test_bad_checkpoint_writes_nothing(self, config_path, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad.lcad"
        bad.write_bytes(b"LCAD" + b"\x00" * 4)
        out = tmp_path / "o"
        assert run(command, "--config", config_path, "--out", out, flag, bad) == 2
        assert capsys.readouterr().err == f"error: {bad}: truncated header (8 bytes)\n"
        assert not (out / "config.json").exists()

    @pytest.fixture()
    def files(self, config_path, tmp_path):
        """A good dictionary and model for ``config_path``, and the bad inputs beside them."""
        dims = InputDims(8, 8, 1, 2)
        paths = {"config": config_path, "dict": tmp_path / "d.lcad",
                 "small": tmp_path / "small.lcad", "model": tmp_path / "m.lcls",
                 "wide": tmp_path / "wide.lcls", "missing": tmp_path / "missing.json",
                 "list": tmp_path / "list.json"}
        save_checkpoint(init_random(0, 16, dims), paths["dict"])
        save_checkpoint(init_random(0, 3, InputDims(4, 4)), paths["small"])
        for name, features in (("model", 16), ("wide", 32)):
            model = classifier_mod.LinearClassifier(np.zeros((4, features)), np.zeros(4))
            classifier_mod.save_model(model, paths[name])
        dataset = json.loads(config_path.read_text())["dataset"]
        for split in ("train", "valid"):
            paths[f"no_{split}"] = write_config(
                config_path, f"no_{split}", dataset={**dataset, f"{split}_per_class": 0})
        paths["list"].write_text("[1, 2]")
        paths["one_class"] = write_config(config_path, "one_class", classifier={"epochs": 5},
                                          dataset={**dataset, "n_classes": 1})
        events = tmp_path / "events"
        recordings = {"train/0_a": "0,0,0,1\n10,2,2,-1\n", "train/1_b": "0,3,3,1\n10,1,2,1\n",
                      "valid/0_c": "0,2,2,1\n"}
        for name, rows in recordings.items():
            (events / name).parent.mkdir(parents=True, exist_ok=True)
            (events / f"{name}.csv").write_text("t_us,x,y,p\n" + rows)
        paths["mixed"] = write_config(config_path, "mixed", dataset={
            "kind": "events", "path": str(events), "frames_per_window": 1})
        return paths

    @pytest.mark.parametrize("argv, message", [
        (["infer", "--dict", "{dict}"], "error: infer: --config is required"),
        (["synth", "--config", "{missing}"], "error: config file not found: {missing}"),
        (["synth", "--config", "{list}"],
         "config error: {list}: synth spec must be a JSON object, got [1, 2]"),
        (["train", "--config", "{list}"],
         "config error: {list}: config must be a JSON object, got [1, 2]"),
        (["train", "--config", "{one_class}"], ONE_CLASS.format(config="{one_class}")),
        (["classify-train", "--config", "{one_class}", "--dict", "{dict}"],
         ONE_CLASS.format(config="{one_class}")),
        (["train", "--config", "{mixed}"],
         "config error: {mixed}: train sample 1 of its dataset has dims (4, 4, 1, 1), but train "
         "sample 0 has (3, 3, 1, 1)"),
        (["classify-eval", "--config", "{no_valid}", "--dict", "{dict}", "--model", "{model}"],
         "config error: {no_valid}: the valid split of its dataset is empty"),
        (["export-recon", "--config", "{no_valid}", "--dict", "{dict}"],
         "config error: {no_valid}: the valid split of its dataset is empty"),
        (["train", "--config", "{no_train}"],
         "config error: {no_train}: the train split of its dataset is empty"),
        (["classify-train", "--config", "{no_train}", "--dict", "{dict}"],
         "config error: {no_train}: the train split of its dataset is empty"),
        (["train", "--config", "{config}", "--init-dict", "{small}"], SMALL_DICT),
        (["infer", "--config", "{config}", "--dict", "{small}"], SMALL_DICT),
        (["classify-train", "--config", "{config}", "--dict", "{small}"], SMALL_DICT),
        (["export-recon", "--config", "{config}", "--dict", "{small}"], SMALL_DICT),
        (["classify-eval", "--config", "{config}", "--dict", "{small}", "--model", "{model}"],
         SMALL_DICT),
        (["classify-eval", "--config", "{config}", "--dict", "{dict}", "--model", "{wide}"],
         "config error: {wide}: the model takes 32 features, but {dict} has 16 elements"),
    ], ids=["no-config", "synth-missing-spec", "synth-list-spec", "train-list-config",
            "train-one-class", "classify-train-one-class", "train-mixed-dims",
            "classify-eval-no-valid",
            "export-recon-no-valid", "train-no-train", "classify-train-no-train",
            "train-small-dict", "infer-small-dict", "classify-train-small-dict",
            "export-recon-small-dict", "classify-eval-small-dict", "classify-eval-wide-model"])
    def test_refusal_exits_1_names_its_files_and_writes_nothing(
            self, files, tmp_path, monkeypatch, capsys, argv, message):
        passes = []
        monkeypatch.setattr(experiment_mod, "collect_features",
                            lambda *args: passes.append(args))
        out = tmp_path / "o"
        assert run(*[a.format(**files) for a in argv], "--out", out) == 1
        assert capsys.readouterr().err == message.format(**files) + "\n"
        assert not out.exists()
        assert passes == []  # no feature pass ran before the refusal

    def test_no_command_reads_an_input_before_the_step(self, tmp_path, monkeypatch):
        class Sentinel(Exception):
            pass

        out = tmp_path / "o"
        seen = []

        def step(args, *rest, **options):
            seen.append(out.exists())
            raise Sentinel

        monkeypatch.setattr(cli, "_inputs", step)
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        for name, parser in commands.items():
            required = []  # each required flag with its first choice, or "1"
            for action in parser._actions:
                if action.required:
                    required += [action.option_strings[0],
                                 action.choices[0] if action.choices else "1"]
            with pytest.raises(Sentinel):
                run(name, "--config", tmp_path / "cfg.json", "--out", out, *required)
        assert seen == [False] * len(commands)


class TestLessTravelledPaths:
    def test_verbose_train_reports_each_epoch(self, config_path, tmp_path, capsys):
        path = write_config(config_path, "two", epochs=2)
        assert run("train", "--config", path, "--out", tmp_path / "run", "--verbose") == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for k, line in enumerate(lines, 1):
            assert re.fullmatch(
                rf"epoch {k}/2: rmse_train=\d+\.\d{{4}} rmse_val=\d+\.\d{{4}} "
                r"sparsity=\d+\.\d{2}%", line)

    def test_verbose_classify_train_logs_its_sample_counts(self, config_path, tmp_path, capsys):
        assert run("train", "--config", config_path, "--out", tmp_path / "run") == 0
        capsys.readouterr()
        assert run("classify-train", "--config", config_path, "--out", tmp_path / "cls",
                   "--dict", tmp_path / "run" / "dict_epoch_1.lcad", "--verbose") == 0
        config = experiment_mod.load_config(config_path)
        train, valid = experiment_mod.load_dataset(config.dataset, config.seed)
        assert capsys.readouterr().err == (
            f"extracting features for {len(train)} train / {len(valid)} valid samples\n")

    def test_zero_epochs_writes_the_initial_dictionary(self, config_path, tmp_path, capsys):
        path = write_config(config_path, "zero", epochs=0)
        out = tmp_path / "run"
        assert run("train", "--config", path, "--out", out) == 0
        assert capsys.readouterr().out == "epochs=0: wrote the initial dictionary unchanged\n"
        assert load_checkpoint(out / "dict_epoch_0.lcad").element_count == 16

    def test_dict_size_sweep_takes_counts_and_ratios(self, config_path, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run("sweep", "--config", config_path, "--out", out,
                   "--axis", "dict_size", "--values", "8,0.5x") == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        failed = experiment_mod.SWEEP_HEADER.index("failed")
        assert len(rows) == 3
        assert [row.split(",")[failed] for row in rows[1:]] == ["0", "0"]

    @pytest.mark.parametrize("axis, text, value", [
        ("lambda", "0.25", 0.25), ("s", "5", 5.0), ("dict_size", "64", 64),
        ("dict_size", "0.5x", {"ratio": 0.5}),
    ])
    def test_values_text_sets_what_its_python_value_does(self, config_path, axis, text, value):
        config = experiment_mod.load_config(config_path)
        want = experiment_mod.apply_axis(config, axis, value)
        assert cli._parse_values(axis, text) == [value]
        assert experiment_mod.apply_axis(config, axis, text) == want
        assert want != config

    @pytest.mark.parametrize("text", ["64.0", "x"])
    def test_dict_size_values_take_only_counts_and_ratios(self, config_path, text):
        with pytest.raises(cli.UsageError, match=f"entry '{text}' is not a valid dict_size"):
            cli._parse_values("dict_size", text)
        with pytest.raises(ValueError):
            experiment_mod.apply_axis(experiment_mod.load_config(config_path), "dict_size", text)

    def test_empty_values_entry_is_usage_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run("sweep", "--config", config_path, "--out", out,
                   "--axis", "s", "--values", "1,,2") == 1
        assert capsys.readouterr().err == "error: empty entry in --values '1,,2'\n"
        assert not out.exists()

    def test_colour_dictionary_exports_a_ppm(self, tmp_path, capsys):
        path = tmp_path / "colour.lcad"
        save_checkpoint(init_random(0, 6, InputDims(8, 8, 3)), path)  # a CIFAR 8x8 crop
        out = tmp_path / "fig"
        assert run("export-dict", "--dict", path, "--out", out) == 0
        assert (out / "dictionary.ppm").read_bytes().startswith(b"P6")
