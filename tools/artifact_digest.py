"""Digest every file that a fixed matrix of ``lcalearn`` commands writes, and their output.

    python3 tools/artifact_digest.py <checkout> <out>

Runs each command with the ``lcalearn`` package under ``<checkout>/src``,
with ``<out>`` (created, and required to be empty) as the working
directory and relative paths only, so the ``config.json`` echoes hold no
absolute path. The standard output and standard error of the N-th
command (from 0) are saved as ``<out>/stdout/<NNN>.txt`` and
``<out>/stderr/<NNN>.txt``. Then prints ``sha256  relative/path`` for
every file under ``<out>``, sorted, both streams included. Two checkouts that
write the same bytes and print the same lines give the same digest, so a
refactor that must keep its artifacts and output can be checked with

    python3 tools/artifact_digest.py . /tmp/new > new.txt
    python3 tools/artifact_digest.py ../parent /tmp/old > old.txt
    diff old.txt new.txt

The matrix: ``synth``; ``train``, ``infer``, ``export-recon`` and
``classify-train`` at spike heights 0, 0.5, 1, 5 and 0.37, each with no
filter, a boxcar and an exponential filter; the same four commands for a
rate-encoded warm-start run with a gap, graded and spiking; and
``sweep --axis s`` and ``sweep --axis lambda`` with 2 repeats, at a boxcar
and a classifier block on the last-half-mean features, plus ``sweep --axis
s`` on the final-code features and with no classifier block; and a
``sweep --axis s`` over 1 and 1e-310, where the tiny height fails each
repeat's run part-way through a period, so its stderr holds the error
messages a failing stacked run reports; and a ``sweep --axis s`` over the
one-class and the mixed-dims configs of ``refused()``, whose every cell
is refused before it trains, so their stderr and ``sweep.csv`` pin the
refusals a sweep cell reports. A command that exits non-zero stops the
run with exit status 1.

Then each command of ``refused()`` runs, a config that must be refused
before anything is written: an unknown dataset key, an unknown ``synth``
key, a file that is JSON but not an object (as a config and as a ``synth``
spec), a train split of one class under ``train`` with a classifier block
and under ``classify-train``, an ``events`` dataset whose recordings
disagree on their dims, an ``npy`` dataset whose ``path`` is not a
string, and a boxcar filter with an unknown key. Its exit status and
standard error are saved as ``<out>/refused/<name>.txt``, and whatever it
wrote under its ``--out``, ``refused/<name>``, is digested too.

Then one Python-API step (``API_SCRIPT``, run the same way) saves what
public calls return, on the trained ``s0.5_boxcar`` dictionary and the
``synth`` data, as files under ``<out>/api``: every array of a result as
``.npy`` (so its shape is pinned too) and every other value as its
``repr``. It covers ``run_inference`` and ``run_spiking_inference`` (at
s = 0.5 and 0.37, with no filter and a boxcar) at a (D,) and a (B, D)
input, each cold, warm (from the cold call's state and accumulator) and
rate-encoded, plus one recorded call each on the (D,) input (codes and
trace; codes and raster); ``evaluate_codes``, graded and spiking; and
``collect_features`` on both feature schemes under rate encoding.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HEIGHTS = (0.0, 0.5, 1.0, 5.0, 0.37)
FILTERS = {
    "none": None,
    "boxcar": {"kind": "boxcar", "window_ms": 7.0},
    "exponential": {"kind": "exponential", "time_constant_ms": 5.0},
}
SYNTH = {"n_classes": 3, "height": 6, "width": 6, "frames": 2,
         "train_per_class": 4, "valid_per_class": 2}
BASE = {
    "dataset": {"kind": "npy", "path": "data"},
    "dict_size": 16, "lambda": 0.3, "tau": 10.0, "display_ms": 30.0,
    "epochs": 2, "learning_rate": 0.05, "seed": 0, "classifier": {"epochs": 5},
}


API_SCRIPT = """
import dataclasses
from pathlib import Path

import numpy as np

from lcalearn import LcaParams, load_checkpoint, make_filter, run_inference
from lcalearn.accumulator import InputRateEncoder, run_spiking_inference
from lcalearn.experiment import collect_features, config_from_dict, evaluate_codes, load_dataset

out = Path("api")
out.mkdir()


def save(name, value):
    if isinstance(value, np.ndarray):
        np.save(out / f"{name}.npy", value)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            save(f"{name}.{field.name}", getattr(value, field.name))
    elif isinstance(value, dict):
        for key, item in value.items():
            save(f"{name}.{key}", item)
    else:
        (out / f"{name}.txt").write_text(repr(value) + "\\n")


dictionary = load_checkpoint("train/s0.5_boxcar/dict_epoch_2.lcad")
train, valid = load_dataset({"kind": "npy", "path": "data"})
params = LcaParams(lam=0.3, dt=1.0, tau=10.0, steps=30)
inputs = {"one": valid[0].input.flattened,
          "batch": np.array([s.input.flattened for s in valid[:4]])}
for shape, x in inputs.items():
    cold = run_inference(dictionary, x, params)
    save(f"graded_{shape}", cold)
    save(f"graded_{shape}_warm", run_inference(dictionary, x, params, initial_state=cold.state))
    save(f"graded_{shape}_rate", run_inference(dictionary, x, params,
                                                input_encoder=InputRateEncoder(x, 0.3)))
    for height in (0.5, 0.37):
        for kind, spec in (("none", None), ("boxcar", {"kind": "boxcar", "window_ms": 7.0})):
            name = f"s{height}_{kind}_{shape}"
            cold = run_spiking_inference(dictionary, x, params, height, make_filter(spec, 1.0))
            save(name, cold)
            save(f"{name}_warm", run_spiking_inference(
                dictionary, x, params, height, make_filter(spec, 1.0), initial_state=cold.state,
                initial_accumulator=cold.accumulator))
            save(f"{name}_rate", run_spiking_inference(
                dictionary, x, params, height, make_filter(spec, 1.0),
                input_encoder=InputRateEncoder(x, 0.3)))
x = inputs["one"]
save("graded_one_recorded", run_inference(dictionary, x, params, record_codes=True,
                                          record_trace=True))
save("s0.5_boxcar_one_recorded", run_spiking_inference(
    dictionary, x, params, 0.5, make_filter({"kind": "boxcar", "window_ms": 7.0}, 1.0),
    record_raster=True, record_codes=True))
save("evaluate_graded", evaluate_codes(dictionary, valid, params))
save("evaluate_s0.5_boxcar", evaluate_codes(dictionary, valid, params, 0.5,
                                            {"kind": "boxcar", "window_ms": 7.0}))
for scheme in ("final", "mean_last_half"):
    config = config_from_dict({
        "dataset": {"kind": "npy", "path": "data"}, "dict_size": 16, "lambda": 0.3,
        "tau": 10.0, "display_ms": 30.0, "spike_height": 0.5,
        "filter": {"kind": "boxcar", "window_ms": 7.0}, "input_encoding": "rate",
        "input_spike_height": 0.3, "classifier": {"feature_scheme": scheme}})
    save(f"features_{scheme}", collect_features(dictionary, train, config))
"""


def cases() -> list[tuple[str, dict]]:
    """(name, config) for each setting the per-setting commands run at."""
    out = [(f"s{height}_{name}", {**BASE, "spike_height": height, "filter": spec})
           for height in HEIGHTS for name, spec in FILTERS.items()]
    rate = {"input_encoding": "rate", "input_spike_height": 0.3, "warm_start": True,
            "gap_ms": 10.0}
    out.append(("rate_warm_gap_graded", {**BASE, **rate}))
    out.append(("rate_warm_gap_s0.5_boxcar",
                {**BASE, **rate, "spike_height": 0.5, "filter": FILTERS["boxcar"]}))
    return out


def sweep_configs() -> dict[str, dict]:
    """The configs only the sweeps run at, beside ``s1.0_boxcar``: other readouts of its codes."""
    boxcar = {**BASE, "spike_height": 1.0, "filter": FILTERS["boxcar"]}
    no_classifier = {k: v for k, v in boxcar.items() if k != "classifier"}
    return {
        "sweep_final": {**boxcar, "classifier": {"epochs": 5, "feature_scheme": "final"}},
        "sweep_no_classifier": no_classifier,
    }


def commands() -> list[list[str]]:
    """Every command of the matrix, in order, as ``lcalearn`` arguments."""
    argv = [["synth", "--config", "cfg/synth.json", "--out", "data"]]
    for name, _ in cases():
        cfg, checkpoint = f"cfg/{name}.json", f"train/{name}/dict_epoch_2.lcad"
        argv += [
            ["train", "--config", cfg, "--out", f"train/{name}"],
            ["infer", "--config", cfg, "--dict", checkpoint, "--out", f"infer/{name}",
             "--index", "1"],
            ["export-recon", "--config", cfg, "--dict", checkpoint, "--out", f"recon/{name}",
             "--count", "4"],
            ["classify-train", "--config", cfg, "--dict", checkpoint,
             "--out", f"classify/{name}"],
        ]
    sweep = "cfg/s1.0_boxcar.json"
    argv += [
        ["sweep", "--config", sweep, "--out", "sweep/s", "--axis", "s",
         "--values", "0.5,1,5", "--repeats", "2"],
        ["sweep", "--config", sweep, "--out", "sweep/lambda", "--axis", "lambda",
         "--values", "0.2,0.4", "--repeats", "2"],
        ["sweep", "--config", sweep, "--out", "sweep/failing", "--axis", "s",
         "--values", "1,1e-310", "--repeats", "2"],
    ]
    for name in sweep_configs():
        argv.append(["sweep", "--config", f"cfg/{name}.json", "--out", f"sweep/{name}",
                     "--axis", "s", "--values", "0.5,1,5,0.37", "--repeats", "2"])
    for name in ("one_class", "mixed_dims"):  # configs of refused(): every cell fails
        argv.append(["sweep", "--config", f"cfg/{name}.json", "--out", f"sweep/{name}",
                     "--axis", "s", "--values", "0.5,1"])
    return argv


def refused() -> list[tuple[str, list[str]]]:
    """(name, arguments) of each command that must refuse its config, in order."""
    one_class = "cfg/one_class.json"
    return [
        ("unknown_dataset_key", ["train", "--config", "cfg/unknown_dataset_key.json"]),
        ("unknown_synth_key", ["synth", "--config", "cfg/unknown_synth_key.json"]),
        ("non_object_config", ["train", "--config", "cfg/list.json"]),
        ("non_object_spec", ["synth", "--config", "cfg/list.json"]),
        ("one_class_train", ["train", "--config", one_class]),
        ("one_class_classify", ["classify-train", "--config", one_class,
                                "--dict", "train/s0.0_none/dict_epoch_2.lcad"]),
        ("mixed_dims", ["train", "--config", "cfg/mixed_dims.json"]),
        ("path_not_string", ["train", "--config", "cfg/path_not_string.json"]),
        ("unknown_filter_key", ["train", "--config", "cfg/unknown_filter_key.json"]),
    ]


def write_refused_inputs(out: Path) -> None:
    """The configs ``refused()`` (and two sweeps) read, and the recordings of an ``events`` one."""
    configs = {
        "unknown_dataset_key": {**BASE, "dataset": {"kind": "npy", "path": "data", "foo": 1}},
        "unknown_synth_key": {**SYNTH, "foo": 1},
        "list": [1, 2],
        "one_class": {**BASE, "dataset": {"kind": "synthetic", **SYNTH, "n_classes": 1}},
        "mixed_dims": {**BASE, "dataset": {"kind": "events", "path": "mixed",
                                           "frames_per_window": 1}},
        "path_not_string": {**BASE, "dataset": {"kind": "npy", "path": [1]}},
        "unknown_filter_key": {**BASE, "filter": {**FILTERS["boxcar"], "order": 2}},
    }
    for name, config in configs.items():
        (out / "cfg" / f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")
    # A 3x3 and a 4x4 recording: their samples disagree on dims.
    recordings = {"train/0_a": "0,0,0,1\n10,2,2,-1\n", "train/1_b": "0,3,3,1\n10,1,2,1\n",
                  "valid/0_c": "0,2,2,1\n"}
    for name, rows in recordings.items():
        path = out / "mixed" / f"{name}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("t_us,x,y,p\n" + rows)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = (Path(argv[0]) / "src").resolve()
    out = Path(argv[1])
    if not (src / "lcalearn" / "__init__.py").is_file():
        print(f"error: no lcalearn package under {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(src)}
    found = subprocess.run([sys.executable, "-c", "import lcalearn; print(lcalearn.__file__)"],
                           env=env, cwd=out, capture_output=True, text=True, check=True)
    if not Path(found.stdout.strip()).resolve().is_relative_to(src):
        print(f"error: imported lcalearn from {found.stdout.strip()}, not {src}", file=sys.stderr)
        return 2

    (out / "cfg").mkdir()
    (out / "cfg" / "synth.json").write_text(json.dumps(SYNTH, indent=2) + "\n")
    for name, config in [*cases(), *sweep_configs().items()]:
        (out / "cfg" / f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")
    write_refused_inputs(out)
    for stream in ("stdout", "stderr"):
        (out / stream).mkdir()
    for index, args in enumerate(commands()):
        done = subprocess.run([sys.executable, "-m", "lcalearn.cli", *args],
                              env=env, cwd=out, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"error: lcalearn {' '.join(args)} exited {done.returncode}:\n{done.stderr}",
                  file=sys.stderr)
            return 1
        (out / "stdout" / f"{index:03d}.txt").write_text(done.stdout)
        (out / "stderr" / f"{index:03d}.txt").write_text(done.stderr)
    (out / "refused").mkdir()
    for name, args in refused():
        done = subprocess.run([sys.executable, "-m", "lcalearn.cli", *args,
                               "--out", f"refused/{name}"],
                              env=env, cwd=out, capture_output=True, text=True)
        (out / "refused" / f"{name}.txt").write_text(f"exit {done.returncode}\n{done.stderr}")
    done = subprocess.run([sys.executable, "-c", API_SCRIPT], env=env, cwd=out,
                          capture_output=True, text=True)
    if done.returncode != 0:
        print(f"error: the Python-API step exited {done.returncode}:\n{done.stderr}",
              file=sys.stderr)
        return 1

    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
