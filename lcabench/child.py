"""One repetition of a workload in a fresh process, as a user would run it.

Usage: python3 child.py <spawn_time> <rep.json>

``spawn_time`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time counts interpreter start, the ``lcalearn``
import and the config load. The rep file names the workload, its inputs and
an output directory; this process writes ``result.json`` (and, when traced,
``spans.npz``) there. With ``"setup_only"`` it stops after set-up.

lcalearn and numpy are imported inside the functions, so that their import
is timed: nothing of theirs loads before the clock starts.
"""

import json
import resource
import sys
import time
from pathlib import Path


def train_graded(rep: dict, config, out: Path) -> dict:
    import lcalearn.cli

    code = lcalearn.cli.main(["train", "--config", rep["config"], "--out", str(out / "run")])
    return {"exit_code": code}


def sweep_spiking_events(rep: dict, config, out: Path) -> dict:
    import lcalearn.cli

    argv = ["sweep", "--config", rep["config"], "--out", str(out / "run"),
            "--axis", "s", "--values", rep["sweep_values"]]
    return {"exit_code": lcalearn.cli.main(argv)}


def eval_frozen_image(rep: dict, config, out: Path) -> dict:
    # The calls classify-train and classify-eval make, plus evaluate_codes
    # graded and spiking on the validation split.
    import numpy as np
    from lcalearn import classifier, dictionary, experiment

    frozen = dictionary.load_checkpoint(rep["dict"])
    train, valid = experiment.load_dataset(config.dataset, config.seed)
    params = config.lca_params()
    graded = experiment.evaluate_codes(frozen, valid, params)
    spiking = experiment.evaluate_codes(
        frozen, valid, params, spike_height=rep["eval_spike_height"], filter_spec=rep["eval_filter"]
    )
    train_features = experiment.collect_features(frozen, train, config)
    valid_features = experiment.collect_features(frozen, valid, config)
    spec = config.classifier
    model = classifier.train(
        train_features,
        np.array([s.label for s in train]),
        classifier.ClassifierConfig(spec["epochs"], spec["learning_rate"], config.seed),
    )
    accuracy = classifier.evaluate(model, valid_features, np.array([s.label for s in valid]))
    return {
        "rmse_graded": graded["rmse"],
        "rmse_spiking": spiking["rmse"],
        "accuracy": accuracy,
        "features": (train_features, valid_features),
    }


WORKLOADS = {
    "train-graded": train_graded,
    "sweep-spiking-events": sweep_spiking_events,
    "eval-frozen-image": eval_frozen_image,
}


def main() -> None:
    spawn = float(sys.argv[1])
    rep = json.loads(Path(sys.argv[2]).read_text())
    out = Path(rep["out"])

    started = time.monotonic()
    import lcalearn
    import lcalearn.cli  # noqa: F401 - the import a user's command pays

    import_s = time.monotonic() - started
    if not Path(lcalearn.__file__).resolve().is_relative_to(Path(rep["src"]).resolve()):
        sys.exit(f"imported lcalearn from {lcalearn.__file__}, not from {rep['src']}")
    config = lcalearn.experiment.load_config(rep["config"])
    result = {"setup_s": time.monotonic() - spawn, "import_s": import_s}

    if not rep["setup_only"]:
        import numpy as np

        tracer = None
        if rep["trace"]:
            from spans import Tracer  # beside this file, so on sys.path

            tracer = Tracer()
            tracer.install()
        begin = time.monotonic()
        outputs = WORKLOADS[rep["workload"]](rep, config, out)
        result["wall_s"] = time.monotonic() - begin
        if tracer is not None:
            tracer.save(out / "spans.npz")
            result["absent"] = tracer.absent
            result["patched"] = tracer.patched
        features = outputs.pop("features", None)
        if features is not None:
            stacked = np.concatenate(features)
            outputs["features_finite"] = bool(np.isfinite(stacked).all())
            outputs["features_min"] = float(stacked.min())
        result.update(outputs)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
