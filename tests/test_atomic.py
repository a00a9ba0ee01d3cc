"""Artifact writers replace their file atomically: an interrupted write leaves the old file."""

import os

import numpy as np
import pytest

from lcalearn import atomic
from lcalearn.accumulator import write_raster_csv
from lcalearn.classifier import ClassifierConfig, save_model, train
from lcalearn.dictionary import InputDims, init_random, save_checkpoint
from lcalearn.experiment import RunMetrics, SweepResult
from lcalearn.lca import write_trace_csv


def metrics():
    return RunMetrics([0.5], [0.4], [3.0], [float("nan")], [2], [0.1])


def sweep_result():
    row = {"value": 1.0, "repeats": 1, "failed": 0, "rmse_val_mean": 0.3, "rmse_val_ci": 0.1,
           "sparsity_mean": 4.0, "sparsity_ci": 0.2, "accuracy_mean": 0.5, "accuracy_ci": 0.1,
           "max_spikes_mean": 2.0}
    return SweepResult("s", [row, dict(row, value=2.0)])


def model():
    features = np.random.default_rng(0).uniform(size=(6, 3))
    return train(features, np.array([0, 1, 0, 1, 0, 1]), ClassifierConfig(epochs=2, seed=0))


WRITERS = {
    "checkpoint": lambda path: save_checkpoint(init_random(0, 4, InputDims(2, 3)), path),
    "model": lambda path: save_model(model(), path),
    "metrics": lambda path: metrics().write_csv(path),
    "sweep": lambda path: sweep_result().write_csv(path),
    "trace": lambda path: write_trace_csv(path, [[1, 0.5, 2, 0.1], [2, 0.4, 1, 0.05]]),
    "raster": lambda path: write_raster_csv(path, np.array([[0, 2], [1, 0]])),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_interrupted_write_keeps_the_previous_file(tmp_path, monkeypatch, name):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous contents")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        WRITERS[name](path)
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_completed_write_replaces_the_file(tmp_path, name):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous contents")
    WRITERS[name](path)
    fresh = tmp_path / "fresh"
    WRITERS[name](fresh)
    assert path.read_bytes() == fresh.read_bytes() != b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "fresh"]


def test_writer_that_raises_mid_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep_result().write_csv(path)
    before = path.read_bytes()
    broken = sweep_result()
    del broken.rows[1]["sparsity_mean"]  # the second row fails after the first is written
    with pytest.raises(KeyError):
        broken.write_csv(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]


def test_atomic_open_removes_its_temporary_file_on_error(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic.atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
