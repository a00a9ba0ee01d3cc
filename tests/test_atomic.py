"""Artifact writers replace their file atomically: an interrupted write leaves the old file."""

import os

import numpy as np
import pytest

from lcalearn import atomic
from lcalearn.accumulator import write_raster_csv
from lcalearn.classifier import ClassifierConfig, save_model, train
from lcalearn.data import generate_synthetic, save_dataset_npy, save_events
from lcalearn.dictionary import InputDims, init_random, save_checkpoint
from lcalearn.experiment import RunMetrics, SweepResult
from lcalearn.export import write_pgm, write_ppm
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
    "events": lambda path: save_events(path, [(0, 1, 2, 1), (5, 3, 0, -1)], 4, 4),
    "pgm": lambda path: write_pgm(path, np.arange(12, dtype=np.uint8).reshape(3, 4)),
    "ppm": lambda path: write_ppm(path, np.arange(36, dtype=np.uint8).reshape(3, 4, 3)),
    "npy": lambda path: atomic.save_npy(path, np.arange(6.0).reshape(2, 3)),
    "text": lambda path: atomic.write_text(path, '{\n  "accuracy": 0.5\n}\n'),
}


class HalfWrittenFile:
    """A file whose first write stores half of its data and then raises."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")

    def __getattr__(self, name):
        return getattr(self.fh, name)


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


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_write_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch, name):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous contents")
    monkeypatch.setattr(atomic, "open", lambda *a, **kw: HalfWrittenFile(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="no space left"):
        WRITERS[name](path)
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_save_npy_writes_the_bytes_of_np_save(tmp_path):
    array = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
    np.save(tmp_path / "plain.npy", array)
    atomic.save_npy(tmp_path / "atomic.npy", array)
    assert (tmp_path / "atomic.npy").read_bytes() == (tmp_path / "plain.npy").read_bytes()


def test_interrupted_dataset_save_keeps_the_previous_arrays(tmp_path, monkeypatch):
    train, valid = generate_synthetic(0)
    save_dataset_npy(tmp_path, train, valid)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    other_train, other_valid = generate_synthetic(1)

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_dataset_npy(tmp_path, other_train, other_valid)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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


def test_write_csv_writes_floats_by_repr_and_other_cells_as_they_are(tmp_path):
    path = tmp_path / "table.csv"
    atomic.write_csv(path, ["a", "b", "c", "d", "e"], [
        [1, 0.1, np.float64(1 / 3), np.float32(0.1), np.int64(7)],
        [{"ratio": 0.5}, float("nan"), -0.0, 1e300, "x,y"],
    ])
    assert path.read_bytes() == (
        b"a,b,c,d,e\r\n"
        b"1,0.1,0.3333333333333333,0.10000000149011612,7\r\n"
        b"{'ratio': 0.5},nan,-0.0,1e+300,\"x,y\"\r\n"
    )


def test_atomic_open_removes_its_temporary_file_on_error(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic.atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
