"""Seeded input generator for the lcalearn benchmark.

Everything here runs before any timed phase. The same seed writes the same
bytes. The generator does not call lcalearn: it writes the files the program
reads (npy arrays, EVT1 and CSV event recordings, CIFAR-format records) and
returns the decoded arrays the reference oracle needs, so the oracle never
sees the program's own parsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# train-graded: the README quick-start (synth defaults, N=64, D=16*16*5).
SYNTH_CLASSES = 4
SYNTH_SHAPE = (5, 16, 16)  # frames, height, width
SYNTH_DENSITY = 0.18
SYNTH_NOISE = 0.02
SYNTH_SATURATION = 2
SYNTH_TRAIN_PER_CLASS = 12
SYNTH_VALID_PER_CLASS = 5

# sweep-spiking-events: 16x16 sensor, 1 ms windows, 5-frame sequences, so the
# frames reach the dictionary at the same D=1280 as train-graded.
EVENT_SENSOR = (16, 16)  # width, height
EVENT_WINDOW_US = 1000
EVENT_FRAMES_PER_WINDOW = 5
EVENT_STRIDE = 2
EVENT_SATURATION = 2
EVENT_RECORDING_FRAMES = 12  # -> 4 windows per recording at stride 2
EVENT_TRAIN_PER_CLASS = 2
EVENT_VALID_PER_CLASS = 1
EVENT_CSV_EVERY = 4  # every 4th recording is written as a CSV twin
EVENT_DENSITY = 0.2
EVENT_MAX_COUNT = 3  # above the saturation, so clamping is exercised

# eval-frozen-image: 16x16 RGB crops of 32x32 gratings, D=768, N=256.
IMAGE_COUNT = 75
IMAGE_CLASSES = 4  # orientation bins
IMAGE_VALID_FRACTION = 0.2
IMAGE_CONTRASTS = (0.15, 0.225, 0.3, 0.375, 0.45)
IMAGE_FREQUENCIES = (0.25, 0.4, 0.55)

_EVT1_HEADER = np.dtype([("magic", "S4"), ("version", "<u4"), ("width", "<u2"), ("height", "<u2")])
_EVT1_RECORD = np.dtype([("t", "<u4"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])


@dataclass
class Split:
    """Decoded inputs, one flattened row per sample, plus labels."""

    inputs: np.ndarray  # (samples, D)
    labels: np.ndarray


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def write_synthetic_npy(root: Path, seed: int) -> tuple[Split, Split]:
    """Class-template-plus-noise event frames, saved in the `npy` dataset layout."""
    rng = _rng(seed, 1)
    sat = SYNTH_SATURATION
    templates = []
    for _ in range(SYNTH_CLASSES):
        active = rng.random(SYNTH_SHAPE) < SYNTH_DENSITY
        counts = rng.integers(1, sat + 1, size=SYNTH_SHAPE)
        signs = np.where(rng.random(SYNTH_SHAPE) < 0.5, -1.0, 1.0)
        templates.append(active * signs * counts / sat)

    def draw(label: int) -> np.ndarray:
        hits = rng.random(SYNTH_SHAPE) < SYNTH_NOISE
        noise = hits * np.where(rng.random(SYNTH_SHAPE) < 0.5, -1.0, 1.0) / sat
        return np.clip(templates[label] + noise, -1.0, 1.0)

    root.mkdir(parents=True, exist_ok=True)
    splits = []
    for name, per_class in (("train", SYNTH_TRAIN_PER_CLASS), ("valid", SYNTH_VALID_PER_CLASS)):
        labels = np.repeat(np.arange(SYNTH_CLASSES, dtype=np.int64), per_class)
        inputs = np.stack([draw(int(c)) for c in labels])
        np.save(root / f"{name}_inputs.npy", inputs)
        np.save(root / f"{name}_labels.npy", labels)
        splits.append(Split(inputs.reshape(len(labels), -1), labels))
    return splits[0], splits[1]


def _recording_events(rng: np.random.Generator, template: np.ndarray, t0: int) -> np.ndarray:
    """Events of one recording: per 1 ms frame, |count| events per pixel with its sign."""
    jitter = (rng.random(template.shape) < 0.05) * rng.choice([-1, 1], size=template.shape)
    counts = template + jitter
    # An event in the first and in the last frame pins the recording to
    # exactly EVENT_RECORDING_FRAMES frames.
    counts[0, 0, 0] = counts[0, 0, 0] or 1
    counts[-1, -1, -1] = counts[-1, -1, -1] or -1
    f, y, x = np.nonzero(counts)
    values = counts[f, y, x]
    f, y, x, pol = (np.repeat(a, np.abs(values)) for a in (f, y, x, np.sign(values)))
    t = t0 + f * EVENT_WINDOW_US + rng.integers(0, EVENT_WINDOW_US, size=f.size)
    order = np.argsort(t, kind="stable")
    events = np.zeros(f.size, dtype=_EVT1_RECORD)
    events["t"], events["x"], events["y"], events["p"] = t[order], x[order], y[order], pol[order]
    return events


def _write_evt1(path: Path, events: np.ndarray) -> None:
    header = np.array([(b"EVT1", 1, EVENT_SENSOR[0], EVENT_SENSOR[1])], dtype=_EVT1_HEADER)
    path.write_bytes(header.tobytes() + events.tobytes())


def _write_csv(path: Path, events: np.ndarray) -> None:
    lines = ["t_us,x,y,p"]
    lines.extend(f"{e['t']},{e['x']},{e['y']},{e['p']}" for e in events)
    path.write_text("\n".join(lines) + "\n")


def frames_from_events(events: np.ndarray) -> np.ndarray:
    """Signed, saturated 1 ms frames of one recording, (frames, height, width)."""
    width, height = EVENT_SENSOR
    ts = events["t"].astype(np.int64)
    t_start = int(ts[0] // EVENT_WINDOW_US) * EVENT_WINDOW_US
    n_frames = -(-(int(ts[-1]) + 1 - t_start) // EVENT_WINDOW_US)
    counts = np.zeros((n_frames, height, width), dtype=np.int64)
    np.add.at(
        counts,
        ((ts - t_start) // EVENT_WINDOW_US, events["y"].astype(np.int64), events["x"].astype(np.int64)),
        events["p"].astype(np.int64),
    )
    np.clip(counts, -EVENT_SATURATION, EVENT_SATURATION, out=counts)
    return counts / EVENT_SATURATION


def write_event_dataset(root: Path, seed: int) -> tuple[Split, Split, dict]:
    """EVT1 recordings under root/{train,valid}/, every EVENT_CSV_EVERY-th as a CSV twin."""
    rng = _rng(seed, 2)
    shape = (EVENT_RECORDING_FRAMES, EVENT_SENSOR[1], EVENT_SENSOR[0])
    templates = []
    for _ in range(SYNTH_CLASSES):
        active = rng.random(shape) < EVENT_DENSITY
        counts = rng.integers(1, EVENT_MAX_COUNT + 1, size=shape)
        templates.append(active * counts * rng.choice([-1, 1], size=shape))
    splits = []
    stats = {"recordings": 0, "csv_recordings": 0, "events": 0, "samples": 0}
    for split, per_class in (("train", EVENT_TRAIN_PER_CLASS), ("valid", EVENT_VALID_PER_CLASS)):
        split_dir = root / split
        split_dir.mkdir(parents=True, exist_ok=True)
        rows, labels = [], []
        # Names sort label-first, which is the order the loader reads them in.
        for label in range(SYNTH_CLASSES):
            for k in range(per_class):
                events = _recording_events(rng, templates[label], int(rng.integers(0, 50)) * 1000)
                as_csv = stats["recordings"] % EVENT_CSV_EVERY == EVENT_CSV_EVERY - 1
                name = f"{label}_rec{k:02d}"
                if as_csv:
                    _write_csv(split_dir / f"{name}.csv", events)
                else:
                    _write_evt1(split_dir / f"{name}.evt", events)
                stats["recordings"] += 1
                stats["csv_recordings"] += int(as_csv)
                stats["events"] += int(events.size)
                frames = frames_from_events(events)
                last = len(frames) - EVENT_FRAMES_PER_WINDOW
                for start in range(0, last + 1, EVENT_STRIDE):
                    rows.append(frames[start : start + EVENT_FRAMES_PER_WINDOW].reshape(-1))
                    labels.append(label)
        splits.append(Split(np.stack(rows), np.array(labels, dtype=np.int64)))
    stats["samples"] = len(splits[0].labels) + len(splits[1].labels)
    return splits[0], splits[1], stats


def event_dataset_spec(root: Path) -> dict:
    # The sensor size is stated: a CSV twin would otherwise infer it from its
    # largest coordinate, and D would differ between recordings.
    return {
        "kind": "events",
        "path": str(root),
        "window_us": EVENT_WINDOW_US,
        "frames_per_window": EVENT_FRAMES_PER_WINDOW,
        "stride": EVENT_STRIDE,
        "saturation": EVENT_SATURATION,
        "sensor_width": EVENT_SENSOR[0],
        "sensor_height": EVENT_SENSOR[1],
    }


def write_gratings(path: Path, seed: int) -> tuple[Split, Split]:
    """CIFAR-format records of oriented colour gratings; label is the orientation bin."""
    rng = _rng(seed, 3)
    yy, xx = np.mgrid[0:32, 0:32]
    records, crops, labels = [], [], []
    for i in range(IMAGE_COUNT):
        # Orientation, contrast and frequency cycle through fixed levels, so
        # every seed and both splits hold the same mix of easy and hard images.
        label = i % IMAGE_CLASSES
        theta = (label + rng.uniform(-0.2, 0.2)) * np.pi / IMAGE_CLASSES
        freq = IMAGE_FREQUENCIES[(i // IMAGE_CLASSES) % len(IMAGE_FREQUENCIES)]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(freq * (np.cos(theta) * xx + np.sin(theta) * yy) + phase)
        level = IMAGE_CONTRASTS[(i // IMAGE_CLASSES) % len(IMAGE_CONTRASTS)]
        contrast = level + rng.uniform(-0.03, 0.03, size=(3, 1, 1))
        image = 0.5 + contrast * wave + rng.normal(0.0, 0.03, size=(3, 32, 32))
        pixels = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
        records.append(bytes([label]) + pixels.tobytes())
        crop = pixels.transpose(1, 2, 0)[8:24, 8:24, :].astype(np.float64) / 255.0
        crops.append(crop.reshape(-1))
        labels.append(label)
    path.write_bytes(b"".join(records))
    split = IMAGE_COUNT - max(1, int(IMAGE_COUNT * IMAGE_VALID_FRACTION))
    inputs, labels = np.stack(crops), np.array(labels, dtype=np.int64)
    return Split(inputs[:split], labels[:split]), Split(inputs[split:], labels[split:])


def write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=2) + "\n")
