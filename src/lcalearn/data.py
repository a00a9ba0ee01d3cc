"""Dataset ingestion: CIFAR-style binaries, DVS event streams, synthetic fixtures.

Event streams use a canonical little-endian container (magic ``EVT1``) or
an equivalent CSV twin; converting vendor formats such as AEDAT into the
canonical layout is left to an external script (see README). Frames built
from events hold signed values in [-1, 1]; image frames hold [0, 1] per
channel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lcalearn.dictionary import InputDims
from lcalearn.errors import FormatError

EVENT_MAGIC = b"EVT1"
EVENT_VERSION = 1

_EVENT_FILE_HEADER = struct.Struct("<4sIHH")  # magic, version, width, height
_EVENT_RECORD = struct.Struct("<IHHb")        # t_us, x, y, polarity

CIFAR_RECORD_BYTES = 1 + 3 * 32 * 32


@dataclass(frozen=True)
class EventRecord:
    """One signed camera event: timestamp (microseconds), pixel, polarity."""

    t: int
    x: int
    y: int
    polarity: int

    def __post_init__(self):
        if self.t < 0 or self.x < 0 or self.y < 0:
            raise ValueError(f"negative field in event {self}")
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")


@dataclass
class FrameSequence:
    """Ordered frames plus the time-flattened vector the dictionary consumes.

    ``frames`` has shape (T, H, W) or (T, H, W, C); flattening is
    frame-major, then row-major, with channel fastest.
    """

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim == 3:
            self.frames = self.frames[..., None]
        if self.frames.ndim != 4:
            raise ValueError(f"frames must be (T, H, W[, C]), got shape {self.frames.shape}")

    @property
    def flattened(self) -> np.ndarray:
        return self.frames.reshape(-1)

    @property
    def dims(self) -> InputDims:
        t, h, w, c = self.frames.shape
        return InputDims(height=h, width=w, channels=c, frames=t)


@dataclass
class LabeledSample:
    input: FrameSequence
    label: int


@dataclass
class SyntheticSpec:
    """Parameters of the event-like synthetic dataset used for desk-scale runs."""

    n_classes: int = 4
    height: int = 16
    width: int = 16
    frames: int = 5
    density: float = 0.18
    noise: float = 0.02
    train_per_class: int = 12
    valid_per_class: int = 5
    saturation: int = 2

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError("need at least one class")
        for name in ("height", "width", "frames", "saturation"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("train_per_class", "valid_per_class"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 < self.density <= 1:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")


# ---------------------------------------------------------------------------
# CIFAR-style raw binaries
# ---------------------------------------------------------------------------

def load_cifar(path, crop: int = 16, limit: int | None = None) -> list[LabeledSample]:
    """Load raw CIFAR records (1 label byte + 3072 pixel bytes, planar RGB).

    Pixels are scaled to [0, 1]; a symmetric center crop of the given size
    is taken from the 32x32 image. Each sample becomes a single-frame
    sequence so the rest of the pipeline is uniform across datasets.
    """
    if not 1 <= crop <= 32:
        raise ValueError(f"crop must be in 1..32, got {crop}")
    raw = Path(path).read_bytes()
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        raise FormatError(
            f"{path}: {len(raw)} bytes is not a whole number of records "
            f"(truncated at record {len(raw) // CIFAR_RECORD_BYTES})"
        )
    count = len(raw) // CIFAR_RECORD_BYTES
    if limit is not None:
        count = min(count, limit)
    offset = (32 - crop) // 2
    samples = []
    for i in range(count):
        record = raw[i * CIFAR_RECORD_BYTES : (i + 1) * CIFAR_RECORD_BYTES]
        label = record[0]
        pixels = np.frombuffer(record, dtype=np.uint8, offset=1)
        image = pixels.reshape(3, 32, 32).transpose(1, 2, 0).astype(np.float64) / 255.0
        cropped = image[offset : offset + crop, offset : offset + crop, :]
        samples.append(LabeledSample(FrameSequence(cropped[None, ...]), int(label)))
    return samples


# ---------------------------------------------------------------------------
# Event streams
# ---------------------------------------------------------------------------

def save_events(path, events: list[EventRecord], width: int, height: int) -> None:
    """Write the canonical EVT1 binary container."""
    parts = [_EVENT_FILE_HEADER.pack(EVENT_MAGIC, EVENT_VERSION, width, height)]
    parts.extend(_EVENT_RECORD.pack(e.t, e.x, e.y, e.polarity) for e in events)
    Path(path).write_bytes(b"".join(parts))


def load_events(path) -> tuple[list[EventRecord], int, int]:
    """Read events from the EVT1 binary container or its CSV twin.

    Returns (events, sensor_width, sensor_height); the CSV twin carries no
    sensor size, so width/height are inferred as max coordinate + 1.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_events_csv(path)
    raw = path.read_bytes()
    if len(raw) < _EVENT_FILE_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, width, height = _EVENT_FILE_HEADER.unpack_from(raw)
    if magic != EVENT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != EVENT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    body = raw[_EVENT_FILE_HEADER.size:]
    if len(body) % _EVENT_RECORD.size != 0:
        raise FormatError(f"{path}: truncated event record at byte {len(body)}")
    events = []
    last_t = 0
    for i in range(len(body) // _EVENT_RECORD.size):
        t, x, y, pol = _EVENT_RECORD.unpack_from(body, i * _EVENT_RECORD.size)
        if pol not in (-1, 1):
            raise FormatError(f"{path}: record {i} has polarity {pol}")
        if x >= width or y >= height:
            raise FormatError(f"{path}: record {i} at ({x}, {y}) outside {width}x{height}")
        if t < last_t:
            raise FormatError(f"{path}: record {i} timestamp {t} goes backwards")
        last_t = t
        events.append(EventRecord(t, x, y, pol))
    return events, width, height


def _load_events_csv(path) -> tuple[list[EventRecord], int, int]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "t_us,x,y,p":
        raise FormatError(f"{path}: expected header 't_us,x,y,p'")
    events = []
    last_t = 0
    max_x = max_y = -1
    for i, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"{path}: line {i + 1} has {len(parts)} fields")
        try:
            t, x, y, pol = (int(p) for p in parts)
        except ValueError as exc:
            raise FormatError(f"{path}: line {i + 1}: {exc}") from exc
        if pol not in (-1, 1):
            raise FormatError(f"{path}: line {i + 1} has polarity {pol}")
        if t < last_t:
            raise FormatError(f"{path}: line {i + 1} timestamp {t} goes backwards")
        last_t = t
        max_x, max_y = max(max_x, x), max(max_y, y)
        events.append(EventRecord(t, x, y, pol))
    return events, max_x + 1, max_y + 1


def accumulate_events(
    events: list[EventRecord],
    window_us: int,
    sensor: tuple[int, int],
    saturation: int = 2,
    *,
    t_start: int | None = None,
    t_end: int | None = None,
) -> list[np.ndarray]:
    """Sum event polarities into consecutive time windows, clamped to [-1, 1].

    Per pixel and window, the signed event count is clamped to
    [-saturation, +saturation] and divided by the saturation. Windows
    default to starting at the first event's window boundary and ending
    just past the last event.
    """
    if window_us < 1:
        raise ValueError(f"window must be >= 1 us, got {window_us}")
    if saturation < 1:
        raise ValueError(f"saturation must be >= 1, got {saturation}")
    height, width = sensor[1], sensor[0]
    if events:
        ts = np.array([e.t for e in events], dtype=np.int64)
        xs = np.array([e.x for e in events], dtype=np.int64)
        ys = np.array([e.y for e in events], dtype=np.int64)
        ps = np.array([e.polarity for e in events], dtype=np.int64)
        if (np.diff(ts) < 0).any():
            raise ValueError("events must be nondecreasing in time")
        bad = (xs >= width) | (ys >= height)
        if bad.any():
            i = int(np.argmax(bad))
            raise FormatError(
                f"event {i} at ({xs[i]}, {ys[i]}) outside sensor {width}x{height}"
            )
        if t_start is None:
            t_start = int(ts[0] // window_us) * window_us
        if t_end is None:
            t_end = int(ts[-1]) + 1
    else:
        if t_start is None or t_end is None:
            return []
    n_frames = max(0, -(-(t_end - t_start) // window_us))
    frames = [np.zeros((height, width)) for _ in range(n_frames)]
    if not events or n_frames == 0:
        return frames
    keep = (ts >= t_start) & (ts < t_end)
    idx = (ts[keep] - t_start) // window_us
    counts = np.zeros((n_frames, height, width), dtype=np.int64)
    np.add.at(counts, (idx, ys[keep], xs[keep]), ps[keep])
    np.clip(counts, -saturation, saturation, out=counts)
    return [counts[k] / saturation for k in range(n_frames)]


def make_windows(
    frames: list[np.ndarray], window_len: int, stride: int = 1
) -> list[FrameSequence]:
    """Sliding windows over one recording's frames; short recordings yield none."""
    if window_len < 1:
        raise ValueError(f"window length must be >= 1, got {window_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    sequences = []
    for start in range(0, len(frames) - window_len + 1, stride):
        sequences.append(FrameSequence(np.stack(frames[start : start + window_len])))
    return sequences


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

def save_dataset_npy(path, train: list[LabeledSample], valid: list[LabeledSample]) -> None:
    """Persist a dataset as four ``.npy`` arrays under a directory.

    Plain ``.npy`` (not zipped archives) keeps the bytes a pure function
    of the data, so regenerating with the same seed reproduces the files
    exactly.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for name, samples in (("train", train), ("valid", valid)):
        if not samples:
            raise ValueError(f"{name} split is empty")
        np.save(root / f"{name}_inputs.npy", np.stack([s.input.frames for s in samples]))
        np.save(root / f"{name}_labels.npy", np.array([s.label for s in samples], dtype=np.int64))


def load_dataset_npy(path) -> tuple[list[LabeledSample], list[LabeledSample]]:
    root = Path(path)
    splits = []
    for name in ("train", "valid"):
        inputs_path = root / f"{name}_inputs.npy"
        labels_path = root / f"{name}_labels.npy"
        if not inputs_path.exists() or not labels_path.exists():
            raise FormatError(f"missing {name} arrays under {root}")
        inputs = np.load(inputs_path)
        labels = np.load(labels_path)
        if inputs.shape[0] != labels.shape[0]:
            raise FormatError(
                f"{name}: {inputs.shape[0]} inputs but {labels.shape[0]} labels"
            )
        splits.append(
            [LabeledSample(FrameSequence(x), int(y)) for x, y in zip(inputs, labels)]
        )
    return splits[0], splits[1]


def load_event_dataset(
    root,
    window_us: int = 1000,
    frames_per_window: int = 5,
    stride: int = 1,
    saturation: int = 2,
    sensor: tuple[int, int] | None = None,
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Load an event-recording dataset laid out as ``root/{train,valid}/``.

    Each recording file is named ``<label>_<anything>.evt`` (or ``.csv``)
    with the class index before the first underscore. Recordings are
    accumulated into ``window_us`` frames and cut into sliding
    ``frames_per_window`` sequences that never span recordings.
    """
    root = Path(root)
    splits = []
    for split in ("train", "valid"):
        split_dir = root / split
        if not split_dir.is_dir():
            raise FormatError(f"missing dataset directory {split_dir}")
        samples: list[LabeledSample] = []
        paths = sorted(
            p for p in split_dir.iterdir() if p.suffix in (".evt", ".csv")
        )
        if not paths:
            raise FormatError(f"no .evt or .csv recordings under {split_dir}")
        for rec_path in paths:
            stem = rec_path.name.split("_", 1)[0]
            try:
                label = int(stem)
            except ValueError:
                raise FormatError(
                    f"{rec_path.name}: expected '<classindex>_<id>{rec_path.suffix}'"
                ) from None
            events, width, height = load_events(rec_path)
            if sensor is not None:
                width, height = sensor
            frames = accumulate_events(
                events, window_us, (width, height), saturation=saturation
            )
            for seq in make_windows(frames, frames_per_window, stride):
                samples.append(LabeledSample(seq, label))
        splits.append(samples)
    return splits[0], splits[1]


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------

def _draw_templates(rng: np.random.Generator, spec: SyntheticSpec) -> list[np.ndarray]:
    shape = (spec.frames, spec.height, spec.width)
    templates = []
    for _ in range(spec.n_classes):
        active = rng.random(shape) < spec.density
        counts = rng.integers(1, spec.saturation + 1, size=shape)
        signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        templates.append(active * signs * counts / spec.saturation)
    return templates


def generate_synthetic(
    seed: int, spec: SyntheticSpec | None = None
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Deterministic class-template-plus-noise sequences with event-frame statistics.

    Each class gets a fixed sparse signed template over (frames, H, W);
    samples perturb it with seeded event noise and are clamped to the
    saturated range, mirroring what 1 ms event accumulation produces.
    """
    spec = spec if spec is not None else SyntheticSpec()
    rng = np.random.default_rng(seed)
    shape = (spec.frames, spec.height, spec.width)
    templates = _draw_templates(rng, spec)

    def draw(label: int) -> LabeledSample:
        noise_hits = rng.random(shape) < spec.noise
        noise = noise_hits * np.where(rng.random(shape) < 0.5, -1.0, 1.0) / spec.saturation
        values = np.clip(templates[label] + noise, -1.0, 1.0)
        return LabeledSample(FrameSequence(values), label)

    train = [draw(c) for c in range(spec.n_classes) for _ in range(spec.train_per_class)]
    valid = [draw(c) for c in range(spec.n_classes) for _ in range(spec.valid_per_class)]
    return train, valid


def synthetic_templates(seed: int, spec: SyntheticSpec | None = None) -> np.ndarray:
    """The class templates behind :func:`generate_synthetic`, flattened per class."""
    spec = spec if spec is not None else SyntheticSpec()
    templates = _draw_templates(np.random.default_rng(seed), spec)
    return np.stack([t.reshape(-1) for t in templates])


def generate_sparse_vectors(
    seed: int,
    n_elements: int,
    dim: int,
    n_samples: int,
    n_active: int = 3,
    amplitude: tuple[float, float] = (0.5, 1.5),
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth recovery fixture: unit-norm generators and k-sparse mixtures.

    Returns (generators (n_elements, dim), samples (n_samples, dim)) where
    each sample is a nonnegative combination of ``n_active`` generators.
    """
    if n_active > n_elements:
        raise ValueError(f"cannot pick {n_active} of {n_elements} generators")
    rng = np.random.default_rng(seed)
    generators = rng.normal(size=(n_elements, dim))
    generators /= np.linalg.norm(generators, axis=1, keepdims=True)
    samples = np.zeros((n_samples, dim))
    for i in range(n_samples):
        which = rng.choice(n_elements, size=n_active, replace=False)
        amps = rng.uniform(amplitude[0], amplitude[1], size=n_active)
        samples[i] = amps @ generators[which]
    return generators, samples
