"""Dataset ingestion: CIFAR-style binaries, DVS event streams, synthetic fixtures.

Event streams use a canonical little-endian container (magic ``EVT1``) or
an equivalent CSV twin with the same field ranges; converting vendor
formats such as AEDAT into the canonical layout is left to an external
script (see README). Events travel as one ``EVENT_DTYPE`` structured array,
the EVT1 record layout itself, from the file to the (T, H, W) frames built
from them. Event frames hold signed values in [-1, 1]; image frames hold
[0, 1] per channel.

Each dataset kind of a config is one spec dataclass in ``DATASET_KINDS``
(``SyntheticSpec``, ``CifarSpec``, ``EventsSpec``, ``NpySpec``). Its fields
are the keys of its block, with their types and bounds; ``read_dataset``
reads a block into one, and its ``load`` returns the (train, valid) split.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lcalearn import atomic
from lcalearn.dictionary import InputDims
from lcalearn.errors import ConfigError, FormatError, check_fields, read_block

EVENT_MAGIC = b"EVT1"
EVENT_VERSION = 1

_EVENT_FILE_HEADER = struct.Struct("<4sIHH")  # magic, version, width, height

# One event as the EVT1 record lays it out: t_us, x, y, polarity.
EVENT_DTYPE = np.dtype([("t", "<u4"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
_FIELD_RANGES = [(0, 1 << 32), (0, 1 << 16), (0, 1 << 16), (-128, 128)]  # [low, high) per field
_FIELD_LOW, _FIELD_HIGH = np.array(_FIELD_RANGES).T

CIFAR_RECORD_BYTES = 1 + 3 * 32 * 32


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
    """Parameters of the event-like synthetic dataset used for desk-scale runs.

    ``seed`` None draws from the seed ``load`` is given, the run's.
    """

    n_classes: int = field(default=4, metadata={">=": 1})
    height: int = field(default=16, metadata={">=": 1})
    width: int = field(default=16, metadata={">=": 1})
    frames: int = field(default=5, metadata={">=": 1})
    density: float = field(default=0.18, metadata={">": 0})
    noise: float = field(default=0.02, metadata={">=": 0})
    train_per_class: int = field(default=12, metadata={">=": 0})
    valid_per_class: int = field(default=5, metadata={">=": 0})
    saturation: int = field(default=2, metadata={">=": 1})
    seed: int | None = field(default=None, metadata={">=": 0})

    def __post_init__(self):
        check_fields(self)
        if self.density > 1:
            raise ConfigError(f"density must be in (0, 1], got {self.density}")

    def load(self, seed: int = 0):
        return generate_synthetic(seed if self.seed is None else self.seed, self)


@dataclass
class CifarSpec:
    """CIFAR records at ``path``; the last ``valid_fraction`` of them (at least one) validate."""

    path: str
    crop: int = field(default=16, metadata={">=": 1})
    limit: int | None = field(default=None, metadata={">=": 1})
    valid_fraction: float = field(default=0.2, metadata={">=": 0})

    def __post_init__(self):
        check_fields(self)
        if self.crop > 32:
            raise ConfigError(f"crop must be in 1..32, got {self.crop}")
        if self.valid_fraction >= 1:
            raise ConfigError(f"valid_fraction must be in [0, 1), got {self.valid_fraction}")

    def load(self, seed: int = 0):
        samples = load_cifar(self.path, self.crop, self.limit)
        split = len(samples) - max(1, int(len(samples) * self.valid_fraction))
        return samples[:split], samples[split:]


@dataclass
class EventsSpec:
    """An event-recording directory at ``path``, as ``load_event_dataset`` reads it."""

    path: str
    window_us: int = field(default=1000, metadata={">=": 1})
    frames_per_window: int = field(default=5, metadata={">=": 1})
    stride: int = field(default=1, metadata={">=": 1})
    saturation: int = field(default=2, metadata={">=": 1})
    sensor_width: int | None = field(default=None, metadata={">=": 1})
    sensor_height: int | None = field(default=None, metadata={">=": 1})

    def __post_init__(self):
        check_fields(self)
        if (self.sensor_width is None) != (self.sensor_height is None):
            raise ConfigError("sensor_width and sensor_height must be given together")

    def load(self, seed: int = 0):
        sensor = None if self.sensor_width is None else (self.sensor_width, self.sensor_height)
        return load_event_dataset(self.path, self.window_us, self.frames_per_window,
                                  self.stride, self.saturation, sensor)


@dataclass
class NpySpec:
    """The four ``.npy`` arrays ``save_dataset_npy`` writes under ``path``."""

    path: str

    def load(self, seed: int = 0):
        return load_dataset_npy(self.path)


DATASET_KINDS = {"synthetic": SyntheticSpec, "cifar": CifarSpec, "events": EventsSpec,
                 "npy": NpySpec}


def read_dataset(raw):
    """The spec of a ``dataset`` block; its ``kind`` picks the class, a null value its default."""
    return read_block(DATASET_KINDS, raw, "dataset", nested=True, nulls=True)


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

def save_events(path, events, width: int, height: int) -> None:
    """Write the canonical EVT1 container; ``events`` converts to ``EVENT_DTYPE``."""
    header = _EVENT_FILE_HEADER.pack(EVENT_MAGIC, EVENT_VERSION, width, height)
    atomic.write_bytes(path, header + np.asarray(events, dtype=EVENT_DTYPE).tobytes())


def load_events(path) -> tuple[np.ndarray, int, int]:
    """Read events from the EVT1 binary container or its CSV twin.

    Returns (events, sensor_width, sensor_height), with ``events`` one
    ``EVENT_DTYPE`` array (for EVT1, a read-only view of the file's bytes);
    the CSV twin carries no sensor size, so width/height are inferred as
    max coordinate + 1.
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
    body = len(raw) - _EVENT_FILE_HEADER.size
    if body % EVENT_DTYPE.itemsize != 0:
        raise FormatError(f"{path}: truncated event record at byte {body}")
    events = np.frombuffer(raw, dtype=EVENT_DTYPE, offset=_EVENT_FILE_HEADER.size)
    _check_events(events, width, height, lambda i: f"{path}: record {i}")
    return events, width, height


_CSV_HEADER = "t_us,x,y,p\n"
_CSV_DIGITS = np.array([10, 5, 5, 3])  # most digits a field of each EVT1 type needs


def _csv_fields(text: str):
    """The (E, 4) int64 fields of a strictly well-formed CSV twin, or None.

    Well-formed: the header, then lines of four plain decimal fields (only
    ``p`` may carry a ``-``), each short enough for its EVT1 type, every line
    ending in a newline. The checks and the parse are whole-array operations.
    """
    if not text.startswith(_CSV_HEADER) or not text.isascii():
        return None
    body = text[len(_CSV_HEADER):]
    if body and not body.endswith("\n"):
        body += "\n"
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if len(ends) % 4 or (raw[ends].reshape(-1, 4) != np.frombuffer(b",,,\n", np.uint8)).any():
        return None
    starts = np.concatenate(([0], ends + 1))[: len(ends)]
    signed = raw[starts] == ord("-")
    digits = (ends - starts - signed).reshape(-1, 4)
    plain = (raw >= ord("0")) & (raw <= ord("9"))
    plain[ends] = True
    plain[starts[signed]] = True
    if (not plain.all() or signed.reshape(-1, 4)[:, :3].any()
            or (digits < 1).any() or (digits > _CSV_DIGITS).any()):
        return None
    return np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",").reshape(-1, 4)


def _load_events_csv(path) -> tuple[np.ndarray, int, int]:
    """Parse a CSV twin: a whole-file fast path for strictly well-formed files.

    Any other file, or a field outside its EVT1 range, goes through the
    line-by-line parser, which names the first bad line.
    """
    text = Path(path).read_text()
    fields = _csv_fields(text)
    if fields is not None and ((fields >= _FIELD_LOW) & (fields < _FIELD_HIGH)).all():
        events = np.empty(len(fields), dtype=EVENT_DTYPE)
        for k, name in enumerate(EVENT_DTYPE.names):
            events[name] = fields[:, k]
        return _csv_events(path, events, lambda i: i + 2)
    lines = text.splitlines()
    if not lines or lines[0].strip() != "t_us,x,y,p":
        raise FormatError(f"{path}: expected header 't_us,x,y,p'")
    rows, numbers = [], []
    try:
        for number, line in enumerate(lines[1:], start=2):
            if line.strip():
                rows.append(_csv_row(path, number, line))
                numbers.append(number)
    except FormatError:
        # an earlier line's error is reported first
        _csv_events(path, np.array(rows, dtype=EVENT_DTYPE), numbers.__getitem__)
        raise
    return _csv_events(path, np.array(rows, dtype=EVENT_DTYPE), numbers.__getitem__)


def _csv_row(path, number: int, line: str) -> tuple[int, int, int, int]:
    """The four integer fields of CSV line ``number``, each within its EVT1 range."""
    fields = line.split(",")
    if len(fields) != 4:
        raise FormatError(f"{path}: line {number} has {len(fields)} fields")
    try:
        row = tuple(map(int, fields))
    except ValueError as exc:
        raise FormatError(f"{path}: line {number}: {exc}") from exc
    # Compared as Python ints: casting an out-of-range value would wrap.
    for name, value, (low, high) in zip(EVENT_DTYPE.names, row, _FIELD_RANGES):
        if not low <= value < high:
            raise FormatError(f"{path}: line {number}: {name} {value} outside [{low}, {high})")
    return row


def _csv_events(path, events, line_of) -> tuple[np.ndarray, int, int]:
    """Check parsed CSV events; ``line_of(i)`` is event i's line number."""
    width = int(events["x"].max()) + 1 if len(events) else 0
    height = int(events["y"].max()) + 1 if len(events) else 0
    _check_events(events, width, height, lambda i: f"{path}: line {line_of(i)}")
    return events, width, height


def _check_events(events: np.ndarray, width: int, height: int, name) -> None:
    """Raise ``FormatError`` for the earliest bad event, at the first check it fails.

    The checks, in order: polarity is +1 or -1, the pixel lies on the
    ``width`` x ``height`` sensor, and time does not go backwards.
    ``name(i)`` names event ``i`` in the message.
    """
    t, x, y, p = (events[field] for field in EVENT_DTYPE.names)
    bad_polarity = (p != 1) & (p != -1)
    outside = (x >= width) | (y >= height)
    bad = bad_polarity | outside
    bad[1:] |= t[1:] < t[:-1]
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if bad_polarity[i]:
        raise FormatError(f"{name(i)} has polarity {p[i]}")
    if outside[i]:
        raise FormatError(f"{name(i)} at ({x[i]}, {y[i]}) outside {width}x{height}")
    raise FormatError(f"{name(i)} timestamp {t[i]} goes backwards")


def accumulate_events(
    events,
    window_us: int,
    sensor: tuple[int, int],
    saturation: int = 2,
    *,
    t_start: int | None = None,
    t_end: int | None = None,
) -> np.ndarray:
    """Sum event polarities into consecutive time windows, clamped to [-1, 1].

    ``events`` is an ``EVENT_DTYPE`` array (or converts to one) on a
    ``sensor`` = (width, height) grid; returns (T, height, width) frames.
    Per pixel and window, the signed event count is clamped to
    [-saturation, +saturation] and divided by the saturation. Windows
    default to starting at the first event's window boundary and ending
    just past the last event.
    """
    if window_us < 1:
        raise ValueError(f"window must be >= 1 us, got {window_us}")
    if saturation < 1:
        raise ValueError(f"saturation must be >= 1, got {saturation}")
    width, height = sensor
    events = np.asarray(events, dtype=EVENT_DTYPE)
    _check_events(events, width, height, lambda i: f"record {i}")
    ts = events["t"].astype(np.int64)
    if len(ts):
        t_start = int(ts[0] // window_us) * window_us if t_start is None else t_start
        t_end = int(ts[-1]) + 1 if t_end is None else t_end
    elif t_start is None or t_end is None:
        return np.zeros((0, height, width))
    n_frames = max(0, -(-(t_end - t_start) // window_us))
    keep = (ts >= t_start) & (ts < t_end)
    cells = ((ts[keep] - t_start) // window_us * height + events["y"][keep]) * width
    cells += events["x"][keep]
    counts = np.bincount(cells, weights=events["p"][keep], minlength=n_frames * height * width)
    np.clip(counts, -saturation, saturation, out=counts)
    return (counts / saturation).reshape(n_frames, height, width)


def recording_frames(
    path, window_us: int, saturation: int = 2, *,
    width: int | None = None, height: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Load one recording and accumulate it into (T, H, W) frames.

    The frames cover the file's sensor, or ``width`` x ``height`` where
    given. Returns (events, frames); an event off that sensor raises
    ``FormatError`` naming the file and the record.
    """
    events, file_width, file_height = load_events(path)
    sensor = (file_width if width is None else width, file_height if height is None else height)
    try:
        frames = accumulate_events(events, window_us, sensor, saturation=saturation)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return events, frames


def make_windows(frames: np.ndarray, window_len: int, stride: int = 1) -> list[FrameSequence]:
    """Sliding-window views of one recording's (T, H, W) frames; short recordings yield none."""
    if window_len < 1:
        raise ValueError(f"window length must be >= 1, got {window_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return [
        FrameSequence(frames[start : start + window_len])
        for start in range(0, len(frames) - window_len + 1, stride)
    ]


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

def save_dataset_npy(path, train: list[LabeledSample], valid: list[LabeledSample]) -> None:
    """Persist a dataset as four ``.npy`` arrays under a directory.

    Plain ``.npy`` (not zipped archives) keeps the bytes a pure function
    of the data, so regenerating with the same seed reproduces the files
    exactly.
    """
    splits = (("train", train), ("valid", valid))
    for name, samples in splits:
        if not samples:
            raise ValueError(f"{name} split is empty")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for name, samples in splits:
        atomic.save_npy(
            root / f"{name}_inputs.npy", np.stack([s.input.frames for s in samples])
        )
        atomic.save_npy(
            root / f"{name}_labels.npy", np.array([s.label for s in samples], dtype=np.int64)
        )


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
        finite = np.isfinite(inputs)
        if not finite.all():
            bad = int(np.flatnonzero(~finite.reshape(len(inputs), -1).all(axis=1))[0])
            raise FormatError(f"{inputs_path}: sample {bad} has a non-finite value")
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
    width, height = sensor if sensor is not None else (None, None)
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
            _, frames = recording_frames(
                rec_path, window_us, saturation, width=width, height=height
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
