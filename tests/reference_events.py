"""Frozen reference: event ingestion as one ``EventRecord`` per event.

These are ``EventRecord``, ``load_events``, ``_load_events_csv`` and
``accumulate_events`` as they stood before ingestion moved to one structured
array. They are kept verbatim so the differential tests can require the
array path to build the same frames and raise the same ``FormatError``
messages. Do not edit them to follow later changes to ``lcalearn.data``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lcalearn.errors import FormatError

EVENT_MAGIC = b"EVT1"
EVENT_VERSION = 1

_EVENT_FILE_HEADER = struct.Struct("<4sIHH")  # magic, version, width, height
_EVENT_RECORD = struct.Struct("<IHHb")        # t_us, x, y, polarity


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
