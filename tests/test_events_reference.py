"""Array-native event ingestion against the frozen per-record reference.

``reference_events`` holds ``load_events`` and ``accumulate_events`` as they
were when every event was an ``EventRecord``. Loaded events must equal the
reference records field for field, frames must match byte for byte, and a
corrupted file must raise the same ``FormatError`` message.
"""

import struct

import numpy as np
import pytest

from lcalearn.data import EVENT_DTYPE, accumulate_events, load_events, save_events
from lcalearn.errors import FormatError

import reference_events as ref

HEADER = struct.Struct("<4sIHH")
RECORD = struct.Struct("<IHHb")


def recording(seed, n=400, width=7, height=5, span=4000):
    """Sorted seeded events: few distinct times, so timestamps tie often."""
    rng = np.random.default_rng(seed)
    events = np.zeros(n, dtype=EVENT_DTYPE)
    events["t"] = np.sort(rng.integers(0, span, size=n) // 7 * 7)
    events["x"] = rng.integers(0, width, size=n)
    events["y"] = rng.integers(0, height, size=n)
    events["p"] = rng.choice([-1, 1], size=n)
    return events


def write_evt(path, rows, width, height):
    path.write_bytes(HEADER.pack(b"EVT1", 1, width, height)
                     + b"".join(RECORD.pack(*row) for row in rows))


def write_csv(path, rows, blank_every=0):
    lines = ["t_us,x,y,p"]
    for k, row in enumerate(rows):
        if blank_every and k % blank_every == 0:
            lines.append("   " if k % 2 else "")
        lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def reference_rows(records):
    return [(e.t, e.x, e.y, e.polarity) for e in records]


def reference_frames(frames, sensor):
    width, height = sensor
    return np.stack(frames) if frames else np.zeros((0, height, width))


def assert_same_error(path):
    with pytest.raises(FormatError) as expected:
        ref.load_events(path)
    with pytest.raises(FormatError) as actual:
        load_events(path)
    assert str(actual.value) == str(expected.value)
    return str(actual.value)


def assert_same_outcome(path):
    """Both loaders give the same events, or both raise the same message."""
    try:
        records, *sensor = ref.load_events(path)
    except FormatError:
        assert_same_error(path)
        return
    events, *loaded_sensor = load_events(path)
    assert events.tolist() == reference_rows(records) and loaded_sensor == sensor


class TestLoadAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("suffix", [".evt", ".csv"])
    def test_same_events_and_sensor(self, tmp_path, seed, suffix):
        events = recording(seed)
        path = tmp_path / f"r{suffix}"
        if suffix == ".evt":
            save_events(path, events, width=9, height=6)
        else:
            write_csv(path, events.tolist(), blank_every=13)
        loaded, width, height = load_events(path)
        records, ref_width, ref_height = ref.load_events(path)
        assert loaded.dtype == EVENT_DTYPE
        assert loaded.tolist() == reference_rows(records)
        assert (width, height) == (ref_width, ref_height)

    @pytest.mark.parametrize("suffix", [".evt", ".csv"])
    def test_empty_recording(self, tmp_path, suffix):
        path = tmp_path / f"r{suffix}"
        if suffix == ".evt":
            save_events(path, [], width=3, height=2)
        else:
            write_csv(path, [])
        loaded, width, height = load_events(path)
        records, ref_width, ref_height = ref.load_events(path)
        assert len(loaded) == len(records) == 0
        assert (width, height) == (ref_width, ref_height)

    def test_saved_bytes_are_the_reference_layout(self, tmp_path):
        events = recording(9)
        save_events(tmp_path / "r.evt", events, width=7, height=5)
        expected = HEADER.pack(b"EVT1", 1, 7, 5) + b"".join(
            RECORD.pack(*row) for row in events.tolist()
        )
        assert (tmp_path / "r.evt").read_bytes() == expected


class TestFramesAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("window_us, saturation", [(1000, 2), (250, 1), (37, 3), (5000, 1000)])
    def test_default_time_range(self, tmp_path, seed, window_us, saturation):
        events = recording(seed)
        save_events(tmp_path / "r.evt", events, width=7, height=5)
        records, width, height = ref.load_events(tmp_path / "r.evt")
        expected = reference_frames(
            ref.accumulate_events(records, window_us, (width, height), saturation), (width, height)
        )
        frames = accumulate_events(events, window_us, (width, height), saturation)
        assert frames.shape == expected.shape
        assert frames.tobytes() == expected.tobytes()

    def test_saturation_one_clamps(self):
        events = recording(5, n=2000, width=3, height=2)
        records = [ref.EventRecord(*row) for row in events.tolist()]
        expected = np.stack(ref.accumulate_events(records, 4000, (3, 2), 1))
        frames = accumulate_events(events, 4000, (3, 2), 1)
        assert np.abs(accumulate_events(events, 4000, (3, 2), 1000)).max() * 1000 > 1
        assert frames.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t_start, t_end", [
        (0, 4000), (-3000, 2000), (1234, 3001), (500, 500), (3000, 1000), (5000, 9000),
    ])
    def test_explicit_time_range(self, t_start, t_end):
        events = recording(2)
        records = [ref.EventRecord(*row) for row in events.tolist()]
        expected = reference_frames(
            ref.accumulate_events(records, 700, (7, 5), 2, t_start=t_start, t_end=t_end), (7, 5)
        )
        frames = accumulate_events(events, 700, (7, 5), 2, t_start=t_start, t_end=t_end)
        assert frames.shape == expected.shape
        assert frames.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t_start, t_end", [(None, None), (0, 3000), (100, 100)])
    def test_no_events(self, t_start, t_end):
        expected = reference_frames(
            ref.accumulate_events([], 1000, (4, 3), t_start=t_start, t_end=t_end), (4, 3)
        )
        frames = accumulate_events([], 1000, (4, 3), t_start=t_start, t_end=t_end)
        assert frames.shape == expected.shape
        assert frames.tobytes() == expected.tobytes()

    def test_csv_twin_gives_the_same_frames(self, tmp_path):
        events = recording(3)
        write_csv(tmp_path / "r.csv", events.tolist(), blank_every=5)
        loaded, width, height = load_events(tmp_path / "r.csv")
        records, _, _ = ref.load_events(tmp_path / "r.csv")
        expected = np.stack(ref.accumulate_events(records, 400, (width, height)))
        assert accumulate_events(loaded, 400, (width, height)).tobytes() == expected.tobytes()


def corrupt(rows, k, row):
    rows = list(rows)
    rows[k] = row
    return rows


class TestErrorsAgainstReference:
    ROWS = recording(1, n=30, width=4, height=4).tolist()

    @pytest.mark.parametrize("k, row", [
        (0, (0, 0, 0, 0)),
        (17, (None, 1, 1, 2)),
        (29, (None, 1, 1, -5)),
        (4, (None, 4, 0, 1)),
        (11, (None, 0, 4, 1)),
        (12, (None, 9, 9, 0)),
        (8, (0, 1, 1, 1)),
        (20, (0, 9, 0, 0)),
    ], ids=["polarity-first", "polarity-2", "polarity-last", "x-outside", "y-outside",
            "polarity-and-outside", "backwards", "all-three"])
    def test_bad_record(self, tmp_path, k, row):
        t = self.ROWS[k][0] if row[0] is None else row[0]
        rows = corrupt(self.ROWS, k, (t, *row[1:]))
        write_evt(tmp_path / "r.evt", rows, 4, 4)
        assert f"record {k} " in assert_same_error(tmp_path / "r.evt")
        write_csv(tmp_path / "r.csv", rows, blank_every=6)  # infers its sensor from the events
        assert_same_outcome(tmp_path / "r.csv")

    def test_earliest_bad_record_wins(self, tmp_path):
        rows = corrupt(corrupt(self.ROWS, 20, (self.ROWS[20][0], 0, 0, 0)), 9, (0, 1, 1, 1))
        write_evt(tmp_path / "r.evt", rows, 4, 4)
        assert "record 9 timestamp 0" in assert_same_error(tmp_path / "r.evt")
        write_csv(tmp_path / "r.csv", rows)
        assert "line 11 timestamp 0" in assert_same_error(tmp_path / "r.csv")

    @pytest.mark.parametrize("cut", [1, 8, 9 * 5 + 4])
    def test_truncated_body(self, tmp_path, cut):
        write_evt(tmp_path / "r.evt", self.ROWS, 4, 4)
        raw = (tmp_path / "r.evt").read_bytes()
        (tmp_path / "r.evt").write_bytes(raw[:-cut])
        assert "truncated" in assert_same_error(tmp_path / "r.evt")

    @pytest.mark.parametrize("raw", [
        b"EVT1\x01", HEADER.pack(b"EVTX", 1, 4, 4), HEADER.pack(b"EVT1", 2, 4, 4),
    ], ids=["short-header", "magic", "version"])
    def test_bad_header(self, tmp_path, raw):
        (tmp_path / "r.evt").write_bytes(raw)
        assert_same_error(tmp_path / "r.evt")

    @pytest.mark.parametrize("bad_line", [
        "1,2,3", "1,2,3,1,5", "", "10,a,0,1", "10,0,0,+-1", "1.5,0,0,1",
    ], ids=["three-fields", "five-fields", "empty-field", "letter", "sign", "float"])
    @pytest.mark.parametrize("k", [0, 14])
    def test_bad_csv_line(self, tmp_path, bad_line, k):
        path = tmp_path / "r.csv"
        write_csv(path, self.ROWS, blank_every=4)
        lines = path.read_text().splitlines()
        lines.insert(k + 1, bad_line or ",,,")
        path.write_text("\n".join(lines) + "\n")
        assert f"line {k + 2}" in assert_same_error(path)

    def test_csv_parse_error_after_bad_polarity(self, tmp_path):
        """A malformed later line does not hide an earlier line's bad polarity."""
        path = tmp_path / "r.csv"
        write_csv(path, corrupt(self.ROWS, 3, (self.ROWS[3][0], 0, 0, 0)) + [(9999, "x", 0, 1)])
        assert "line 5 has polarity 0" in assert_same_error(path)

    @pytest.mark.parametrize("text", ["", "t,x,y,p\n1,0,0,1\n", "1,0,0,1\n"])
    def test_bad_csv_header(self, tmp_path, text):
        (tmp_path / "r.csv").write_text(text)
        assert_same_error(tmp_path / "r.csv")
