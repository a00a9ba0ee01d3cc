"""File formats, event accumulation, windowing, synthetic generation."""

import struct

import numpy as np
import pytest

from lcalearn import data as data_mod
from lcalearn.data import (
    FrameSequence,
    SyntheticSpec,
    _draw_templates,
    accumulate_events,
    generate_sparse_vectors,
    generate_synthetic,
    load_cifar,
    load_dataset_npy,
    load_event_dataset,
    load_events,
    make_windows,
    save_dataset_npy,
    save_events,
)
from lcalearn.errors import FormatError


def write_cifar(path, records):
    """records: list of (label, 3072 pixel bytes)."""
    with open(path, "wb") as fh:
        for label, pixels in records:
            fh.write(bytes([label]) + bytes(pixels))


def ramp_pixels():
    """3072 deterministic bytes with distinct plane patterns."""
    return [(7 * i + 3) % 256 for i in range(3072)]


class TestFrameSequence:
    def test_flattening_order_is_frame_row_channel(self):
        """flattened[((t*H + h)*W + w)*C + c] == frames[t, h, w, c]."""
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(3, 4, 5, 2))
        seq = FrameSequence(frames)
        flat = seq.flattened
        for t, h, w, c in [(0, 0, 0, 0), (1, 2, 3, 1), (2, 3, 4, 0), (0, 1, 4, 1)]:
            index = ((t * 4 + h) * 5 + w) * 2 + c
            assert flat[index] == frames[t, h, w, c]

    def test_grayscale_promoted_to_channel_axis(self):
        seq = FrameSequence(np.zeros((2, 3, 3)))
        assert seq.frames.shape == (2, 3, 3, 1)
        assert seq.dims.size == 18

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            FrameSequence(np.zeros((3, 3)))


class TestLoadCifar:
    def test_exact_pixel_values(self, tmp_path):
        pixels = ramp_pixels()
        path = tmp_path / "batch.bin"
        write_cifar(path, [(3, pixels)])
        samples = load_cifar(path, crop=32)
        assert len(samples) == 1
        assert samples[0].label == 3
        frames = samples[0].input.frames  # (1, 32, 32, 3)
        assert frames.shape == (1, 32, 32, 3)
        # planar layout: red plane first, row-major inside a plane
        assert frames[0, 0, 0, 0] == pixels[0] / 255.0
        assert frames[0, 0, 1, 0] == pixels[1] / 255.0
        assert frames[0, 1, 0, 0] == pixels[32] / 255.0
        assert frames[0, 0, 0, 1] == pixels[1024] / 255.0
        assert frames[0, 0, 0, 2] == pixels[2048] / 255.0

    def test_center_crop_offsets(self, tmp_path):
        pixels = ramp_pixels()
        path = tmp_path / "batch.bin"
        write_cifar(path, [(0, pixels)])
        full = load_cifar(path, crop=32)[0].input.frames
        cropped = load_cifar(path, crop=16)[0].input.frames
        assert cropped.shape == (1, 16, 16, 3)
        np.testing.assert_array_equal(cropped[0], full[0, 8:24, 8:24])

    def test_multiple_records_and_limit(self, tmp_path):
        pixels = ramp_pixels()
        path = tmp_path / "batch.bin"
        write_cifar(path, [(0, pixels), (1, pixels), (2, pixels)])
        assert [s.label for s in load_cifar(path)] == [0, 1, 2]
        assert [s.label for s in load_cifar(path, limit=2)] == [0, 1]

    def test_truncated_record_names_index(self, tmp_path):
        pixels = ramp_pixels()
        path = tmp_path / "batch.bin"
        with open(path, "wb") as fh:
            fh.write(bytes([0]) + bytes(pixels))
            fh.write(bytes([1]) + bytes(pixels[:100]))
        with pytest.raises(FormatError, match="record 1"):
            load_cifar(path)

    def test_values_in_unit_range(self, tmp_path):
        path = tmp_path / "batch.bin"
        write_cifar(path, [(0, [255] * 3072)])
        frames = load_cifar(path)[0].input.frames
        assert frames.max() == 1.0 and frames.min() == 1.0


class TestEventFiles:
    def events(self):
        return [
            (10, 0, 0, 1),
            (20, 3, 1, -1),
            (20, 2, 2, 1),
            (900, 4, 4, -1),
        ]

    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "r.evt"
        save_events(path, self.events(), width=5, height=5)
        loaded, width, height = load_events(path)
        assert (width, height) == (5, 5)
        assert loaded.tolist() == self.events()

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("t_us,x,y,p\n10,0,0,1\n20,3,1,-1\n")
        loaded, width, height = load_events(path)
        assert loaded.tolist() == [(10, 0, 0, 1), (20, 3, 1, -1)]
        assert width >= 4 and height >= 2

    @pytest.mark.parametrize("body", [
        "10,0,0,1\n20,3,1,-1\n20,2,2,1\n",
        "10,0,0,1\n20,3,1,-1",  # no final newline
        "",
        "0000000010,00000,0,-001\n",
        "10,0,0,1\n\n20,3,1,-1\n",  # blank line
        "10, 0,0,1\n",
        "+10,0,0,1\n",
        "10,0,-0,1\n",
        "10,0,0,-\n",
        "10,0,0,1-\n",
        "10,,0,1\n",
        "10,0,0\n",
        "10,0,0,1,5\n",
        "10,0,0,1\r\n20,1,1,1\r\n",
        "10,0,0,1\n5,0,0,1\n",
        "10,0,0,0\n",
        "10,99999,0,1\n",
        "99999999999,0,0,1\n",
        "10,0,0,\u0661\n",
    ], ids=["plain", "no-final-newline", "empty", "leading-zeros", "blank-line", "space",
            "plus", "signed-x", "bare-minus", "inner-minus", "empty-field", "three-fields",
            "five-fields", "crlf", "backwards", "zero-polarity", "x-range", "t-digits",
            "arabic-digit"])
    def test_csv_fast_path_matches_the_line_parser(self, tmp_path, monkeypatch, body):
        """Well-formed files parse as whole arrays; any other file gets the line parser's result."""
        path = tmp_path / "r.csv"
        path.write_text("t_us,x,y,p\n" + body, newline="")

        def load():
            try:
                events, width, height = load_events(path)
            except FormatError as exc:
                return str(exc)
            return events.tobytes(), events.dtype, width, height

        fast = load()
        monkeypatch.setattr(data_mod, "_csv_fields", lambda text: None)
        assert fast == load()

    def test_csv_fast_path_takes_well_formed_files(self):
        fields = data_mod._csv_fields("t_us,x,y,p\n10,0,0,1\n20,3,1,-1\n")
        assert fields.tolist() == [[10, 0, 0, 1], [20, 3, 1, -1]]
        assert data_mod._csv_fields("t_us,x,y,p\n10,0,0,1\n\n") is None

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "r.evt"
        save_events(path, self.events(), width=5, height=5)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"EVTX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_events(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "r.evt"
        save_events(path, self.events(), width=5, height=5)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_events(path)

    def test_nonmonotone_timestamps_rejected(self, tmp_path):
        path = tmp_path / "r.evt"
        header = struct.pack("<4sIHH", b"EVT1", 1, 5, 5)
        rec = struct.Struct("<IHHb")
        payload = rec.pack(50, 0, 0, 1) + rec.pack(10, 0, 0, 1)
        path.write_bytes(header + payload)
        with pytest.raises(FormatError, match="record 1 timestamp 10 goes backwards"):
            load_events(path)

    def test_zero_polarity_rejected(self, tmp_path):
        path = tmp_path / "r.evt"
        save_events(path, [(10, 0, 0, 1), (20, 1, 1, 0)], width=5, height=5)
        with pytest.raises(FormatError, match="r.evt: record 1 has polarity 0$"):
            load_events(path)

    @pytest.mark.parametrize("row, message", [
        ("20,-3,0,1", "x -3 outside [0, 65536)"),
        ("20,70000,0,1", "x 70000 outside [0, 65536)"),
        ("20,0,65538,1", "y 65538 outside [0, 65536)"),
        ("-1,0,0,1", "t -1 outside [0, 4294967296)"),
        ("4294967296,0,0,1", "t 4294967296 outside [0, 4294967296)"),
        ("20,0,0,255", "p 255 outside [-128, 128)"),
    ], ids=["negative-x", "x-70000", "y-wraps-to-2", "negative-t", "t-2-32", "p-wraps-to-minus-1"])
    def test_csv_field_outside_evt1_range_rejected(self, tmp_path, row, message):
        """Fields are compared before the cast to ``EVENT_DTYPE``, which would wrap them."""
        path = tmp_path / "r.csv"
        path.write_text(f"t_us,x,y,p\n10,0,0,1\n\n{row}\n")
        with pytest.raises(FormatError) as caught:
            load_events(path)
        assert str(caught.value) == f"{path}: line 4: {message}"

    def test_out_of_bounds_coordinates_rejected(self, tmp_path):
        path = tmp_path / "r.evt"
        header = struct.pack("<4sIHH", b"EVT1", 1, 2, 2)
        payload = struct.pack("<IHHb", 10, 5, 0, 1)
        path.write_bytes(header + payload)
        with pytest.raises(FormatError):
            load_events(path)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("10,0,0,1\n")
        with pytest.raises(FormatError):
            load_events(path)

    def test_save_is_deterministic(self, tmp_path):
        save_events(tmp_path / "a.evt", self.events(), width=5, height=5)
        save_events(tmp_path / "b.evt", self.events(), width=5, height=5)
        assert (tmp_path / "a.evt").read_bytes() == (tmp_path / "b.evt").read_bytes()


class TestAccumulateEvents:
    def test_no_events_gives_zero_frames(self):
        frames = accumulate_events([], 1000, (4, 4), t_start=0, t_end=2000)
        assert len(frames) == 2
        assert all(np.array_equal(f, np.zeros((4, 4))) for f in frames)

    def test_single_event_value(self):
        """One +1 event at x=3, y=5 with saturation 2 -> 0.5 at row 5, col 3."""
        frames = accumulate_events([(100, 3, 5, 1)], 1000, (8, 8), saturation=2)
        assert len(frames) == 1
        assert frames[0][5, 3] == 0.5
        assert np.count_nonzero(frames[0]) == 1

    def test_clamping(self):
        events = [(t, 1, 1, 1) for t in (10, 20, 30)]
        frames = accumulate_events(events, 1000, (4, 4), saturation=2)
        assert frames[0][1, 1] == 1.0

    def test_matches_naive_loop(self):
        """Vectorized accumulation equals the obvious per-event loop."""
        rng = np.random.default_rng(7)
        width, height, q = 6, 5, 2
        times = np.sort(rng.integers(0, 5000, size=300))
        events = [
            (
                int(t),
                int(rng.integers(0, width)),
                int(rng.integers(0, height)),
                int(rng.choice([-1, 1])),
            )
            for t in times
        ]
        frames = accumulate_events(events, 1000, (width, height), saturation=q)
        n_frames = len(frames)
        naive = np.zeros((n_frames, height, width))
        start = (events[0][0] // 1000) * 1000
        for t, x, y, polarity in events:
            k = (t - start) // 1000
            if 0 <= k < n_frames:
                naive[k, y, x] += polarity
        naive = np.clip(naive, -q, q) / q
        np.testing.assert_array_equal(np.stack(frames), naive)

    def test_count_conservation_without_clamping(self):
        """With a huge saturation, total positive mass equals the event count."""
        rng = np.random.default_rng(8)
        events = sorted(
            (
                (int(rng.integers(0, 3000)), int(rng.integers(0, 4)),
                 int(rng.integers(0, 4)), 1)
                for _ in range(120)
            ),
            key=lambda e: e[0],
        )
        q = 1000
        frames = accumulate_events(events, 1000, (4, 4), saturation=q)
        total = sum(float(np.abs(f).sum()) for f in frames) * q
        assert total == pytest.approx(120)

    def test_out_of_bounds_event_rejected(self):
        with pytest.raises(FormatError):
            accumulate_events([(0, 9, 0, 1)], 1000, (4, 4))

    def test_explicit_time_range(self):
        events = [(2500, 0, 0, 1)]
        frames = accumulate_events(events, 1000, (2, 2), t_start=0, t_end=4000)
        assert len(frames) == 4
        assert frames[2][0, 0] == 0.5


class TestMakeWindows:
    def test_exact_window(self):
        frames = [np.zeros((2, 2)) + i for i in range(5)]
        assert len(make_windows(frames, 5)) == 1

    def test_sliding_count(self):
        frames = [np.zeros((2, 2)) + i for i in range(7)]
        seqs = make_windows(frames, 5)
        assert len(seqs) == 3
        assert seqs[1].frames[0, 0, 0, 0] == 1.0

    def test_short_recording_gives_none(self):
        assert make_windows([np.zeros((2, 2))], 5) == []

    def test_stride(self):
        frames = [np.zeros((2, 2)) + i for i in range(9)]
        assert len(make_windows(frames, 5, stride=2)) == 3


def synthetic_templates(seed, spec=None):
    """The class templates behind ``generate_synthetic``, flattened per class."""
    spec = spec if spec is not None else SyntheticSpec()
    templates = _draw_templates(np.random.default_rng(seed), spec)
    return np.stack([t.reshape(-1) for t in templates])


class TestSynthetic:
    def test_deterministic(self):
        a_train, a_valid = generate_synthetic(3)
        b_train, b_valid = generate_synthetic(3)
        assert len(a_train) == len(b_train)
        for a, b in zip(a_train + a_valid, b_train + b_valid):
            assert a.label == b.label
            np.testing.assert_array_equal(a.input.frames, b.input.frames)

    def test_zero_noise_reproduces_templates(self):
        spec = SyntheticSpec(noise=0.0, train_per_class=2, valid_per_class=1)
        train, _ = generate_synthetic(5, spec)
        templates = synthetic_templates(5, spec)
        for sample in train:
            np.testing.assert_array_equal(
                sample.input.flattened, templates[sample.label]
            )

    def test_templates_weakly_correlated(self):
        templates = synthetic_templates(0)
        n = templates.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                cos = templates[i] @ templates[j] / (
                    np.linalg.norm(templates[i]) * np.linalg.norm(templates[j])
                )
                assert abs(cos) < 0.3

    def test_values_in_signed_unit_range(self):
        train, valid = generate_synthetic(1)
        for sample in train + valid:
            assert sample.input.frames.max() <= 1.0
            assert sample.input.frames.min() >= -1.0

    def test_split_sizes(self):
        spec = SyntheticSpec(n_classes=3, train_per_class=4, valid_per_class=2)
        train, valid = generate_synthetic(0, spec)
        assert len(train) == 12 and len(valid) == 6
        assert sorted({s.label for s in train}) == [0, 1, 2]


class TestSparseVectors:
    def test_generators_unit_norm(self):
        generators, _ = generate_sparse_vectors(0, 30, 20, 10)
        np.testing.assert_allclose(np.linalg.norm(generators, axis=1), 1.0, atol=1e-12)

    def test_samples_are_sparse_nonneg_combinations(self):
        generators, samples = generate_sparse_vectors(1, 10, 8, 5, n_active=3)
        for x in samples:
            coeffs, *_ = np.linalg.lstsq(generators.T, x, rcond=None)
            # 10 > 8 makes lstsq underdetermined; verify reconstruction instead
            np.testing.assert_allclose(generators.T @ coeffs, x, atol=1e-9)

    def test_too_many_active_rejected(self):
        with pytest.raises(ValueError):
            generate_sparse_vectors(0, 3, 8, 5, n_active=4)


class TestDatasetNpy:
    def test_round_trip(self, tmp_path):
        train, valid = generate_synthetic(2, SyntheticSpec(train_per_class=2, valid_per_class=1))
        save_dataset_npy(tmp_path / "d", train, valid)
        loaded_train, loaded_valid = load_dataset_npy(tmp_path / "d")
        assert [s.label for s in loaded_train] == [s.label for s in train]
        for a, b in zip(loaded_train + loaded_valid, train + valid):
            np.testing.assert_array_equal(a.input.frames, b.input.frames)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_names_file_and_sample(self, tmp_path, bad):
        train, valid = generate_synthetic(2, SyntheticSpec(train_per_class=2, valid_per_class=1))
        save_dataset_npy(tmp_path / "d", train, valid)
        path = tmp_path / "d" / "valid_inputs.npy"
        inputs = np.load(path)
        inputs[2, 0, 1, 3] = bad
        inputs[3, 1, 0, 0] = bad
        np.save(path, inputs)
        with pytest.raises(FormatError, match=r"valid_inputs\.npy: sample 2 has a non-finite"):
            load_dataset_npy(tmp_path / "d")

    def test_saves_identically_twice(self, tmp_path):
        train, valid = generate_synthetic(2, SyntheticSpec(train_per_class=2, valid_per_class=1))
        save_dataset_npy(tmp_path / "a", train, valid)
        save_dataset_npy(tmp_path / "b", train, valid)
        for name in ("train_inputs.npy", "train_labels.npy", "valid_inputs.npy", "valid_labels.npy"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset_npy(tmp_path)


class TestEventDatasetDirectory:
    def build(self, root, frames_per_recording=7):
        for split, n_rec in (("train", 2), ("valid", 1)):
            (root / split).mkdir(parents=True)
            for label in (0, 1):
                for rec in range(n_rec):
                    events = [
                        (1000 * k + 10 * label, label, rec % 3, 1)
                        for k in range(frames_per_recording)
                    ]
                    save_events(
                        root / split / f"{label}_{rec}.evt", events, width=4, height=4
                    )

    def test_labels_and_window_counts(self, tmp_path):
        self.build(tmp_path)
        train, valid = load_event_dataset(tmp_path, window_us=1000, frames_per_window=5)
        # 7 frames -> 3 windows per recording; 2 recordings per label in train
        assert len(train) == 2 * 2 * 3
        assert len(valid) == 2 * 1 * 3
        assert sorted({s.label for s in train}) == [0, 1]
        assert train[0].input.frames.shape == (5, 4, 4, 1)

    def test_bad_filename_rejected(self, tmp_path):
        (tmp_path / "train").mkdir()
        (tmp_path / "valid").mkdir()
        save_events(tmp_path / "train" / "clubs_0.evt", [(0, 0, 0, 1)], 4, 4)
        save_events(tmp_path / "valid" / "0_0.evt", [(0, 0, 0, 1)], 4, 4)
        with pytest.raises(FormatError, match="clubs"):
            load_event_dataset(tmp_path)

    def test_missing_split_rejected(self, tmp_path):
        (tmp_path / "train").mkdir()
        save_events(tmp_path / "train" / "0_0.evt", [(0, 0, 0, 1)], 4, 4)
        with pytest.raises(FormatError, match="valid"):
            load_event_dataset(tmp_path)
