"""Portable image writing and figure layout."""

import numpy as np
import pytest

from lcalearn.dictionary import Dictionary, InputDims, init_random
from lcalearn.export import (
    ImageGrid,
    MID_GRAY,
    render_dictionary_grid,
    render_reconstruction_strip,
    write_image,
    write_pgm,
    write_ppm,
)


def read_pnm(path):
    """Parse the three-token header and return (magic, width, height, pixels)."""
    raw = path.read_bytes()
    parts = raw.split(b"\n", 3)
    magic = parts[0].decode()
    width, height = (int(v) for v in parts[1].split())
    assert parts[2] == b"255"
    return magic, width, height, parts[3]


class TestWriters:
    def test_pgm_header_and_payload(self, tmp_path):
        image = np.arange(6, dtype=np.uint8).reshape(2, 3)
        path = tmp_path / "a.pgm"
        write_pgm(path, image)
        magic, width, height, pixels = read_pnm(path)
        assert (magic, width, height) == ("P5", 3, 2)
        assert pixels == bytes(range(6))

    def test_ppm_header_and_payload(self, tmp_path):
        image = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        path = tmp_path / "a.ppm"
        write_ppm(path, image)
        magic, width, height, pixels = read_pnm(path)
        assert (magic, width, height) == ("P6", 2, 2)
        assert pixels == bytes(range(12))

    def test_deterministic_bytes(self, tmp_path):
        image = np.full((4, 4), 77, dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", image)
        write_pgm(tmp_path / "b.pgm", image)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_wrong_rank_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "a.pgm", np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "a.ppm", np.zeros((2, 2), dtype=np.uint8))

    def test_dispatch_on_channels(self, tmp_path):
        write_image(tmp_path / "g.pgm", np.zeros((2, 2), dtype=np.uint8))
        write_image(tmp_path / "c.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        assert (tmp_path / "g.pgm").read_bytes()[:2] == b"P5"
        assert (tmp_path / "c.ppm").read_bytes()[:2] == b"P6"


class TestImageGrid:
    def test_zero_tile_is_uniform_mid_gray(self):
        grid = ImageGrid([np.zeros((3, 3))], rows=1, cols=1, pad=0)
        np.testing.assert_array_equal(grid.render(), np.full((3, 3), MID_GRAY))

    def test_symmetric_mapping_centers_zero(self):
        tile = np.array([[-2.0, 0.0, 2.0]])
        grid = ImageGrid([tile], rows=1, cols=1, pad=0)
        np.testing.assert_array_equal(grid.render(), [[1, 128, 255]])

    def test_grid_dimension_formula(self):
        tiles = [np.zeros((5, 7)) for _ in range(6)]
        grid = ImageGrid(tiles, rows=2, cols=3, pad=1)
        assert grid.render().shape == (2 * (5 + 1), 3 * (7 + 1))

    def test_per_tile_scaling_is_independent(self):
        strong = np.full((1, 1), 4.0)
        weak = np.full((1, 1), 1.0)
        grid = ImageGrid([strong, weak], rows=1, cols=2, pad=0, normalization="per-tile")
        np.testing.assert_array_equal(grid.render(), [[255, 255]])

    def test_global_scaling_is_shared(self):
        strong = np.full((1, 1), 4.0)
        weak = np.full((1, 1), 1.0)
        grid = ImageGrid([strong, weak], rows=1, cols=2, pad=0, normalization="global")
        rendered = grid.render()
        assert rendered[0, 0] == 255
        assert rendered[0, 1] == MID_GRAY + round(127 / 4)

    def test_layout_too_small_rejected(self):
        with pytest.raises(ValueError):
            ImageGrid([np.zeros((2, 2))] * 5, rows=2, cols=2)

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValueError):
            ImageGrid([np.zeros((2, 2))], rows=1, cols=1, normalization="minmax")

    def test_color_tiles_render_to_three_channels(self):
        tiles = [np.ones((2, 2, 3))]
        grid = ImageGrid(tiles, rows=1, cols=1, pad=0)
        assert grid.render().shape == (2, 2, 3)


class TestDictionaryGrid:
    def test_single_most_active_element(self):
        d = init_random(0, 4, InputDims(3, 3))
        activity = np.array([1.0, 9.0, 2.0, 0.0])
        grid = render_dictionary_grid(d, activity=activity, top_k=1, pad=0)
        expected = ImageGrid(
            [d.elements[1].reshape(3, 3)], rows=1, cols=1, pad=0
        ).render()
        np.testing.assert_array_equal(grid.render(), expected)
        assert grid.warnings == []

    def test_activity_ranking_orders_tiles(self):
        elements = np.eye(3, 4)
        d = Dictionary(elements, InputDims(2, 2))
        activity = np.array([1.0, 3.0, 2.0])
        grid = render_dictionary_grid(d, activity=activity, cols=3, pad=0)
        top_left = grid.render()[0, 0]
        reference = ImageGrid([elements[1].reshape(2, 2)], 1, 1, pad=0).render()[0, 0]
        assert top_left == reference

    def test_missing_ranking_warns_and_uses_index_order(self):
        d = init_random(0, 4, InputDims(2, 2))
        grid = render_dictionary_grid(d)
        assert len(grid.warnings) == 1
        assert "index order" in grid.warnings[0]

    def test_multi_frame_elements_render_frames_side_by_side(self):
        d = init_random(0, 2, InputDims(2, 3, 1, 4))
        grid = render_dictionary_grid(d, top_k=1, pad=0)
        assert grid.render().shape == (2, 3 * 4)

    def test_256_elements_in_16x16_layout(self):
        d = init_random(0, 256, InputDims(4, 4))
        grid = render_dictionary_grid(d, cols=16, pad=1)
        assert grid.rows == 16 and grid.cols == 16
        assert grid.render().shape == (16 * 5, 16 * 5)

    def test_top_k_out_of_range_rejected(self):
        d = init_random(0, 4, InputDims(2, 2))
        with pytest.raises(ValueError):
            render_dictionary_grid(d, top_k=5)

    def test_activity_shape_checked(self):
        d = init_random(0, 4, InputDims(2, 2))
        with pytest.raises(ValueError):
            render_dictionary_grid(d, activity=np.ones(3))


class TestReconstructionStrip:
    def test_identical_rows_render_pixel_equal(self):
        rng = np.random.default_rng(0)
        dims = InputDims(3, 3)
        vectors = [rng.normal(size=9) for _ in range(4)]
        grid = render_reconstruction_strip(vectors, list(vectors), dims, pad=0)
        rendered = grid.render()
        np.testing.assert_array_equal(rendered[:3], rendered[3:])

    def test_two_row_layout(self):
        dims = InputDims(2, 2)
        originals = [np.ones(4)] * 5
        recons = [np.zeros(4)] * 5
        grid = render_reconstruction_strip(originals, recons, dims, pad=1)
        assert grid.rows == 2 and grid.cols == 5
        assert grid.render().shape == (2 * 3, 5 * 3)

    def test_count_mismatch_rejected(self):
        dims = InputDims(2, 2)
        with pytest.raises(ValueError):
            render_reconstruction_strip([np.ones(4)], [], dims)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_reconstruction_strip([], [], InputDims(2, 2))

    def test_save_round_trip(self, tmp_path):
        dims = InputDims(2, 2)
        grid = render_reconstruction_strip([np.ones(4)], [np.ones(4)], dims)
        grid.save(tmp_path / "strip.pgm")
        magic, *_ = read_pnm(tmp_path / "strip.pgm")
        assert magic == "P5"

