"""Figure rendering to dependency-free portable image files.

Dictionaries and reconstruction strips are written as binary PGM
(grayscale, ``P5``) or PPM (color, ``P6``) with maxval 255. Rendering
is a pure function of its inputs, so identical data produces
byte-identical files; convert to PNG externally if needed
(``pnmtopng`` or any image tool).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from lcalearn.dictionary import Dictionary

MID_GRAY = 128

NORMALIZATION_MODES = ("per-tile", "global")


def write_pgm(path, image: np.ndarray) -> None:
    """Write a (H, W) uint8 array as binary PGM (P5, maxval 255)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError(f"PGM needs a 2-d array, got shape {image.shape}")
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def write_ppm(path, image: np.ndarray) -> None:
    """Write a (H, W, 3) uint8 array as binary PPM (P6, maxval 255)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"PPM needs a (H, W, 3) array, got shape {image.shape}")
    height, width = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def write_image(path, image: np.ndarray) -> None:
    """Dispatch to PGM or PPM on channel count; path extension is the caller's."""
    if image.ndim == 2 or (image.ndim == 3 and image.shape[2] == 1):
        write_pgm(path, image.reshape(image.shape[0], image.shape[1]))
    else:
        write_ppm(path, image)


def _scale_tile(tile: np.ndarray, scale: float) -> np.ndarray:
    if scale == 0:
        return np.full(tile.shape, MID_GRAY, dtype=np.uint8)
    pixels = np.round(MID_GRAY + 127.0 * tile / scale)
    return np.clip(pixels, 0, 255).astype(np.uint8)


@dataclass
class ImageGrid:
    """Tiles arranged rows x cols with symmetric mid-gray normalization.

    Tiles are float (H, W) or (H, W, C) arrays sharing one shape. Mode
    ``per-tile`` scales each tile by its own max absolute value so zero
    maps to exact mid-gray per tile; ``global`` shares one scale across
    all tiles so values are comparable between them.
    """

    tiles: list[np.ndarray]
    rows: int
    cols: int
    normalization: str = "per-tile"
    pad: int = 1
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.tiles:
            raise ValueError("grid needs at least one tile")
        if self.rows * self.cols < len(self.tiles):
            raise ValueError(
                f"{self.rows}x{self.cols} layout cannot hold {len(self.tiles)} tiles"
            )
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization mode {self.normalization!r}")
        if self.pad < 0:
            raise ValueError(f"pad must be >= 0, got {self.pad}")
        shapes = {t.shape for t in self.tiles}
        if len(shapes) != 1:
            raise ValueError(f"tiles disagree on shape: {sorted(shapes)}")

    def render(self) -> np.ndarray:
        """Full grid as uint8; dims rows*(tile_h+pad) x cols*(tile_w+pad)."""
        tile_shape = self.tiles[0].shape
        tile_h, tile_w = tile_shape[:2]
        channels = tile_shape[2] if len(tile_shape) == 3 else 1
        height = self.rows * (tile_h + self.pad)
        width = self.cols * (tile_w + self.pad)
        canvas = np.full((height, width, channels), MID_GRAY, dtype=np.uint8)
        global_scale = max(float(np.abs(t).max()) for t in self.tiles)
        for index, tile in enumerate(self.tiles):
            row, col = divmod(index, self.cols)
            scale = (
                float(np.abs(tile).max())
                if self.normalization == "per-tile"
                else global_scale
            )
            pixels = _scale_tile(np.asarray(tile, dtype=np.float64), scale)
            pixels = pixels.reshape(tile_h, tile_w, channels)
            top = row * (tile_h + self.pad)
            left = col * (tile_w + self.pad)
            canvas[top : top + tile_h, left : left + tile_w] = pixels
        if channels == 1:
            return canvas[:, :, 0]
        return canvas

    def save(self, path) -> None:
        write_image(path, self.render())


def _element_tile(element: np.ndarray, dims) -> np.ndarray:
    """One dictionary row as an image: T frames concatenated left to right."""
    frames = element.reshape(dims.frames, dims.height, dims.width, dims.channels)
    tile = np.concatenate([frames[t] for t in range(dims.frames)], axis=1)
    if dims.channels == 1:
        return tile[:, :, 0]
    return tile


def render_dictionary_grid(
    dictionary: Dictionary,
    activity: np.ndarray | None = None,
    top_k: int | None = None,
    cols: int | None = None,
    pad: int = 1,
) -> ImageGrid:
    """Tile the most-active elements, ranked by cumulative activation counts.

    Without an activity ranking the grid falls back to index order and
    records a warning. Multi-frame elements render as one row of frames.
    """
    n = dictionary.element_count
    top_k = n if top_k is None else top_k
    if not 1 <= top_k <= n:
        raise ValueError(f"top_k must be in 1..{n}, got {top_k}")
    warnings = []
    if activity is None:
        order = np.arange(n)
        warnings.append("no activity ranking given; tiles are in index order")
    else:
        activity = np.asarray(activity)
        if activity.shape != (n,):
            raise ValueError(
                f"activity must have shape ({n},), got {activity.shape}"
            )
        order = np.argsort(-activity, kind="stable")
    tiles = [
        _element_tile(dictionary.elements[i], dictionary.dims)
        for i in order[:top_k]
    ]
    cols = math.ceil(math.sqrt(top_k)) if cols is None else cols
    rows = math.ceil(top_k / cols)
    return ImageGrid(tiles, rows, cols, normalization="per-tile", pad=pad, warnings=warnings)


def render_reconstruction_strip(
    originals: list[np.ndarray],
    reconstructions: list[np.ndarray],
    dims,
    pad: int = 1,
) -> ImageGrid:
    """Originals on the top row, reconstructions below, on one shared scale.

    Inputs are flattened vectors; ``dims`` says how to unflatten them.
    """
    if not originals:
        raise ValueError("need at least one sample")
    if len(originals) != len(reconstructions):
        raise ValueError(
            f"{len(originals)} originals vs {len(reconstructions)} reconstructions"
        )
    tiles = [_element_tile(np.asarray(v, dtype=np.float64), dims) for v in originals]
    tiles += [_element_tile(np.asarray(v, dtype=np.float64), dims) for v in reconstructions]
    return ImageGrid(tiles, rows=2, cols=len(originals), normalization="global", pad=pad)

