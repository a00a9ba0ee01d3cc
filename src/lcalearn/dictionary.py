"""Feature dictionary: initialization, linear operators, Hebbian learning, checkpoints.

The dictionary holds N unit-norm feature elements over a D-dimensional
(time-flattened) input space. ``synthesize`` and ``analyze`` are the
adjoint pair of linear maps used both by the inference dynamics and by
the learning rule.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lcalearn import atomic
from lcalearn.errors import FormatError, NumericError

CHECKPOINT_MAGIC = b"LCAD"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<4sIIIIII")  # magic, version, N, height, width, channels, frames


@dataclass(frozen=True)
class InputDims:
    """Shape of one input sample; the product is the flattened dimension D."""

    height: int
    width: int
    channels: int = 1
    frames: int = 1

    def __post_init__(self):
        for name in ("height", "width", "channels", "frames"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def size(self) -> int:
        return self.height * self.width * self.channels * self.frames


@dataclass
class Dictionary:
    """N feature elements of dimension D, each with unit L2 norm.

    ``elements`` has shape (N, D), row-major over elements. Treated as
    immutable: :func:`hebbian_update` returns a new instance. Training
    copies its dictionaries into a private stacked state that it updates
    in place with the same rule (``experiment``), and hands back copies.
    """

    elements: np.ndarray
    dims: InputDims

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=np.float64)
        if self.elements.ndim != 2:
            raise ValueError(f"elements must be 2-D, got shape {self.elements.shape}")
        n, d = self.elements.shape
        if n < 1 or d < 1:
            raise ValueError(f"dictionary must be at least 1x1, got {n}x{d}")
        if d != self.dims.size:
            raise ValueError(
                f"input dims {self.dims} flatten to {self.dims.size}, "
                f"but elements have dimension {d}"
            )

    @property
    def element_count(self) -> int:
        return self.elements.shape[0]

    @property
    def input_size(self) -> int:
        return self.elements.shape[1]


def init_random(seed: int, n: int, dims: InputDims) -> Dictionary:
    """Random unit-norm dictionary: i.i.d. normal(0, 0.01) entries, rows rescaled.

    Entries are rounded to float32 resolution once after normalization so
    a fresh dictionary survives a checkpoint round trip bit-exactly.
    """
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    elements = rng.normal(0.0, 0.1, size=(n, dims.size))
    norms = np.linalg.norm(elements, axis=1, keepdims=True)
    elements = (elements / norms).astype(np.float32).astype(np.float64)
    return Dictionary(elements, dims)


def synthesize(dictionary: Dictionary, code: np.ndarray) -> np.ndarray:
    """Linear reconstruction sum_i code[..., i] * element[i]; one row per code row."""
    code = np.asarray(code, dtype=np.float64)
    if code.shape[-1:] != (dictionary.element_count,):
        raise ValueError(
            f"code has shape {code.shape}, expected (..., {dictionary.element_count})"
        )
    return code @ dictionary.elements


def analyze(dictionary: Dictionary, residual: np.ndarray) -> np.ndarray:
    """Adjoint map: per-element inner products with each residual row."""
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape[-1:] != (dictionary.input_size,):
        raise ValueError(
            f"residual has shape {residual.shape}, expected (..., {dictionary.input_size})"
        )
    return residual @ dictionary.elements.T


def hebbian_update(
    dictionary: Dictionary,
    code: np.ndarray,
    residual: np.ndarray,
    learning_rate: float,
) -> Dictionary:
    """One learning step: element_i += lr * code[i] * residual, then renormalize.

    Only elements with a nonzero coefficient move; inactive rows are left
    bit-identical (they are already unit norm, and skipping the projection
    avoids rounding them).
    """
    code = np.asarray(code, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    if code.shape != (dictionary.element_count,):
        raise ValueError(
            f"code has shape {code.shape}, expected ({dictionary.element_count},)"
        )
    if residual.shape != (dictionary.input_size,):
        raise ValueError(
            f"residual has shape {residual.shape}, expected ({dictionary.input_size},)"
        )
    if learning_rate < 0:
        raise ValueError(f"learning rate must be >= 0, got {learning_rate}")
    elements = dictionary.elements.copy()
    _hebbian_step(elements, code, residual, learning_rate)
    return Dictionary(elements, dictionary.dims)


def _hebbian_step(elements, code, residual, learning_rate) -> np.ndarray:
    """Apply ``hebbian_update``'s rule to the (N, D) ``elements`` in place.

    Returns the indices of the rows it moved: those with a nonzero
    coefficient, none at a zero learning rate. Raises ``NumericError`` as
    ``hebbian_update`` does, before writing anything.
    """
    if not (np.isfinite(code).all() and np.isfinite(residual).all() and np.isfinite(learning_rate)):
        raise NumericError("non-finite code or residual in dictionary update")
    active = np.flatnonzero(code)
    if learning_rate == 0 or not active.size:
        return active[:0]
    moved = elements[active] + (learning_rate * code[active])[:, None] * residual[None, :]
    norms = np.linalg.norm(moved, axis=1, keepdims=True)
    if not np.isfinite(norms).all() or (norms == 0.0).any():
        raise NumericError("dictionary update produced a degenerate element")
    elements[active] = moved / norms
    return active


def save_checkpoint(dictionary: Dictionary, path) -> None:
    """Write the little-endian LCAD checkpoint (float32 payload, row-major)."""
    dims = dictionary.dims
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        dictionary.element_count,
        dims.height,
        dims.width,
        dims.channels,
        dims.frames,
    )
    payload = dictionary.elements.astype("<f4").tobytes()
    atomic.write_bytes(path, header + payload)


def load_checkpoint(path) -> Dictionary:
    """Read an LCAD checkpoint; payload widened back to float64."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, n, height, width, channels, frames = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    try:
        dims = InputDims(height, width, channels, frames)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if n < 1:
        raise FormatError(f"{path}: element count {n} in header")
    expected = n * dims.size * 4
    body = raw[_HEADER.size:]
    if len(body) != expected:
        raise FormatError(
            f"{path}: payload is {len(body)} bytes, header implies {expected}"
        )
    elements = np.frombuffer(body, dtype="<f4").reshape(n, dims.size).astype(np.float64)
    return Dictionary(elements, dims)
