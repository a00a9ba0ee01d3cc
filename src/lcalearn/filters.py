"""Temporal smoothing of latent codes: identity, exponential low-pass, boxcar average.

Filters average over individual spike events so that reconstructions,
dictionary updates, and classifier features see a rate-like code even in
the strongly spiking regime. All filters are linear, preserve
nonnegativity, and have unit DC gain.

A period reads the filtered code only on some steps: the last one, or
the last half for a half-period mean, unless it records every step. So
a filter is fed only from ``first_frame(first_read)``, the first frame
that a read at or after step ``first_read`` depends on, and ``step``
computes its output only on steps that are read. The outputs read keep
their bits.

Each filter is a config dataclass: its parameters are its fields, with
their rules in the field metadata, and ``dt`` is a field its owner sets.
So ``make_filter`` reads a ``filter`` block with ``errors.read_block``,
like every other block, and a filter built in code is checked by the same
``check_fields`` (a non-finite window or time constant is refused by
name). Filters compare and hash by identity, as each holds its own state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lcalearn.errors import ConfigError, check_fields, read_block


def _dt():
    """A filter's step in ms: its owner sets it, not the ``filter`` block."""
    return field(default=1.0, metadata={">": 0, "key": None})


def _at_least_dt(key: str, value: float, dt: float) -> None:
    """A window or time constant spans at least one step."""
    if value < dt:
        raise ConfigError(f"{key} must be >= dt ({dt} ms), got {value}")


class CodeFilter:
    """Stateful per-period smoother; feed one code vector per timestep.

    ``step`` may return a buffer of the filter's own, which the next step
    overwrites; with ``read`` false it may return None instead of an
    output. ``reset`` starts a new period. ``window_steps`` is the
    number of frames one output sums, for a caller that bounds that sum.
    """

    window_steps = 1

    def step(self, value: np.ndarray, read: bool = True) -> np.ndarray | None:
        raise NotImplementedError

    def reset(self, exact: bool = False, start: int = 0) -> None:
        """Forget every frame seen; the next frame is the period's step ``start``.

        ``exact`` promises that, until the next reset, every frame and every
        sum of ``window_steps`` frames is exact in float64.
        """
        raise NotImplementedError

    def first_frame(self, first_read: int) -> int:
        """The first step whose frame an output read at step ``first_read`` or later needs.

        0 unless the filter forgets old frames.
        """
        return 0


@dataclass(eq=False)
class IdentityFilter(CodeFilter):
    dt: float = _dt()

    def __post_init__(self):
        check_fields(self)

    def step(self, value: np.ndarray, read: bool = True) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)

    def reset(self, exact: bool = False, start: int = 0) -> None:
        pass

    def first_frame(self, first_read: int) -> int:
        return first_read


@dataclass(eq=False)
class ExponentialFilter(CodeFilter):
    """First-order low-pass: y += (dt / time_constant) * (value - y).

    Runs in place on two buffers allocated at the first step: the array
    ``step`` returns is the filter's state, overwritten by the next step.
    Every output depends on every frame, so it is fed from step 0 and
    steps its state on every frame, read or not.
    """

    time_constant_ms: float
    dt: float = _dt()

    def __post_init__(self):
        check_fields(self)
        _at_least_dt("time_constant_ms", self.time_constant_ms, self.dt)
        self.alpha = self.dt / self.time_constant_ms
        self._y: np.ndarray | None = None

    def step(self, value: np.ndarray, read: bool = True) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        if self._y is None:
            self._y, self._tmp = np.zeros_like(value), np.empty_like(value)
        tmp = np.subtract(value, self._y, out=self._tmp)
        tmp *= self.alpha
        self._y += tmp
        return self._y

    def reset(self, exact: bool = False, start: int = 0) -> None:
        self._y = None


@dataclass(eq=False)
class BoxcarFilter(CodeFilter):
    """Causal moving average over the last ceil(window/dt) frames.

    During warm-up the mean runs over the frames seen so far, which avoids
    the systematic underestimate zero-padding would give at period start.
    Frames live in a preallocated ring of ``window_steps`` rows, and each
    step sums the filled rows afresh: for arbitrary floats a running sum
    kept by subtraction would leave rounding residues where the window
    holds only zeros. After ``reset(exact=True)`` every frame and window
    sum is exact, so a running sum (add the entering frame, subtract the
    leaving one) has no residue and gives the ring sum's bits; the filter
    keeps one until the next reset.

    Frame k of a period (its absolute step) takes ring row ``k % W`` and an
    output at step k averages ``min(k + 1, W)`` frames, wherever feeding
    started. So a filter fed from ``first_frame(first_read)`` holds, at
    every step it is read, the rows (and the running sum) of one fed from
    step 0, and its outputs have the same bits. Only a read step divides.
    """

    window_ms: float
    dt: float = _dt()

    def __post_init__(self):
        check_fields(self)
        _at_least_dt("window_ms", self.window_ms, self.dt)
        self.window_steps = int(np.ceil(self.window_ms / self.dt))
        self.reset()

    def reset(self, exact: bool = False, start: int = 0) -> None:
        self._ring: np.ndarray | None = None
        self._start = self._seen = start
        self._exact = exact

    def first_frame(self, first_read: int) -> int:
        return max(0, first_read - self.window_steps + 1)

    def step(self, value: np.ndarray, read: bool = True) -> np.ndarray | None:
        value = np.asarray(value, dtype=np.float64)
        if self._ring is None:
            self._ring = np.empty((self.window_steps,) + value.shape)
            if self._exact:
                self._sum, self._mean = np.zeros(value.shape), np.empty(value.shape)
        k = self._seen
        slot = self._ring[k % self.window_steps]
        if self._exact and k - self.window_steps >= self._start:  # the leaving frame was fed
            self._sum -= slot
        slot[...] = value
        self._seen = k + 1
        if self._exact:
            self._sum += value
        if not read:
            return None
        filled = min(k + 1, self.window_steps)
        if self._exact:
            return np.divide(self._sum, filled, out=self._mean)
        return self._ring[:filled].sum(axis=0) / filled


FILTER_KINDS = {"identity": IdentityFilter, "exponential": ExponentialFilter,
                "boxcar": BoxcarFilter}


def make_filter(spec: dict | None, dt: float) -> CodeFilter:
    """Build a fresh filter from a config mapping like {"kind": "boxcar", "window_ms": 40}.

    None is the identity; any other value is read as a ``filter`` block.
    """
    if spec is None:
        return IdentityFilter(dt)
    return read_block(FILTER_KINDS, spec, "filter", nested=True, dt=dt)
