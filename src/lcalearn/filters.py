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
"""

from __future__ import annotations

import numpy as np

from lcalearn.errors import ConfigError, check_value


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


class IdentityFilter(CodeFilter):
    def step(self, value: np.ndarray, read: bool = True) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)

    def reset(self, exact: bool = False, start: int = 0) -> None:
        pass

    def first_frame(self, first_read: int) -> int:
        return first_read


class ExponentialFilter(CodeFilter):
    """First-order low-pass: y += (dt / time_constant) * (value - y).

    Runs in place on two buffers allocated at the first step: the array
    ``step`` returns is the filter's state, overwritten by the next step.
    Every output depends on every frame, so it is fed from step 0 and
    steps its state on every frame, read or not.
    """

    def __init__(self, time_constant_ms: float, dt: float = 1.0):
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if time_constant_ms < dt:
            raise ValueError(
                f"time constant {time_constant_ms} ms shorter than dt {dt} ms"
            )
        self.alpha = dt / time_constant_ms
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

    def __init__(self, window_ms: float, dt: float = 1.0):
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if window_ms < dt:
            raise ValueError(f"window {window_ms} ms shorter than dt {dt} ms")
        self.window_steps = int(np.ceil(window_ms / dt))
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


_FILTER_PARAMS = {
    "identity": set(),
    "exponential": {"time_constant_ms"},
    "boxcar": {"window_ms"},
}


def make_filter(spec: dict | None, dt: float) -> CodeFilter:
    """Build a fresh filter from a config mapping like {"kind": "boxcar", "window_ms": 40}."""
    if spec is None:
        return IdentityFilter()
    kind = spec.get("kind")
    if kind not in _FILTER_PARAMS:
        raise ConfigError(f"unknown filter kind {kind!r}")
    expected = _FILTER_PARAMS[kind]
    given = set(spec) - {"kind"}
    if given != expected:
        raise ConfigError(
            f"filter kind {kind!r} takes keys {sorted(expected)}, got {sorted(given)}"
        )
    for key in expected:
        check_value(key, spec[key], "float")
    try:
        if kind == "identity":
            return IdentityFilter()
        if kind == "exponential":
            return ExponentialFilter(spec["time_constant_ms"], dt)
        return BoxcarFilter(spec["window_ms"], dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
