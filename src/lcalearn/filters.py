"""Temporal smoothing of latent codes: identity, exponential low-pass, boxcar average.

Filters average over individual spike events so that reconstructions,
dictionary updates, and classifier features see a rate-like code even in
the strongly spiking regime. All filters are linear, preserve
nonnegativity, and have unit DC gain.
"""

from __future__ import annotations

import numpy as np

from lcalearn.errors import ConfigError


class CodeFilter:
    """Stateful per-period smoother; feed one code vector per timestep."""

    def step(self, value: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IdentityFilter(CodeFilter):
    def step(self, value: np.ndarray) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)


class ExponentialFilter(CodeFilter):
    """First-order low-pass: y += (dt / time_constant) * (value - y)."""

    def __init__(self, time_constant_ms: float, dt: float = 1.0):
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if time_constant_ms < dt:
            raise ValueError(
                f"time constant {time_constant_ms} ms shorter than dt {dt} ms"
            )
        self.alpha = dt / time_constant_ms
        self._y: np.ndarray | None = None

    def step(self, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        if self._y is None:
            self._y = np.zeros_like(value)
        self._y = self._y + self.alpha * (value - self._y)
        return self._y


class BoxcarFilter(CodeFilter):
    """Causal moving average over the last ceil(window/dt) frames.

    During warm-up the mean runs over the frames seen so far, which avoids
    the systematic underestimate zero-padding would give at period start.
    Frames live in a preallocated ring of ``window_steps`` rows, and each
    step sums the filled rows afresh: a running sum kept by subtraction
    would leave rounding residues where the window holds only zeros.
    """

    def __init__(self, window_ms: float, dt: float = 1.0):
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if window_ms < dt:
            raise ValueError(f"window {window_ms} ms shorter than dt {dt} ms")
        self.window_steps = int(np.ceil(window_ms / dt))
        self._ring: np.ndarray | None = None
        self._seen = 0

    def step(self, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        if self._ring is None:
            self._ring = np.empty((self.window_steps,) + value.shape)
        self._ring[self._seen % self.window_steps] = value
        self._seen += 1
        filled = min(self._seen, self.window_steps)
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
    try:
        if kind == "identity":
            return IdentityFilter()
        if kind == "exponential":
            return ExponentialFilter(spec["time_constant_ms"], dt)
        return BoxcarFilter(spec["window_ms"], dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
