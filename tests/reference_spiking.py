"""Frozen reference: the spiking stage's discharge and filters before exact periods.

``reference_discharge`` is ``accumulator._discharge`` with both floor-tie
corrections always applied, ``ReferenceBoxcar`` the boxcar that sums its
ring afresh every step, and ``ReferenceExponential`` the exponential
filter that allocates its new state every step. ``ReferenceStage`` is the
spiking output stage built on them, always on the corrected path. They are
kept verbatim so the differential tests can require the exact-period
stage and the in-place filters to reproduce them bit for bit. Do not edit
them to follow later changes to the stage or the filters.
"""

from __future__ import annotations

import numpy as np

from lcalearn.errors import NumericError
from lcalearn.lca import _shrink


def reference_discharge(carry, desired, s, counts, tmp, flag) -> None:
    carry += desired
    np.divide(carry, s, out=tmp)
    np.floor(tmp, out=counts)
    np.add(counts, 1.0, out=tmp)
    tmp *= s
    np.less_equal(tmp, carry, out=flag)
    counts += flag  # quotient rounded down across an integer
    np.multiply(counts, s, out=tmp)
    np.greater(tmp, carry, out=flag)
    counts -= flag  # quotient rounded up across an integer
    np.multiply(counts, s, out=tmp)
    carry -= tmp


class ReferenceBoxcar:
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


class ReferenceExponential:
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


class ReferenceIdentity:
    def step(self, value: np.ndarray) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)


def reference_filter(spec: dict | None, dt: float):
    """The frozen filter a ``make_filter`` spec names."""
    if spec is None or spec["kind"] == "identity":
        return ReferenceIdentity()
    if spec["kind"] == "exponential":
        return ReferenceExponential(spec["time_constant_ms"], dt)
    return ReferenceBoxcar(spec["window_ms"], dt)


class ReferenceStage:
    """The spiking output stage on the frozen pieces, for ``lca._run_period``.

    A fresh filter per instance; a period on it always stands (``end``).
    """

    def __init__(self, lam, spike_height, carry, code_filter):
        self.lam = lam
        self.spike_height = spike_height
        self.start = carry
        self.code_filter = code_filter

    def begin(self, u: np.ndarray, check: bool) -> None:
        self.check = check
        self.carry = np.array(self.start, dtype=np.float64)
        self.desired, self.counts, self.value = (np.empty(u.shape) for _ in range(3))
        self.flag = np.empty(u.shape, dtype=bool)
        self.peak, self.total = np.zeros(u.shape), np.zeros(u.shape)

    def emit(self, u: np.ndarray, code) -> np.ndarray:
        desired = _shrink(u, self.lam, self.desired)
        if self.check:
            if not np.isfinite(desired).all():
                raise NumericError("non-finite desired output in accumulator")
            if (desired < 0).any():
                raise ValueError("accumulator requires nonnegative desired outputs")
        reference_discharge(self.carry, desired, self.spike_height, self.counts, self.value,
                            self.flag)
        np.maximum(self.peak, self.counts, out=self.peak)
        self.total += self.counts
        return self.value

    def read(self, u: np.ndarray, value: np.ndarray) -> np.ndarray:
        return self.code_filter.step(value)

    def end(self) -> bool:
        return True
