"""Output smoothing filters: identity, exponential low-pass, boxcar mean."""

import numpy as np
import pytest

from lcalearn.errors import ConfigError
from lcalearn.filters import (
    BoxcarFilter,
    ExponentialFilter,
    IdentityFilter,
    make_filter,
)


class TestIdentity:
    def test_passthrough(self):
        f = IdentityFilter()
        x = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(f.step(x), x)
        np.testing.assert_array_equal(f.step(2 * x), 2 * x)


class TestExponential:
    def test_step_response_closed_form(self):
        """Constant input c: y_k = c * (1 - (1 - alpha)^k)."""
        time_constant, dt = 100.0, 1.0
        alpha = dt / time_constant
        f = ExponentialFilter(time_constant, dt)
        c = 2.0
        x = np.array([c])
        for k in range(1, 200):
            y = f.step(x)
            expected = c * (1.0 - (1.0 - alpha) ** k)
            assert y[0] == pytest.approx(expected, rel=1e-12)

    def test_converges_to_constant_input(self):
        f = ExponentialFilter(10.0, 1.0)
        x = np.array([3.0, -1.0])
        for _ in range(500):
            y = f.step(x)
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_requires_time_constant_at_least_dt(self):
        with pytest.raises(ValueError):
            ExponentialFilter(0.5, 1.0)


class TestBoxcar:
    def test_window_length_is_ceil(self):
        assert BoxcarFilter(40.0, 1.0).window_steps == 40
        assert BoxcarFilter(40.0, 3.0).window_steps == 14
        assert BoxcarFilter(1.0, 1.0).window_steps == 1

    def test_partial_window_mean_during_warmup(self):
        """Before the window fills, the mean covers only the steps seen."""
        f = BoxcarFilter(3.0, 1.0)
        assert f.step(np.array([3.0]))[0] == pytest.approx(3.0)
        assert f.step(np.array([0.0]))[0] == pytest.approx(1.5)
        assert f.step(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_rolling_mean_after_warmup(self):
        f = BoxcarFilter(3.0, 1.0)
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        outs = [f.step(np.array([v]))[0] for v in values]
        assert outs[3] == pytest.approx((2 + 3 + 4) / 3)
        assert outs[4] == pytest.approx((3 + 4 + 5) / 3)

    def test_vector_inputs(self):
        f = BoxcarFilter(2.0, 1.0)
        f.step(np.array([1.0, 10.0]))
        y = f.step(np.array([3.0, 20.0]))
        np.testing.assert_allclose(y, [2.0, 15.0])

    def test_window_shorter_than_dt_rejected(self):
        with pytest.raises(ValueError):
            BoxcarFilter(0.5, 1.0)


class TestFactory:
    def test_none_gives_identity(self):
        assert isinstance(make_filter(None, 1.0), IdentityFilter)

    def test_identity_spec(self):
        assert isinstance(make_filter({"kind": "identity"}, 1.0), IdentityFilter)

    def test_exponential_spec(self):
        f = make_filter({"kind": "exponential", "time_constant_ms": 100.0}, 1.0)
        assert isinstance(f, ExponentialFilter)
        assert f.alpha == pytest.approx(0.01)

    def test_boxcar_spec(self):
        f = make_filter({"kind": "boxcar", "window_ms": 40.0}, 1.0)
        assert isinstance(f, BoxcarFilter)
        assert f.window_steps == 40

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_filter({"kind": "kalman"}, 1.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            make_filter({"kind": "boxcar", "window_ms": 40.0, "foo": 1}, 1.0)

    def test_missing_parameter_rejected(self):
        with pytest.raises(ConfigError):
            make_filter({"kind": "boxcar"}, 1.0)


class TestBoxcarRing:
    """The ring buffer against a plain mean over the last W frames."""

    @pytest.mark.parametrize("shape", [(7,), (3, 7)])
    def test_matches_mean_of_last_window(self, shape):
        rng = np.random.default_rng(0)
        frames = rng.exponential(size=(60,) + shape) * (rng.random((60,) + shape) < 0.5)
        f = BoxcarFilter(9.0, 1.0)
        for k in range(len(frames)):
            want = np.mean(frames[max(0, k - 8):k + 1], axis=0)
            np.testing.assert_allclose(f.step(frames[k]), want, rtol=0, atol=1e-12)

    def test_exact_zero_once_window_is_all_zero(self):
        f = BoxcarFilter(4.0, 1.0)
        for value in (0.1, 1e-17, 3.3, 1e10):
            f.step(np.array([value, 0.7]))
        outs = [f.step(np.zeros(2)) for _ in range(4)]
        assert np.all(outs[2] > 0)
        assert np.array_equal(outs[3], np.zeros(2))
