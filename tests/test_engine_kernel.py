"""The inhibition-matrix kernel against the residual form, at the benchmark shapes.

The engine steps ``u += dt/tau * (b - u - (Phi Phi^T - I) a)`` with
``b = Phi x`` built once per period. ``residual_form_step`` restates the
update it replaced, ``u += dt/tau * (-u + Phi (x - Phi^T a) + a)``, and is
patched into the frozen reference loops, so the two algebraically equal
forms are compared: codes and membranes within ``TOL``, spike counts
identically, away from floor ties. The shapes are those of the dictionary
recovery test, the synthetic event frames and the image smoke test, plus
one with more elements than twice the input size.
"""

import numpy as np
import pytest

import reference_lca
from lcalearn import accumulator
from lcalearn.accumulator import run_spiking_inference
from lcalearn.dictionary import InputDims, analyze, init_random, synthesize
from lcalearn.filters import make_filter
from lcalearn.lca import LcaParams, MembraneState, run_inference

from reference_lca import reference_run_inference, reference_run_spiking_inference
from test_engine_batch import TIE_MARGIN, TOL, SpikeWatch

SHAPES = {
    "30x20": (30, InputDims(height=4, width=5)),
    "64x1280": (64, InputDims(height=16, width=16, frames=5)),
    "256x768": (256, InputDims(height=16, width=16, channels=3)),
    "48x20": (48, InputDims(height=4, width=5)),  # N > 2D
}
BOXCAR = {"kind": "boxcar", "window_ms": 40.0}


def residual_form_step(state, dictionary, input_vector, params, output_code):
    residual = input_vector - synthesize(dictionary, output_code)
    du = -state.u + analyze(dictionary, residual) + output_code
    return MembraneState(state.u + (params.dt / params.tau) * du, state.step_index + 1)


@pytest.fixture
def residual_reference(monkeypatch):
    """Makes the reference loops step through the residual form."""
    monkeypatch.setattr(reference_lca, "lca_step", residual_form_step)
    monkeypatch.setattr(accumulator, "lca_step", residual_form_step)


def instance(shape, batch):
    n, dims = SHAPES[shape]
    dictionary = init_random(11, n, dims)
    rng = np.random.default_rng(12)
    x = rng.normal(0.0, 0.5, size=(batch or 1, dims.size))
    return dictionary, (x if batch else x[0])


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


PARAMS = LcaParams(lam=0.2, dt=1.0, tau=10.0, steps=100)


@pytest.mark.usefixtures("residual_reference")
@pytest.mark.parametrize("batch", [0, 8], ids=["single", "B8"])
@pytest.mark.parametrize("shape", SHAPES)
class TestBenchmarkShapes:
    def test_graded(self, shape, batch):
        dictionary, x = instance(shape, batch)
        got = run_inference(dictionary, x, PARAMS)
        for row, vec in enumerate(np.atleast_2d(x)):
            want = reference_run_inference(dictionary, vec, PARAMS)
            assert np.count_nonzero(want.code) > 0
            close(np.atleast_2d(got.code)[row], want.code)
            close(np.atleast_2d(got.half_mean)[row], want.half_mean)
            close(np.atleast_2d(got.state.u)[row], want.state.u)

    def test_spiking_with_boxcar(self, monkeypatch, shape, batch):
        dictionary, x = instance(shape, batch)
        watch = SpikeWatch(monkeypatch, dictionary.element_count)
        height = 0.5
        got = run_spiking_inference(
            dictionary, x, PARAMS, height, make_filter(BOXCAR, PARAMS.dt)
        )
        counts = watch.take().reshape(PARAMS.steps, -1, dictionary.element_count)
        total = 0
        for row, vec in enumerate(np.atleast_2d(x)):
            want = reference_run_spiking_inference(
                dictionary, vec, PARAMS, height, make_filter(BOXCAR, PARAMS.dt)
            )
            assert np.array_equal(counts[:, row], watch.take())
            close(np.atleast_2d(got.code)[row], want.code)
            close(np.atleast_2d(got.half_mean)[row], want.half_mean)
            close(np.atleast_2d(got.state.u)[row], want.state.u)
            close(np.atleast_2d(got.accumulator.carry)[row], want.accumulator.carry)
            total += want.total_counts
        assert total > 0
        assert got.total_counts == total
        assert watch.margin > TIE_MARGIN, "instance sits on a floor tie"
