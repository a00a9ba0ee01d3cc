"""The buffered classifier fit against the frozen allocating one.

``reference_classifier.train`` is the fit as it ran with one allocating
NumPy expression per SGD step. ``classifier.train`` runs the same
arithmetic in place, with the bias as the last column of the weight
matrix, so weights, bias and loss history must match bit for bit, and the
saved ``.lcls`` bytes with them.
"""

import itertools

import numpy as np
import pytest

import reference_classifier
from lcalearn.classifier import ClassifierConfig, save_model, train

SAMPLES = 40
LARGE_RATE = 500.0  # drives label probabilities below 1e-300, so the loss clamp is used


def case(classes, dims, kind):
    rng = np.random.default_rng(1000 * classes + dims)
    if kind == "sparse":  # nonnegative, ~10% nonzero, like LCA codes
        features = rng.exponential(size=(SAMPLES, dims)) * (rng.uniform(size=(SAMPLES, dims)) < 0.1)
    else:
        features = rng.normal(size=(SAMPLES, dims))
    labels = rng.integers(0, classes, SAMPLES)
    labels[:classes] = np.arange(classes)
    return features, labels


def assert_same_fit(got, want, tmp_path):
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.bias, want.bias)
    assert got.loss_history == want.loss_history
    save_model(got, tmp_path / "got.lcls")
    save_model(want, tmp_path / "want.lcls")
    assert (tmp_path / "got.lcls").read_bytes() == (tmp_path / "want.lcls").read_bytes()


@pytest.mark.parametrize(
    "classes,dims,kind,epochs,rate",
    list(itertools.product((2, 4, 10), (1, 6, 256, 1280), ("sparse", "dense"), (1, 20),
                           (0.01, LARGE_RATE))),
)
def test_fit_matches_the_reference_bit_for_bit(tmp_path, classes, dims, kind, epochs, rate):
    features, labels = case(classes, dims, kind)
    config = ClassifierConfig(epochs=epochs, learning_rate=rate, seed=3)
    got = train(features, labels, config)
    assert_same_fit(got, reference_classifier.train(features, labels, config), tmp_path)
    assert got.weights.flags.c_contiguous and got.bias.flags.c_contiguous
    assert not np.shares_memory(got.weights, got.bias)


def test_large_rate_exercises_the_probability_clamp(tmp_path, monkeypatch):
    clamped = []

    def recording_max(prob, floor):  # the reference's max(probs[label], 1e-300)
        clamped.append(prob < floor)
        return max(prob, floor)

    monkeypatch.setattr(reference_classifier, "max", recording_max, raising=False)
    features, labels = case(4, 256, "dense")
    config = ClassifierConfig(epochs=20, learning_rate=LARGE_RATE, seed=3)
    want = reference_classifier.train(features, labels, config)
    assert len(clamped) == 20 * SAMPLES and any(clamped)
    assert_same_fit(train(features, labels, config), want, tmp_path)
