"""Linear softmax readout: training, prediction, persistence."""

import numpy as np
import pytest

from lcalearn.classifier import (
    ClassifierConfig,
    LinearClassifier,
    MODEL_MAGIC,
    evaluate,
    load_model,
    predict,
    save_model,
    train,
)
from lcalearn.errors import FormatError


def separable_blobs(seed=0, per_class=40, spread=0.1):
    """Three well-separated nonnegative clusters in R^6."""
    rng = np.random.default_rng(seed)
    centers = np.array([
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ], dtype=np.float64)
    features = []
    labels = []
    for label, center in enumerate(centers):
        features.append(np.abs(center + spread * rng.normal(size=(per_class, 6))))
        labels += [label] * per_class
    return np.vstack(features), np.array(labels)


class TestTraining:
    def test_separable_data_fits(self):
        features, labels = separable_blobs()
        model = train(features, labels, ClassifierConfig(epochs=100, seed=1))
        assert evaluate(model, features, labels) >= 0.99

    def test_loss_decreases(self):
        features, labels = separable_blobs()
        model = train(features, labels, ClassifierConfig(epochs=50, seed=1))
        assert model.loss_history[-1] < model.loss_history[0]
        assert len(model.loss_history) == 50

    def test_deterministic(self):
        features, labels = separable_blobs()
        a = train(features, labels, ClassifierConfig(epochs=20, seed=4))
        b = train(features, labels, ClassifierConfig(epochs=20, seed=4))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_generalizes_to_held_out(self):
        features, labels = separable_blobs(seed=0)
        test_features, test_labels = separable_blobs(seed=9)
        model = train(features, labels, ClassifierConfig(epochs=100, seed=1))
        assert evaluate(model, test_features, test_labels) >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train(np.ones((5, 3)), np.zeros(5, dtype=int), ClassifierConfig())

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            train(np.ones((5, 3)), np.zeros(4, dtype=int), ClassifierConfig())


class TestPredict:
    def test_ties_pick_lowest_index(self):
        model = LinearClassifier(
            weights=np.zeros((3, 2)), bias=np.zeros(3), loss_history=[]
        )
        assert predict(model, np.array([[1.0, 1.0]]))[0] == 0

    def test_argmax_of_scores(self):
        weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = LinearClassifier(weights=weights, bias=np.zeros(2), loss_history=[])
        assert predict(model, np.array([[2.0, 0.1]]))[0] == 0
        assert predict(model, np.array([[0.1, 2.0]]))[0] == 1

    def test_evaluate_empty_rejected(self):
        model = LinearClassifier(np.zeros((2, 2)), np.zeros(2), [])
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        features, labels = separable_blobs()
        model = train(features, labels, ClassifierConfig(epochs=10, seed=2))
        path = tmp_path / "m.lcls"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_allclose(
            loaded.weights, model.weights.astype(np.float32), atol=0
        )
        preds_a = predict(loaded, features)
        preds_b = predict(model, features)
        assert (preds_a == preds_b).mean() > 0.99

    def test_magic(self, tmp_path):
        model = LinearClassifier(np.zeros((2, 3)), np.zeros(2), [])
        path = tmp_path / "m.lcls"
        save_model(model, path)
        assert path.read_bytes()[:4] == MODEL_MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        model = LinearClassifier(np.zeros((2, 3)), np.zeros(2), [])
        path = tmp_path / "m.lcls"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        model = LinearClassifier(np.zeros((2, 3)), np.zeros(2), [])
        path = tmp_path / "m.lcls"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            load_model(path)
