"""Frozen reference: the classifier fit as one allocating NumPy expression per step.

This is ``classifier.train`` before it ran on preallocated buffers with the
bias folded into the weight matrix. It is kept verbatim so the differential
test can require the buffered fit to reproduce it bit for bit. Do not edit
it to follow later changes to the classifier.
"""

from __future__ import annotations

import numpy as np

from lcalearn.classifier import ClassifierConfig, LinearClassifier


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def train(
    features: np.ndarray, labels: np.ndarray, config: ClassifierConfig | None = None
) -> LinearClassifier:
    """Fit softmax regression by per-sample SGD; deterministic given the seed."""
    config = config if config is not None else ClassifierConfig()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise ValueError(f"features must be (samples, dims), got shape {features.shape}")
    if labels.shape != (features.shape[0],):
        raise ValueError(
            f"{features.shape[0]} feature rows but {labels.shape[0]} labels"
        )
    classes = int(labels.max()) + 1 if labels.size else 0
    if classes < 2 or len(np.unique(labels)) < 2:
        raise ValueError("training needs samples from at least two classes")

    rng = np.random.default_rng(config.seed)
    n, dims = features.shape
    weights = rng.normal(0.0, 0.01, size=(classes, dims))
    bias = np.zeros(classes)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for i in order:
            x = features[i]
            probs = _softmax(weights @ x + bias)
            total -= np.log(max(probs[labels[i]], 1e-300))
            probs[labels[i]] -= 1.0
            weights -= config.learning_rate * np.outer(probs, x)
            bias -= config.learning_rate * probs
        history.append(total / n)
    return LinearClassifier(weights, bias, history)
