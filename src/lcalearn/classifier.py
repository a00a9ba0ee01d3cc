"""Linear classifier head over sparse latent codes.

The "perceptron" on top of the latent representations is multinomial
logistic regression trained by plain SGD: a single linear layer with
softmax cross-entropy, which keeps the readout linear while staying
differentiable and seed-reproducible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lcalearn.errors import FormatError

MODEL_MAGIC = b"LCLS"
MODEL_VERSION = 1

_MODEL_HEADER = struct.Struct("<4sIII")  # magic, version, classes, features

FEATURE_SCHEMES = ("final", "mean_last_half")


@dataclass
class ClassifierConfig:
    epochs: int = 200
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")


@dataclass
class LinearClassifier:
    weights: np.ndarray  # (classes, features)
    bias: np.ndarray     # (classes,)
    loss_history: list[float] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


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


def predict(model: LinearClassifier, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.n_features:
        raise ValueError(
            f"features have dimension {features.shape[1]}, model expects {model.n_features}"
        )
    scores = features @ model.weights.T + model.bias
    return np.argmax(scores, axis=1)


def evaluate(model: LinearClassifier, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples whose argmax prediction matches the label."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("cannot evaluate on an empty sample list")
    return float(np.mean(predict(model, features) == labels))


def save_model(model: LinearClassifier, path) -> None:
    """Write the LCLS binary: header, float32 weights row-major, float32 bias."""
    header = _MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, model.n_classes, model.n_features)
    payload = model.weights.astype("<f4").tobytes() + model.bias.astype("<f4").tobytes()
    Path(path).write_bytes(header + payload)


def load_model(path) -> LinearClassifier:
    raw = Path(path).read_bytes()
    if len(raw) < _MODEL_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, classes, dims = _MODEL_HEADER.unpack_from(raw)
    if magic != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = (classes * dims + classes) * 4
    body = raw[_MODEL_HEADER.size:]
    if len(body) != expected:
        raise FormatError(f"{path}: payload is {len(body)} bytes, header implies {expected}")
    weights = np.frombuffer(body[: classes * dims * 4], dtype="<f4")
    bias = np.frombuffer(body[classes * dims * 4 :], dtype="<f4")
    return LinearClassifier(
        weights.reshape(classes, dims).astype(np.float64), bias.astype(np.float64)
    )
