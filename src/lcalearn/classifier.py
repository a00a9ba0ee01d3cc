"""Linear classifier head over sparse latent codes.

The "perceptron" on top of the latent representations is multinomial
logistic regression trained by plain SGD: a single linear layer with
softmax cross-entropy, which keeps the readout linear while staying
differentiable and seed-reproducible.

Each SGD step of ``train`` works in place on buffers allocated once per fit,
with the bias held as the last column of the weight matrix, and gives the
same bits as the one-expression-per-step fit it replaced. Inputs are checked
once, at entry: labels must lie in [0, classes) and features must be finite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lcalearn import atomic
from lcalearn.errors import FormatError, check_fields

MODEL_MAGIC = b"LCLS"
MODEL_VERSION = 1

_MODEL_HEADER = struct.Struct("<4sIII")  # magic, version, classes, features

FEATURE_SCHEMES = ("final", "mean_last_half")


@dataclass
class ClassifierConfig:
    """A config's ``classifier`` block; its ``seed`` is no key there, as the run's seed sets it."""

    epochs: int = field(default=200, metadata={">=": 1})
    learning_rate: float = field(default=0.01, metadata={">": 0})
    seed: int = field(default=0, metadata={">=": 0, "key": None})
    feature_scheme: str = field(default="mean_last_half", metadata={"in": FEATURE_SCHEMES})

    def __post_init__(self):
        check_fields(self)


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


def train(
    features: np.ndarray, labels: np.ndarray, config: ClassifierConfig | None = None
) -> LinearClassifier:
    """Fit softmax regression by per-sample SGD; deterministic given the seed.

    Each step runs in place on buffers allocated once per fit. The weights
    and the bias sit side by side in one (classes, features + 1) array, and
    the sample is copied into a row whose last entry is 1.0, so one rank-1
    update moves both (``p * 1.0`` is ``p``, so the bias gets the same
    bits). The probability of each sample's label is kept, and the loss is
    summed once per epoch, left to right in step order. Weights, bias and
    loss history are bit-identical to the frozen allocating fit in
    ``tests/reference_classifier.py``. Extra memory is O(classes x features)
    plus one float per sample; the returned arrays are copies of their own.

    Raises ``ValueError`` for a label outside [0, classes) or a non-finite
    feature, naming the first bad row.
    """
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
    if labels.min() < 0:
        row = int(np.argmax(labels < 0))
        raise ValueError(f"label {labels[row]} at row {row} is outside [0, {classes})")
    # A row is finite iff its max and min are (NaN propagates through both);
    # unlike an isfinite mask, this allocates O(samples), not O(samples x dims).
    finite = np.isfinite(features.max(axis=1, initial=0.0)) & np.isfinite(
        features.min(axis=1, initial=0.0)
    )
    if not finite.all():
        raise ValueError(f"feature row {int(np.argmin(finite))} is not finite")

    rng = np.random.default_rng(config.seed)
    n, dims = features.shape
    lr = config.learning_rate
    wb = np.empty((classes, dims + 1))
    wb[:, :dims] = rng.normal(0.0, 0.01, size=(classes, dims))
    wb[:, dims] = 0.0
    weights, bias = wb[:, :dims], wb[:, dims]
    xa = np.ones((1, dims + 1))
    x = xa[0, :dims]
    p = np.empty(classes)
    p_col = p[:, None]
    step = np.empty_like(wb)
    label_p = np.empty(n)
    label_of = labels.tolist()
    history = []
    for _ in range(config.epochs):
        for k, i in enumerate(rng.permutation(n).tolist()):
            x[...] = features[i]
            np.matmul(weights, x, out=p)
            p += bias
            p -= max(p.tolist())  # exact, like p.max(), at a fraction of its cost
            np.exp(p, out=p)
            p /= np.add.reduce(p)  # NumPy's summation order; Python's sum() differs
            y = label_of[i]
            label_p[k] = p[y]
            p[y] -= 1.0
            np.multiply(p_col, xa, out=step)
            step *= lr
            wb -= step
        total = 0.0
        for loss in np.log(np.maximum(label_p, 1e-300)).tolist():
            total -= loss
        history.append(total / n)
    return LinearClassifier(weights.copy(), bias.copy(), history)


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
    atomic.write_bytes(path, header + payload)


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
