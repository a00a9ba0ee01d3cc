"""Frozen reference for the benchmark's correctness checks.

A plain NumPy restatement of the lcalearn dynamics as of the commit that
defined the benchmark: graded LCA, the accumulator spike stage with its
carry, the causal boxcar filter, the Hebbian update and the training
schedule. It runs the same operations in the same order, so at that commit
the program's reconstruction errors equal these bit for bit; a later
rewrite may move them only within the tolerances in ``run.py``.
"""

from __future__ import annotations

import numpy as np


def init_random(seed: int, n: int, d: int) -> np.ndarray:
    """Seeded unit-norm rows, rounded once to float32 resolution."""
    elements = np.random.default_rng(seed).normal(0.0, 0.1, size=(n, d))
    elements = elements / np.linalg.norm(elements, axis=1, keepdims=True)
    return elements.astype(np.float32).astype(np.float64)


def infer(phi, x, lam, tau, steps, spike_height=0.0, window=None, dt=1.0):
    """Period-end code from rest: soft-threshold output, or boxcar-filtered spikes."""
    n = phi.shape[0]
    u = np.zeros(n)
    rate = dt / tau
    if spike_height <= 0:
        code = np.maximum(u - lam, 0.0)
        for _ in range(steps):
            u = u + rate * (-u + phi @ (x - code @ phi) + code)
            code = np.maximum(u - lam, 0.0)
        return code
    s = spike_height
    carry = np.zeros(n)
    recent: list[np.ndarray] = []
    filtered = np.zeros(n)
    for _ in range(steps):
        v = carry + np.maximum(u - lam, 0.0)
        counts = np.floor(v / s)
        counts += (counts + 1.0) * s <= v
        counts -= counts * s > v
        counts = counts.astype(np.int64)
        carry = v - counts * s
        value = counts * s
        u = u + rate * (-u + phi @ (x - value @ phi) + value)
        if window is None:
            filtered = value
        else:
            recent = (recent + [value])[-window:]
            filtered = np.mean(recent, axis=0)
    return filtered


def rmse(x, code, phi) -> float:
    diff = x - code @ phi
    return float(np.sqrt(np.mean(diff * diff)))


def hebbian(phi, code, residual, lr):
    phi = phi.copy()
    active = code != 0.0
    moved = phi[active] + (lr * code[active])[:, None] * residual[None, :]
    phi[active] = moved / np.linalg.norm(moved, axis=1, keepdims=True)
    return phi


def evaluate(phi, inputs, **infer_kwargs) -> float:
    """Mean per-sample reconstruction RMSE over rows of ``inputs``."""
    return sum(rmse(x, infer(phi, x, **infer_kwargs), phi) for x in inputs) / len(inputs)


def train(train_inputs, valid_inputs, *, n, seed, epochs, lr, **infer_kwargs) -> float:
    """One training run, shuffled periods with a Hebbian step each; returns rmse_val."""
    phi = init_random(seed, n, train_inputs.shape[1])
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(len(train_inputs)):
            x = train_inputs[i]
            code = infer(phi, x, **infer_kwargs)
            if np.any(code):
                phi = hebbian(phi, code, x - code @ phi, lr)
    return evaluate(phi, valid_inputs, **infer_kwargs)
