"""Multinomial softmax regression — the vision-workload model stand-in.

Input payloads are float32 feature vectors (cloc_lite). The last layer
is the whole model, so its per-sample gradient is the outer product
``x (p - onehot(y))^T`` (plus the bias row), giving the exact GradNorm
score ``||x'|| * ||p - y||`` with ``x' = [x, 1]``.
"""
from __future__ import annotations

import numpy as np

from repro.core.registry import MODELS
from repro.models.base import Model


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@MODELS.register("SoftmaxRegression")
class SoftmaxRegression(Model):
    """Linear softmax classifier with cross-entropy loss."""

    def __init__(self, *, dim: int, n_classes: int, seed: int = 0) -> None:
        self.dim = int(dim)
        self.n_classes = int(n_classes)
        g = np.random.default_rng(seed)
        self.W = (g.standard_normal((self.dim, self.n_classes)) * 0.01).astype(
            np.float64
        )
        self.b = np.zeros(self.n_classes)

    def forward(self, X: np.ndarray) -> np.ndarray:
        return X @ self.W + self.b

    def per_sample_loss(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        p = _softmax(self.forward(X))
        return -np.log(np.clip(p[np.arange(len(y)), y], 1e-12, None))

    def _residual(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        p = _softmax(self.forward(X))
        p[np.arange(len(y)), y] -= 1.0
        return p  # (n, C): softmax minus one-hot

    def per_sample_grad_norm(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = self._residual(X, y)
        x_norm = np.sqrt((X * X).sum(axis=1) + 1.0)  # +1: bias column
        return x_norm * np.linalg.norm(r, axis=1)

    def per_sample_grad_norm_general(
        self, X: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Materialized per-sample last-layer gradients (test reference)."""
        r = self._residual(X, y)
        out = np.empty(len(y))
        for i in range(len(y)):
            gw = np.outer(X[i], r[i])
            out[i] = np.sqrt((gw * gw).sum() + (r[i] * r[i]).sum())
        return out

    def sgd_step(self, X, y, *, lr: float, sample_weights=None) -> float:
        n = len(y)
        w = self._norm_weights(n, sample_weights)
        r = self._residual(X, y) * w[:, None] / n
        self.W -= lr * (X.T @ r)
        self.b -= lr * r.sum(axis=0)
        loss = self.per_sample_loss(X, y)
        return float((loss * w).mean())

    def get_state(self) -> dict[str, np.ndarray]:
        return {"W": self.W.copy(), "b": self.b.copy()}

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        self.W = state["W"].astype(np.float64).copy()
        self.b = state["b"].astype(np.float64).copy()
