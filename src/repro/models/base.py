"""Model interface (paper §4.1.3).

A model consumes batches assembled from parsed sample payloads, trains by
weighted SGD steps (sample weights multiply per-sample gradients, §3.1),
and — for downsampling support — exposes per-sample losses and last-layer
gradient norms. State is a flat dict of numpy arrays so the model-storage
component can diff and compress it.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np


class Model(ABC):
    """Trainable model over numpy batches."""

    @abstractmethod
    def stack_batch(self, payloads: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
        """The model input for one batch: the batch parser's output
        (``Batch.payloads``) as is, or per-sample rows stacked."""

    @abstractmethod
    def forward(self, X: np.ndarray) -> np.ndarray:
        """Logits: shape (n, C) for multiclass, (n,) for binary."""

    @abstractmethod
    def per_sample_loss(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Loss per sample, shape (n,)."""

    @abstractmethod
    def per_sample_grad_norm(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """L2 norm of each sample's last-layer gradient, shape (n,).

        This is the importance proxy of DLIS GradNorm (§4.1.2); models
        implement it analytically for their last layer.
        """

    @abstractmethod
    def sgd_step(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        lr: float,
        sample_weights: np.ndarray | None = None,
    ) -> float:
        """One weighted SGD step; returns the (weighted) mean loss."""

    @abstractmethod
    def get_state(self) -> dict[str, np.ndarray]:
        """Copy of all parameters, keyed by name."""

    @abstractmethod
    def set_state(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters produced by ``get_state``."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class predictions: argmax for multiclass, logit>0 for binary."""
        z = self.forward(X)
        return (z > 0).astype(np.int64) if z.ndim == 1 else np.argmax(z, axis=1)

    @staticmethod
    def _norm_weights(n: int, sample_weights: np.ndarray | None) -> np.ndarray:
        """Per-sample weights normalized to sum to n (neutral = all ones)."""
        if sample_weights is None:
            return np.ones(n)
        w = np.asarray(sample_weights, np.float64)
        s = w.sum()
        if s <= 0:
            raise ValueError("sample weights must have positive sum")
        return w * (n / s)
