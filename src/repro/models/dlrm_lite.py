"""DlrmLite — the recommendation-model stand-in (paper's NVIDIA DLRM).

A hashed-embedding logistic click model over criteo_lite records: logit =
dense . w + sum_j E[hash(j, cat_j)] + b. Embedding updates are sparse
scatter-adds, which is what makes the real workload memory-bound; here it
keeps per-batch compute cheap so the throughput experiment is dominated
by the data path, as in the paper.
"""
from __future__ import annotations

import numpy as np

from repro.core.registry import MODELS
from repro.models.base import Model
from repro.synth_data import CRITEO_DTYPE


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@MODELS.register("DlrmLite")
class DlrmLite(Model):
    """Logistic model with per-(column, value) hashed scalar embeddings."""

    def __init__(
        self,
        *,
        n_dense: int = 13,
        n_cat: int = 26,
        hash_buckets: int = 30_000,
        seed: int = 0,
    ) -> None:
        self.n_dense = int(n_dense)
        self.n_cat = int(n_cat)
        self.hash_buckets = int(hash_buckets)
        g = np.random.default_rng(seed)
        self.w = (g.standard_normal(self.n_dense) * 0.01).astype(np.float64)
        self.emb = np.zeros(self.hash_buckets)
        self.b = 0.0

    def _hash(self, cat: np.ndarray) -> np.ndarray:
        cols = np.arange(self.n_cat, dtype=np.int64)
        return (cat.astype(np.int64) * 1_000_003 + cols) % self.hash_buckets

    def _split(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if X.dtype != CRITEO_DTYPE:
            raise TypeError(f"DlrmLite expects CRITEO_DTYPE batches, got {X.dtype}")
        return X["dense"].astype(np.float64), self._hash(X["cat"])

    def forward(self, X: np.ndarray) -> np.ndarray:
        dense, idx = self._split(X)
        return dense @ self.w + self.emb[idx].sum(axis=1) + self.b

    def per_sample_loss(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        z = self.forward(X)
        y = np.asarray(y, np.float64)
        # numerically-stable BCE-with-logits
        return np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def per_sample_grad_norm(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Last layer == whole model: grad = r * [dense, onehots, 1], so the
        # norm is |r| * sqrt(||dense||^2 + n_cat + 1).
        dense, _ = self._split(X)
        r = np.abs(_sigmoid(self.forward(X)) - np.asarray(y, np.float64))
        return r * np.sqrt((dense * dense).sum(axis=1) + self.n_cat + 1.0)

    def sgd_step(self, X, y, *, lr: float, sample_weights=None) -> float:
        dense, idx = self._split(X)
        n = len(y)
        y = np.asarray(y, np.float64)
        wts = self._norm_weights(n, sample_weights)
        z = dense @ self.w + self.emb[idx].sum(axis=1) + self.b
        # pre-update loss from the same forward pass (no second forward)
        loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
        r = (_sigmoid(z) - y) * wts / n
        self.w -= lr * (dense.T @ r)
        # scatter-add of the sparse embedding gradient in one C pass
        self.emb -= lr * np.bincount(
            idx.ravel(),
            weights=np.repeat(r, self.n_cat),
            minlength=self.hash_buckets,
        )
        self.b -= lr * r.sum()
        return float((loss * wts).mean())

    def get_state(self) -> dict[str, np.ndarray]:
        return {
            "w": self.w.copy(),
            "emb": self.emb.copy(),
            "b": np.asarray([self.b]),
        }

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        self.w = state["w"].astype(np.float64).copy()
        self.emb = state["emb"].astype(np.float64).copy()
        self.b = float(state["b"][0])
