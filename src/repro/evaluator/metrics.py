"""Evaluation metrics (paper §4.3).

Two metric interfaces, as in the paper: *decomposable* metrics are
updated incrementally per forward batch (no result storage needed);
*holistic* metrics must buffer the forward-pass outputs and compute at
the end. New metrics plug in by implementing either interface.
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.registry import METRICS


class DecomposableMetric(ABC):
    """Incrementally-computable metric (e.g. accuracy)."""

    @abstractmethod
    def update(self, logits: np.ndarray, labels: np.ndarray) -> None:
        """Fold in one evaluation batch."""

    @abstractmethod
    def result(self) -> float:
        """Final metric value."""


class HolisticMetric(ABC):
    """Metric needing all forward-pass results (e.g. ROC-AUC)."""

    @abstractmethod
    def update(self, logits: np.ndarray, labels: np.ndarray) -> None:
        """Buffer one evaluation batch."""

    @abstractmethod
    def result(self) -> float:
        """Final metric value over the buffered results."""


@METRICS.register("Accuracy")
class Accuracy(DecomposableMetric):
    """Fraction of correct argmax (multiclass) / logit>0 (binary) predictions."""

    def __init__(self) -> None:
        self._correct = 0
        self._total = 0

    def update(self, logits, labels) -> None:
        pred = (
            (logits > 0).astype(np.int64)
            if logits.ndim == 1
            else np.argmax(logits, axis=1)
        )
        self._correct += int((pred == labels).sum())
        self._total += len(labels)

    def result(self) -> float:
        return self._correct / self._total if self._total else float("nan")


@METRICS.register("RocAuc")
class RocAuc(HolisticMetric):
    """Binary ROC-AUC via the rank statistic (ties get mid-ranks)."""

    def __init__(self) -> None:
        self._scores: list[np.ndarray] = []
        self._labels: list[np.ndarray] = []

    def update(self, logits, labels) -> None:
        if logits.ndim != 1:
            raise ValueError("RocAuc is defined for binary (1-d) scores")
        self._scores.append(np.asarray(logits, np.float64))
        self._labels.append(np.asarray(labels, np.int64))

    def result(self) -> float:
        if not self._scores:
            return float("nan")
        scores = np.concatenate(self._scores)
        labels = np.concatenate(self._labels)
        n_pos = int((labels == 1).sum())
        n_neg = len(labels) - n_pos
        if n_pos == 0 or n_neg == 0:
            return float("nan")
        order = np.argsort(scores, kind="mergesort")
        ranks = np.empty(len(scores))
        sorted_scores = scores[order]
        # mid-ranks for ties
        i = 0
        while i < len(scores):
            j = i
            while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
                j += 1
            ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return float(
            (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        )
