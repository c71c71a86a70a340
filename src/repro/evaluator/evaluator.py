"""The Evaluator service (paper §4.3, §5.2).

Evaluates trained models on fixed evaluation sets defined by sample-key
sets in the storage (in the paper: "the triggers containing all data").
Evaluation is data-major: one call reads a set once and folds every batch
into each model's metrics, so the accuracy *matrix* — every trained model
evaluated on every trigger's data, the harness behind Figures 9 and 10 —
reads each set once. Forward-pass results are buffered only when a
holistic metric is requested; decomposable metrics fold in incrementally.
"""
from __future__ import annotations

from typing import Callable, Hashable, Mapping, Sequence, TypeVar

import numpy as np

from repro.core.registry import METRICS
from repro.evaluator.metrics import DecomposableMetric, HolisticMetric
from repro.models.base import Model
from repro.storage.payloads import Payloads
from repro.storage.storage import Storage

K = TypeVar("K", bound=Hashable)


class Evaluator:
    """Runs metric evaluations of models over storage-resident data."""

    def __init__(
        self,
        storage: Storage,
        *,
        batch_bytes_parser: Callable[[Payloads], np.ndarray],
        batch_size: int = 4096,
        storage_threads: int = 1,
    ) -> None:
        self.storage = storage
        self.batch_bytes_parser = batch_bytes_parser
        self.batch_size = batch_size
        self.storage_threads = storage_threads

    def evaluate(
        self, models: Mapping[K, Model], keys: np.ndarray, metric_names: Sequence[str]
    ) -> dict[K, dict[str, float]]:
        """Metric values of every model in ``models`` over the samples in
        ``keys``, read once: each batch is parsed once and folded into every
        model's metrics."""
        metrics = {
            k: {name: METRICS.get(name)() for name in metric_names} for k in models
        }
        for per_model in metrics.values():
            for m in per_model.values():
                if not isinstance(m, (DecomposableMetric, HolisticMetric)):
                    raise TypeError(f"{type(m).__name__} implements no metric interface")
        buffer = self.storage.get_samples(
            np.asarray(keys, np.int64), storage_threads=self.storage_threads
        )
        for start in range(0, len(buffer), self.batch_size):
            batch = self.batch_bytes_parser(
                buffer.payloads[start : start + self.batch_size]
            )
            labels = buffer.labels[start : start + self.batch_size]
            for k, model in models.items():
                logits = model.forward(batch)
                for m in metrics[k].values():
                    m.update(logits, labels)
        return {
            k: {name: m.result() for name, m in per_model.items()}
            for k, per_model in metrics.items()
        }
