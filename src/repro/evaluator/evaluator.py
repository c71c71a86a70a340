"""The Evaluator service (paper §4.3, §5.2).

Evaluates trained models on fixed evaluation sets defined by sample-key
sets in the storage (in the paper: "the triggers containing all data").
Forward-pass results are buffered only when a holistic metric is
requested; decomposable metrics fold in incrementally. The accuracy
*matrix* — every trained model evaluated on every trigger's data — is the
harness behind Figures 9 and 10.
"""
from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np
import pandas as pd

from repro.core.registry import METRICS
from repro.evaluator.metrics import DecomposableMetric, HolisticMetric
from repro.models.base import Model
from repro.storage.payloads import Payloads
from repro.storage.storage import Storage


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
        self, model: Model, keys: np.ndarray, metric_names: Sequence[str]
    ) -> dict[str, float]:
        """Metric values of ``model`` over the samples in ``keys``."""
        metrics = {name: METRICS.get(name)() for name in metric_names}
        for m in metrics.values():
            if not isinstance(m, (DecomposableMetric, HolisticMetric)):
                raise TypeError(f"{type(m).__name__} implements no metric interface")
        buffer = self.storage.get_samples(
            np.asarray(keys, np.int64), storage_threads=self.storage_threads
        )
        for start in range(0, len(buffer), self.batch_size):
            X = model.stack_batch(
                self.batch_bytes_parser(buffer.payloads[start : start + self.batch_size])
            )
            logits = model.forward(X)
            labels = buffer.labels[start : start + self.batch_size]
            for m in metrics.values():
                m.update(logits, labels)
        return {name: m.result() for name, m in metrics.items()}

    def accuracy_matrix(
        self,
        models: Mapping[object, Model],
        eval_sets: Mapping[object, np.ndarray],
        *,
        metric: str = "Accuracy",
    ) -> pd.DataFrame:
        """Evaluate each model on each eval set (paper's accuracy matrix).

        Rows = models (by name), columns = eval sets (by name).
        """
        rows = {}
        for model_name, model in models.items():
            rows[model_name] = {
                set_name: self.evaluate(model, keys, [metric])[metric]
                for set_name, keys in eval_sets.items()
            }
        return pd.DataFrame.from_dict(rows, orient="index")
