"""The Selector service (paper §4.1.2): one instance per pipeline.

Receives sample announcements from the supervisor, forwards them to the
presampling strategy's state, and on trigger materializes the trigger
training set into the ``TriggerSampleStorage`` partition by partition.
Dataloader workers then pull their per-partition shares through
``get_worker_samples`` (paper Fig. 3).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.selector.presampling import PresamplingStrategy
from repro.selector.trigger_sample_storage import TriggerSampleStorage


@dataclass(frozen=True)
class TriggerSetInfo:
    """Summary of one materialized trigger training set."""

    trigger_id: int
    num_samples: int
    num_partitions: int


class Selector:
    """Per-pipeline data-selection frontend."""

    def __init__(
        self,
        pipeline_id: str,
        strategy: PresamplingStrategy,
        tss: TriggerSampleStorage,
    ) -> None:
        self.pipeline_id = pipeline_id
        self.strategy = strategy
        self.tss = tss
        self.current_trigger = 0  # strictly monotonically increasing id

    def inform_data(
        self, keys: np.ndarray, timestamps: np.ndarray, labels: np.ndarray
    ) -> None:
        """Announce new samples; they land in the upcoming trigger's bucket."""
        if len(keys) == 0:
            return
        self.strategy.inform(
            self.current_trigger,
            np.asarray(keys, np.int64),
            np.asarray(labels, np.int64),
            np.asarray(timestamps, np.int64),
        )

    def trigger(self) -> TriggerSetInfo:
        """Run the selection policy and persist the trigger training set."""
        tid = self.current_trigger
        n_samples = 0

        def _counted():
            nonlocal n_samples
            for keys, weights in self.strategy.select(tid):
                n_samples += len(keys)
                yield keys, weights

        n_parts = self.tss.persist(self.pipeline_id, tid, _counted())
        self.strategy.post_trigger(tid)
        self.current_trigger += 1
        return TriggerSetInfo(tid, n_samples, n_parts)

    def get_num_partitions(self, trigger_id: int) -> int:
        return self.tss.num_partitions(self.pipeline_id, trigger_id)

    def get_worker_samples(
        self, trigger_id: int, partition: int, worker_id: int, num_workers: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``worker_id``'s share of one partition: (keys, weights)."""
        return self.tss.get_worker_samples(
            self.pipeline_id, trigger_id, partition, worker_id, num_workers
        )

    def get_all_samples(self, trigger_id: int) -> tuple[np.ndarray, np.ndarray]:
        return self.tss.get_all_samples(self.pipeline_id, trigger_id)
