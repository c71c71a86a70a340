"""Local sequential-read baseline (paper §5.1.1 "Comparison to local training").

The paper's baseline replaces the ``OnlineDataset`` with a dataset that
reads big binary files directly from local disk: each dataloader worker
is assigned a share of the *files* and emits every sample in them — no
metadata lookup, no sample-level selection, no network path. Used by the
T2/T3 experiments as the 100 % reference.
"""
from __future__ import annotations

import threading
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.batching import Rebatcher, round_robin
from repro.storage.file_wrappers import FileWrapper
from repro.storage.payloads import Payloads

#: consumer-side bound on buffered batches per worker
QUEUE_DEPTH = 4


class LocalDataset:
    """Sequentially reads whole files, emitting batches per worker.

    Parameters mirror ``OnlineDataset`` so the trainer loop is identical:
    ``num_workers`` threads each own ``files[w::num_workers]`` and push
    full batches to a bounded queue; the consumer round-robins workers.
    Each worker reads its files in groups of ``FILES_PER_STEP`` into one
    ``Payloads`` buffer and parses it with one ``batch_bytes_parser``
    call, the same per-buffer parsing as the ``OnlineDataset``; the
    ``transform`` runs once per emitted batch, as there, so the
    Modyn-vs-local comparison (T2/T3) is like-for-like. Grouping keeps
    one-sample-per-file datasets (CLOC) from degenerating into
    per-sample Python.
    """

    FILES_PER_STEP = 64  # amortize per-file Python cost for tiny files

    def __init__(
        self,
        files: Sequence[str],
        file_wrapper: FileWrapper,
        *,
        batch_size: int,
        num_workers: int = 1,
        batch_bytes_parser: Callable[[Payloads], np.ndarray],
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.files = list(files)
        self.file_wrapper = file_wrapper
        self.batch_size = batch_size
        self.num_workers = num_workers
        self.batch_bytes_parser = batch_bytes_parser
        self.transform = transform

    def _worker(
        self,
        worker_id: int,
        emit: Callable[[tuple[np.ndarray, np.ndarray]], None],
        stop: threading.Event,
    ) -> None:
        rebatch = Rebatcher(self.batch_size, self.transform)
        my_files = self.files[worker_id :: self.num_workers]
        for g in range(0, len(my_files), self.FILES_PER_STEP):
            group = my_files[g : g + self.FILES_PER_STEP]
            payloads = Payloads.concat(
                [self.file_wrapper.get_all_samples(path) for path in group]
            )
            labels = np.concatenate(
                [self.file_wrapper.get_labels(path) for path in group]
            )
            for batch in rebatch.add(self.batch_bytes_parser(payloads), labels):
                emit(batch)
        tail = rebatch.flush()
        if tail is not None:
            emit(tail)

    def batches(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(payload batch, labels)`` round-robin across workers."""
        yield from round_robin(
            [partial(self._worker, w) for w in range(self.num_workers)], QUEUE_DEPTH
        )
