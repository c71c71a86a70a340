"""Local sequential-read baseline (paper §5.1.1 "Comparison to local training").

The paper's baseline replaces the ``OnlineDataset`` with a dataset that
reads big binary files directly from local disk: each dataloader worker
is assigned a share of the *files* and emits every sample in them — no
metadata lookup, no sample-level selection, no network path. Used by the
T2/T3 experiments as the 100 % reference.
"""
from __future__ import annotations

import queue
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.storage.file_wrappers import FileWrapper
from repro.storage.payloads import Payloads


class LocalDataset:
    """Sequentially reads whole files, emitting batches per worker.

    Parameters mirror ``OnlineDataset`` so the trainer loop is identical:
    ``num_workers`` threads each own ``files[w::num_workers]`` and push
    full batches to a bounded queue; the consumer round-robins workers.
    """

    def __init__(
        self,
        files: Sequence[str],
        file_wrapper: FileWrapper,
        *,
        batch_size: int,
        num_workers: int = 1,
        bytes_parser: Callable[[bytes], np.ndarray] | None = None,
        batch_bytes_parser: Callable[[Payloads], np.ndarray] | None = None,
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
        queue_depth: int = 4,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if bytes_parser is not None and batch_bytes_parser is not None:
            raise ValueError("set at most one of bytes_parser / batch_bytes_parser")
        self.files = list(files)
        self.file_wrapper = file_wrapper
        self.batch_size = batch_size
        self.num_workers = num_workers
        self.bytes_parser = bytes_parser
        self.batch_bytes_parser = batch_bytes_parser
        self.transform = transform
        self.queue_depth = queue_depth

    def _worker(self, worker_id: int, out: "queue.Queue") -> None:
        if self.batch_bytes_parser is not None:
            self._worker_vectorized(worker_id, out)
            return
        pend_payloads: list = []
        pend_labels: list[int] = []
        try:
            for path in self.files[worker_id :: self.num_workers]:
                payloads = self.file_wrapper.get_all_samples(path)
                labels = self.file_wrapper.get_labels(path)
                for payload, label in zip(payloads, labels):
                    parsed = self.bytes_parser(payload) if self.bytes_parser else payload
                    if self.transform is not None:
                        parsed = self.transform(parsed)
                    pend_payloads.append(parsed)
                    pend_labels.append(int(label))
                    if len(pend_payloads) >= self.batch_size:
                        out.put(
                            (list(pend_payloads), np.asarray(pend_labels, np.int64))
                        )
                        pend_payloads.clear()
                        pend_labels.clear()
            if pend_payloads:
                out.put((list(pend_payloads), np.asarray(pend_labels, np.int64)))
            out.put(None)
        except BaseException as e:  # propagate to consumer
            out.put(e)

    FILES_PER_STEP = 64  # amortize per-file Python cost for tiny files

    def _worker_vectorized(self, worker_id: int, out: "queue.Queue") -> None:
        """Vectorized sequential path: one ``Payloads`` buffer and one
        parser call per group of files, sliced batches.

        The baseline counterpart of the OnlineDataset's vectorized mode,
        so the Modyn-vs-local comparison (T2/T3) is like-for-like. Files
        are processed in groups so one-sample-per-file datasets (CLOC)
        don't degenerate into per-sample Python.
        """
        bs = self.batch_size
        my_files = self.files[worker_id :: self.num_workers]
        pend: list[tuple[np.ndarray, np.ndarray]] = []
        n_pend = 0
        try:
            for g in range(0, len(my_files), self.FILES_PER_STEP):
                group = my_files[g : g + self.FILES_PER_STEP]
                payloads = Payloads.concat(
                    [self.file_wrapper.get_all_samples(path) for path in group]
                )
                labels = np.concatenate(
                    [self.file_wrapper.get_labels(path) for path in group]
                )
                arr = self.batch_bytes_parser(payloads)
                if self.transform is not None:
                    arr = self.transform(arr)
                pend.append((arr, labels))
                n_pend += len(labels)
                while n_pend >= bs:
                    big = np.concatenate([a for a, _ in pend]) if len(pend) > 1 else pend[0][0]
                    lab = np.concatenate([l for _, l in pend]) if len(pend) > 1 else pend[0][1]
                    out.put((big[:bs], lab[:bs]))
                    pend = [(big[bs:], lab[bs:])]
                    n_pend -= bs
            if n_pend:
                big = np.concatenate([a for a, _ in pend]) if len(pend) > 1 else pend[0][0]
                lab = np.concatenate([l for _, l in pend]) if len(pend) > 1 else pend[0][1]
                out.put((big, lab))
            out.put(None)
        except BaseException as e:
            out.put(e)

    def batches(self) -> Iterator[tuple[list, np.ndarray]]:
        """Yield ``(payloads, labels)`` batches round-robin across workers."""
        queues = [
            queue.Queue(maxsize=self.queue_depth) for _ in range(self.num_workers)
        ]
        threads = [
            threading.Thread(
                target=self._worker, args=(w, queues[w]), daemon=True
            )
            for w in range(self.num_workers)
        ]
        for t in threads:
            t.start()
        live = set(range(self.num_workers))
        w = 0
        while live:
            if w in live:
                item = queues[w].get()
                if item is None:
                    live.discard(w)
                elif isinstance(item, BaseException):
                    raise item
                else:
                    yield item
            w = (w + 1) % self.num_workers
        for t in threads:
            t.join()
