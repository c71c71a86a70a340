"""TriggerSampleStorage (TSS): fast persisted trigger training sets (§4.2.2).

The presampling strategy hands the trigger training set to the TSS as a
sequence of fixed-size *partitions* of (key, weight) pairs. Each
partition is split across ``n_write_threads`` binary chunk files written
in parallel (the paper's C++ threads). When a dataloader worker asks for
its share of a partition, the number of workers generally does not match
the number of chunk files, so the worker's contiguous slice of the
partition is assembled across chunk-file boundaries by offset arithmetic
— the exact mechanics of the paper's Figure 4.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator

import numpy as np

TSS_DTYPE = np.dtype([("sample_key", "<i8"), ("weight", "<f8")])


def worker_share(total: int, worker_id: int, num_workers: int) -> tuple[int, int]:
    """[start, end) of ``worker_id``'s equal share of ``total`` samples.

    The first ``total % num_workers`` workers get one extra sample, so all
    shares are within one sample of each other and cover [0, total).
    """
    if not 0 <= worker_id < num_workers:
        raise ValueError(f"worker_id {worker_id} outside [0, {num_workers})")
    base, rem = divmod(total, num_workers)
    start = worker_id * base + min(worker_id, rem)
    end = start + base + (1 if worker_id < rem else 0)
    return start, end


class TriggerSampleStorage:
    """Persists and serves partitioned trigger training sets on disk."""

    def __init__(self, root: str, *, n_write_threads: int = 4) -> None:
        self.root = root
        self.n_write_threads = max(1, int(n_write_threads))
        self._lock = threading.Lock()
        os.makedirs(root, exist_ok=True)

    def _trigger_dir(self, pipeline_id: str, trigger_id: int) -> str:
        return os.path.join(self.root, pipeline_id, f"trigger_{int(trigger_id)}")

    # ------------------------------------------------------------- writing
    def persist(
        self,
        pipeline_id: str,
        trigger_id: int,
        partitions: Iterable[tuple[np.ndarray, np.ndarray]],
    ) -> int:
        """Write the trigger training set; returns the number of partitions.

        ``partitions`` yields ``(keys, weights)`` per partition — the
        strategy passes partitions one at a time (never the whole set) to
        bound memory, as in the paper.
        """
        tdir = self._trigger_dir(pipeline_id, trigger_id)
        os.makedirs(tdir, exist_ok=True)

        def _write(path: str, chunk: np.ndarray) -> None:
            with open(path, "wb") as f:
                f.write(chunk.tobytes())

        n_parts = 0
        # one write pool for the whole trigger set
        with ThreadPoolExecutor(max_workers=self.n_write_threads) as pool:
            for p, (keys, weights) in enumerate(partitions):
                arr = np.empty(len(keys), dtype=TSS_DTYPE)
                arr["sample_key"] = np.asarray(keys, np.int64)
                arr["weight"] = np.asarray(weights, np.float64)
                chunks = np.array_split(arr, self.n_write_threads)
                paths = [
                    os.path.join(tdir, f"partition_{p:06d}_chunk_{i:03d}.bin")
                    for i in range(len(chunks))
                ]
                list(pool.map(_write, paths, chunks))
                n_parts += 1
        return n_parts

    # ------------------------------------------------------------- reading
    def _partition_chunks(
        self, pipeline_id: str, trigger_id: int, partition: int
    ) -> list[str]:
        tdir = self._trigger_dir(pipeline_id, trigger_id)
        prefix = f"partition_{int(partition):06d}_chunk_"
        chunks = sorted(
            os.path.join(tdir, f)
            for f in os.listdir(tdir)
            if f.startswith(prefix) and f.endswith(".bin")
        )
        if not chunks:
            raise FileNotFoundError(
                f"no partition {partition} for {pipeline_id}/trigger {trigger_id}"
            )
        return chunks

    def num_partitions(self, pipeline_id: str, trigger_id: int) -> int:
        tdir = self._trigger_dir(pipeline_id, trigger_id)
        if not os.path.isdir(tdir):
            return 0
        parts = {
            f.split("_")[1] for f in os.listdir(tdir) if f.startswith("partition_")
        }
        return len(parts)

    def partition_num_samples(
        self, pipeline_id: str, trigger_id: int, partition: int
    ) -> int:
        return sum(
            os.path.getsize(c) // TSS_DTYPE.itemsize
            for c in self._partition_chunks(pipeline_id, trigger_id, partition)
        )

    def get_worker_samples(
        self,
        pipeline_id: str,
        trigger_id: int,
        partition: int,
        worker_id: int,
        num_workers: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``worker_id``'s share of a partition as ``(keys, weights)``.

        Reads only the byte ranges of the chunk files that overlap the
        worker's slice (the chunk-count/worker-count mismatch assembly the
        paper hides in its C++ extension).
        """
        chunks = self._partition_chunks(pipeline_id, trigger_id, partition)
        sizes = [os.path.getsize(c) // TSS_DTYPE.itemsize for c in chunks]
        total = sum(sizes)
        start, end = worker_share(total, worker_id, num_workers)
        pieces: list[np.ndarray] = []
        offset = 0
        for path, n in zip(chunks, sizes):
            lo = max(start, offset)
            hi = min(end, offset + n)
            if lo < hi:
                with open(path, "rb") as f:
                    f.seek((lo - offset) * TSS_DTYPE.itemsize)
                    raw = f.read((hi - lo) * TSS_DTYPE.itemsize)
                pieces.append(np.frombuffer(raw, dtype=TSS_DTYPE))
            offset += n
        arr = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=TSS_DTYPE)
        )
        return arr["sample_key"].copy(), arr["weight"].copy()

    def get_all_samples(
        self, pipeline_id: str, trigger_id: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole trigger training set, partition order (for evaluation)."""
        keys, weights = [], []
        for p in range(self.num_partitions(pipeline_id, trigger_id)):
            k, w = self.get_worker_samples(pipeline_id, trigger_id, p, 0, 1)
            keys.append(k)
            weights.append(w)
        if not keys:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return np.concatenate(keys), np.concatenate(weights)
