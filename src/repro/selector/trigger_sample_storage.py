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
import shutil
from typing import Iterable

import numpy as np

from repro.selector import records

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
    """Persists and serves partitioned trigger training sets on disk.

    Readers use the chunks (names and sizes) ``persist`` recorded once
    its rename succeeded, so a fetch lists no directory and stats no
    file. They live in this object: a reader in another process would
    need them written next to the files.
    """

    def __init__(self, root: str, *, n_write_threads: int = 4) -> None:
        self.root = root
        self.n_write_threads = max(1, int(n_write_threads))
        # (pipeline id, trigger id) -> chunks of each partition; every
        # update is one dict operation, atomic under the GIL
        self._parts: dict[tuple[str, int], list[list[records.Chunk]]] = {}
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

        ``partitions`` yields ``(keys, weights)`` per partition, and each
        is written as it arrives. The strategies' ``select`` cuts them
        from a selection it already holds whole on the driver, so the
        set is in memory at once there (streaming it is open work).

        The set is written into ``trigger_<id>.tmp/`` and renamed over
        ``trigger_<id>/`` only once every partition is written, so a persist
        that fails part-way leaves no partitions behind for a retry of the
        same trigger id to be mixed with.
        """
        key = (pipeline_id, int(trigger_id))
        tdir = self._trigger_dir(pipeline_id, trigger_id)
        tmp = tdir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        parts = []
        for p, (keys, weights) in enumerate(partitions):
            arr = np.empty(len(keys), dtype=TSS_DTYPE)
            arr["sample_key"] = np.asarray(keys, np.int64)
            arr["weight"] = np.asarray(weights, np.float64)
            parts.append(records.write(tmp, f"partition_{p:06d}", arr, self.n_write_threads))
        # a retry after a later failure (e.g. in post_trigger) persists the
        # same id again; rename cannot replace a non-empty directory
        self._parts.pop(key, None)
        shutil.rmtree(tdir, ignore_errors=True)
        os.rename(tmp, tdir)
        self._parts[key] = parts
        return len(parts)

    # ------------------------------------------------------------- reading
    def num_partitions(self, pipeline_id: str, trigger_id: int) -> int:
        return len(self._parts.get((pipeline_id, int(trigger_id)), ()))

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
        parts = self._parts.get((pipeline_id, int(trigger_id)), [])
        if not 0 <= partition < len(parts):
            raise FileNotFoundError(
                f"no partition {partition} for {pipeline_id}/trigger {trigger_id}"
            )
        chunks = parts[partition]
        start, end = worker_share(sum(n for _, n in chunks), worker_id, num_workers)
        arr = records.read(
            self._trigger_dir(pipeline_id, trigger_id), chunks, TSS_DTYPE, start, end
        )
        return arr["sample_key"].copy(), arr["weight"].copy()

    def get_all_samples(
        self, pipeline_id: str, trigger_id: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole trigger training set, partition order (for evaluation)."""
        parts = self._parts.get((pipeline_id, int(trigger_id)), [])
        arr = records.read(
            self._trigger_dir(pipeline_id, trigger_id),
            [chunk for chunks in parts for chunk in chunks], TSS_DTYPE,
        )
        return arr["sample_key"].copy(), arr["weight"].copy()
