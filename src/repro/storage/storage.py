"""The storage service (paper §4.1.4 + §4.2.3 retrieval hot path).

Sample *payloads* live in files (via a ``FileWrapper``); sample *metadata*
(key -> file, index-in-file, label, timestamp) lives in a growing Parquet
registry queried through Spark SQL — the stand-in for the paper's
Postgres database (see DESIGN.md).

Retrieval follows the paper's Figure 6: an incoming list of keys is split
into ``storage_threads`` equal parts; each part runs its *own* metadata
lookup, sorts the hits by source file and cuts them into
``send_buffer_size`` slices, and emits each slice as a send buffer as
soon as one ``FileWrapper.get_samples_of_files`` call has read its
payloads (one call per buffer rather than per file: for one-sample
files a per-file call's fixed cost is most of the read).
All payload I/O goes through one bounded process-global thread pool,
which is what makes "too many parallel requests overload the system"
reproducible here.

Two metadata paths, by design (see DESIGN.md):

- the *stage* path (``registry_df``, ``get_metadata``): Spark scans and
  joins over the Parquet registry — used by selection/scoring *stages*
  (and tests), where a dataflow stage is the right shape. Spark only
  reads the registry: each ingest appends one Arrow-built Parquet file
  from the driver (``repro.storage.parquet``, committed by an atomic
  rename), so an ingest launches no Spark job. The registry has a
  declared schema, written by every ingest and read back as is, so
  planning a scan launches no Spark job either and each stage is the
  one job that does its work. A scan reads exactly the files this
  ``Storage``'s ingests committed, never a listing of the registry
  directory, so the rows it sees always match the hot-path index.
- ``lookup``: the *hot* per-request path. The paper's Postgres point
  lookups cost milliseconds; a Spark job costs hundreds of milliseconds
  of driver-serialized overhead, which would invert every scaling trend
  of §5.1. So the hot path queries an in-memory index maintained at
  ingest (the DB's role), plus a simulated query latency of
  ``base + per_key * n`` that sleeps (releasing the GIL, like a real
  network round-trip) — preserving the paper's property that metadata
  query time scales with the number of requested keys.
"""
from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.storage import parquet
from repro.storage.file_wrappers import FileWrapper, file_runs
from repro.storage.payloads import Payloads

# Process-global I/O pool: the analog of the paper's bounded Postgres
# worker pool (they configure 96 workers; we scale to local cores). All
# storage requests from all dataloader workers share it, so
# oversubscription (many workers x many storage threads x parallel
# prefetch) queues up here instead of scaling — the effect §5.1.1 measures.
_IO_POOL_SIZE = int(os.environ.get("REPRO_STORAGE_POOL", "16"))
_IO_POOL = ThreadPoolExecutor(max_workers=_IO_POOL_SIZE, thread_name_prefix="storage-io")

# Simulated metadata-DB query latency for the hot path (see module doc):
# a fixed per-query cost plus a per-requested-key cost, as measured for
# the paper's Postgres path ("the duration of the join of the metadata
# tables scales with the number of requested keys", §5.1.1).
_DB_BASE_S = float(os.environ.get("REPRO_DB_BASE_MS", "2.0")) / 1e3
_DB_PER_KEY_S = float(os.environ.get("REPRO_DB_PER_KEY_US", "20.0")) / 1e6

# Declared registry schema: ingest writes it and ``registry_df`` reads
# with it, so planning a scan never runs a Spark schema-inference job.
_REGISTRY_COLUMNS = ("sample_key", "file_id", "idx", "label", "timestamp")
_REGISTRY_ARROW = parquet.arrow_schema(_REGISTRY_COLUMNS)


def _known(keys: np.ndarray, n: int) -> np.ndarray:
    """``keys`` as int64; ``KeyError`` unless every key is in ``[0, n)``."""
    keys = np.asarray(keys, np.int64)
    if len(keys) and (keys.min() < 0 or keys.max() >= n):
        bad = keys[(keys < 0) | (keys >= n)]
        raise KeyError(f"unknown sample keys (first few): {bad[:5].tolist()}")
    return keys


@dataclass
class SampleBuffer:
    """One send buffer emitted by the storage (gRPC-streaming analog)."""

    keys: np.ndarray  # int64
    labels: np.ndarray  # int64
    payloads: Payloads

    def __len__(self) -> int:
        return len(self.payloads)

    @staticmethod
    def concat(buffers: Sequence["SampleBuffer"]) -> "SampleBuffer":
        """One buffer holding ``buffers`` in order (payloads: one copy)."""
        if len(buffers) == 1:
            return buffers[0]
        empty = [np.empty(0, np.int64)]
        return SampleBuffer(
            np.concatenate([b.keys for b in buffers] or empty),
            np.concatenate([b.labels for b in buffers] or empty),
            Payloads.concat([b.payloads for b in buffers]),
        )


class Storage:
    """Sample storage with a Spark-Parquet metadata registry.

    ``root`` is the directory holding the registry; payload files may live
    anywhere on the local filesystem. One ``Storage`` instance manages one
    dataset, like one dataset registration in the paper.
    """

    def __init__(
        self,
        spark: SparkSession,
        root: str,
        file_wrapper: FileWrapper,
        *,
        send_buffer_size: int = 8192,
    ) -> None:
        self.spark = spark
        self.root = root
        self.file_wrapper = file_wrapper
        self.send_buffer_size = send_buffer_size
        self.registry_path = os.path.join(root, "registry")
        self._files: dict[int, str] = {}  # file_id -> path (one entry per ingested file)
        self._next_key = 0
        self._next_file_id = 0
        self._lock = threading.Lock()  # guards the hot-path index and the ingest lists
        self._ingest_lock = threading.Lock()  # serializes ingests
        # per committed ingest: its first sample key and its registry file
        self._ingest_starts: list[int] = []
        self._ingest_files: list[str] = []
        # In-memory metadata index for the hot path (keys are dense, so
        # position == sample_key); chunks are consolidated lazily.
        self._idx_file: list[np.ndarray] = []
        self._idx_pos: list[np.ndarray] = []
        self._idx_label: list[np.ndarray] = []
        self._idx_ts: list[np.ndarray] = []
        os.makedirs(root, exist_ok=True)

    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(file_id, idx, label, timestamp) per sample key."""
        with self._lock:
            if len(self._idx_file) > 1:
                self._idx_file = [np.concatenate(self._idx_file)]
                self._idx_pos = [np.concatenate(self._idx_pos)]
                self._idx_label = [np.concatenate(self._idx_label)]
                self._idx_ts = [np.concatenate(self._idx_ts)]
            if not self._idx_file:
                empty = np.empty(0, np.int64)
                return empty, empty, empty, empty
            return self._idx_file[0], self._idx_pos[0], self._idx_label[0], self._idx_ts[0]

    # ----------------------------------------------------------- ingestion
    def ingest_files(
        self,
        paths: Sequence[str],
        *,
        timestamps: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Register a batch of payload files; returns the new sample keys.

        Mirrors the paper's ingest: each file is opened through the
        wrapper for its sample count and labels, and the whole batch is
        one bulk append to the Parquet registry (the COPY analog): one
        Arrow-built file written from the driver, so no Spark job runs.
        ``timestamps`` gives one arrival timestamp per *file* (all samples
        of a file share it), defaulting to 0. An empty ``paths`` writes
        nothing.
        """
        if timestamps is not None and len(timestamps) != len(paths):
            raise ValueError("one timestamp per file required")
        if len(paths) == 0:
            return np.empty(0, np.int64)
        with self._ingest_lock:
            next_key, next_file_id = self._next_key, self._next_file_id
            counts = np.empty(len(paths), np.int64)
            labels = []
            for i, path in enumerate(paths):
                counts[i] = self.file_wrapper.get_number_of_samples(path)
                labels.append(self.file_wrapper.get_labels(path))
                if len(labels[-1]) != counts[i]:
                    raise ValueError(
                        f"{path}: {counts[i]} samples but {len(labels[-1])} labels"
                    )
            n = int(counts.sum())
            keys = np.arange(next_key, next_key + n, dtype=np.int64)
            file_ids = np.repeat(
                np.arange(next_file_id, next_file_id + len(paths), dtype=np.int64), counts
            )
            # position in the file: offset in the batch minus the file's start
            starts = np.cumsum(counts) - counts
            positions = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
            labels = np.concatenate(labels).astype(np.int64, copy=False)
            ts = np.repeat(
                np.zeros(len(paths), np.int64)
                if timestamps is None
                else np.asarray(timestamps, np.int64),
                counts,
            )
            # The registry append is the commit point: the hot-path index
            # learns the new keys only once the registry holds them, so a
            # failed write leaves both exactly as they were.
            registry_file = parquet.append(
                self.registry_path, (keys, file_ids, positions, labels, ts), _REGISTRY_ARROW
            )
            with self._lock:
                self._ingest_starts.append(next_key)
                self._ingest_files.append(registry_file)
                self._files.update(zip(range(next_file_id, next_file_id + len(paths)), paths))
                self._idx_file.append(file_ids)
                self._idx_pos.append(positions)
                self._idx_label.append(labels)
                self._idx_ts.append(ts)
                self._next_key = next_key + n
                self._next_file_id = next_file_id + len(paths)
        return keys

    def ingest_file(self, path: str, *, timestamp: int = 0) -> np.ndarray:
        """Register a single payload file (convenience wrapper)."""
        return self.ingest_files([path], timestamps=[timestamp])

    # ----------------------------------------------------------- metadata
    def registry_df(self, keys: np.ndarray | None = None) -> DataFrame:
        """The registry files this ``Storage`` committed, as one Parquet
        scan (``parquet.scan``: planning launches no Spark job up to 32
        files).

        The scan reads the files committed before the call, so it sees
        every committed ingest and nothing of a failed one, and on a
        root an earlier ``Storage`` ingested into, none of that one's
        rows. With ``keys``, it reads only the files of the ingests
        holding them (their other rows included), picked on the driver:
        no key filter enters the plan. Spark compiles a filter's bounds
        into the stage's generated code, so a filter on each new key
        range compiles new classes (tens of ms); this plan's code is the
        same for every key set. Raises ``KeyError`` for unknown keys.
        """
        with self._lock:
            files, n = list(self._ingest_files), self._next_key
            starts = np.asarray(self._ingest_starts, np.int64)
        if keys is not None:
            keys = _known(keys, n)
            ingests = np.unique(np.searchsorted(starts, keys, side="right") - 1)
            files = [files[i] for i in ingests.tolist()]
        return parquet.scan(self.spark, files, _REGISTRY_COLUMNS)

    def file_paths(self, keys: np.ndarray) -> dict[int, str]:
        """``file_id -> path`` for the files holding ``keys``.

        Read from the hot-path index without the modeled DB latency (a
        stage's driver-side set-up, not a per-request query). Raises
        ``KeyError`` for unknown keys, as ``lookup`` does.
        """
        file_by_key = self._index()[0]
        file_ids = np.unique(file_by_key[_known(keys, len(file_by_key))])
        with self._lock:
            return {f: self._files[f] for f in file_ids.tolist()}

    @property
    def num_samples(self) -> int:
        return self._next_key

    def get_metadata(self, keys: np.ndarray) -> pd.DataFrame:
        """key -> (file_id, idx, label) for the given keys, via a Spark join.

        This is the per-request "Postgres query" of the paper: its cost
        scales with both registry size and the number of requested keys.
        """
        if len(keys) == 0:
            return pd.DataFrame(columns=_REGISTRY_COLUMNS).astype("int64")
        want = self.spark.createDataFrame(
            pd.DataFrame({"sample_key": np.asarray(keys, np.int64)})
        )
        hit = self.registry_df().join(F.broadcast(want), "sample_key", "inner")
        pdf = hit.select(*_REGISTRY_COLUMNS).toPandas()
        if len(pdf) != len(keys):
            missing = set(np.asarray(keys).tolist()) - set(pdf["sample_key"].tolist())
            raise KeyError(f"unknown sample keys (first few): {sorted(missing)[:5]}")
        return pdf

    def new_data_batches(
        self, *, batch_size: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Replay all samples ordered by (timestamp, key) in batches.

        This is the paper's *experiment mode*: the storage announces
        existing data points as "new" to the supervisor, ordered by time.
        Yields ``(keys, timestamps, labels)`` arrays of ``batch_size``.
        The order comes from the in-memory index, not a Spark sort of
        the registry: keys are dense, so a stable sort by timestamp
        keeps keys ascending within a timestamp.
        """
        _, _, label_by_key, ts_by_key = self._index()
        order = np.argsort(ts_by_key, kind="stable")
        for start in range(0, len(order), batch_size):
            keys = order[start : start + batch_size].astype(np.int64)
            yield keys, ts_by_key[keys], label_by_key[keys]

    # ----------------------------------------------------------- retrieval
    def lookup(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hot-path metadata lookup: (file_id, idx, label) per key.

        Served from the in-memory index the ingest maintains, plus a
        simulated DB round-trip latency scaling with the request size
        (see module doc). Raises ``KeyError`` for unknown keys.
        """
        file_by_key, pos_by_key, label_by_key, _ = self._index()
        keys = _known(keys, len(file_by_key))
        time.sleep(_DB_BASE_S + _DB_PER_KEY_S * len(keys))
        return file_by_key[keys], pos_by_key[keys], label_by_key[keys]

    def _retrieve_part(
        self, keys: np.ndarray, out: "queue.Queue[SampleBuffer | None]"
    ) -> None:
        """One storage thread: metadata lookup, then the keys sorted by
        file and cut into send buffers, each filled by one file-wrapper
        call over its files (paper Fig. 6)."""
        file_ids, positions, labels = self.lookup(keys)
        order = np.lexsort((positions, file_ids))  # sorted by file
        keys, file_ids, positions, labels = (
            keys[order], file_ids[order], positions[order], labels[order]
        )
        for lo in range(0, len(keys), self.send_buffer_size):
            hi = lo + self.send_buffer_size
            run_files, run_positions = file_runs(file_ids[lo:hi], positions[lo:hi])
            payloads = self.file_wrapper.get_samples_of_files(
                [self._files[f] for f in run_files], run_positions
            )
            out.put(SampleBuffer(keys[lo:hi], labels[lo:hi], payloads))

    def retrieve_stream(
        self, keys: np.ndarray, *, storage_threads: int = 1
    ) -> Iterator[SampleBuffer]:
        """Stream send buffers for an arbitrary key set.

        The key list is split into ``storage_threads`` equal parts; each
        part is a task on the global I/O pool running its own metadata
        query + file reads. Buffers are yielded as they become available
        (the trainer "fetches data as soon as available", §4.2.1).
        """
        keys = np.asarray(keys, np.int64)
        if storage_threads < 1:
            raise ValueError("storage_threads must be >= 1")
        if len(keys) == 0:
            return
        parts = [p for p in np.array_split(keys, storage_threads) if len(p)]
        out: "queue.Queue[SampleBuffer | None]" = queue.Queue()

        def _run(part: np.ndarray) -> None:
            try:
                self._retrieve_part(part, out)
            finally:
                out.put(None)

        futures = [_IO_POOL.submit(_run, p) for p in parts]
        done = 0
        while done < len(parts):
            item = out.get()
            if item is None:
                done += 1
            else:
                yield item
        for f in futures:  # surface worker exceptions
            f.result()

    def get_samples(
        self, keys: np.ndarray, *, storage_threads: int = 1
    ) -> SampleBuffer:
        """All requested samples as one buffer (order not guaranteed)."""
        return SampleBuffer.concat(
            list(self.retrieve_stream(keys, storage_threads=storage_threads))
        )
