"""The storage service (paper §4.1.4 + §4.2.3 retrieval hot path).

Sample *payloads* live in files (via a ``FileWrapper``); sample *metadata*
(key -> file, index-in-file, label, timestamp) lives in a growing Parquet
registry queried through Spark SQL — the stand-in for the paper's
Postgres database (see DESIGN.md).

Retrieval follows the paper's Figure 6: the positions of an incoming key
list are split into ``storage_threads`` equal runs; each run does its
*own* metadata lookup, sorts the hits by source file and cuts them into
``send_buffer_size`` slices, and emits each slice as a send buffer as
soon as one ``FileWrapper.get_samples_of_files`` call has read its
payloads (one call per buffer rather than per file: for one-sample
files a per-file call's fixed cost is most of the read). A buffer is in
file order, so it carries each sample's position in the request
(``SampleBuffer.rows``); callers pick per-request values such as
weights with it, and a key requested twice is two rows.
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

All metadata state is one frozen snapshot (``_Index``: the per-key
columns, the file paths, and each ingest's first key and registry
file). An ingest builds the next snapshot and publishes it with one
attribute store after its registry append, so every reader takes the
snapshot once, without a lock, and sees a committed state whole.
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


_EMPTY = np.empty(0, np.int64)


@dataclass(frozen=True, eq=False)
class _Index:
    """One published snapshot of the storage's metadata.

    Per sample key (keys are dense, so position == key): its file id,
    index in that file, label and timestamp. ``paths[f]`` is the path of
    file id ``f``; ``ingest_starts[i]`` and ``ingest_files[i]`` are the
    first key and the registry file of committed ingest ``i``. An ingest
    builds a new snapshot and publishes it with one attribute store, so
    a reader that takes ``Storage._ix`` once sees one consistent state
    without a lock.
    """

    file_id: np.ndarray
    idx: np.ndarray
    label: np.ndarray
    ts: np.ndarray
    paths: tuple[str, ...]
    ingest_starts: tuple[int, ...]
    ingest_files: tuple[str, ...]

    def known(self, keys: np.ndarray) -> np.ndarray:
        """``keys`` as int64; ``KeyError`` unless every key is in the index."""
        keys = np.asarray(keys, np.int64)
        n = len(self.file_id)
        if len(keys) and (keys.min() < 0 or keys.max() >= n):
            bad = keys[(keys < 0) | (keys >= n)]
            raise KeyError(f"unknown sample keys (first few): {bad[:5].tolist()}")
        return keys


@dataclass
class SampleBuffer:
    """One send buffer emitted by the storage (gRPC-streaming analog).

    Samples come in file order, not request order: ``rows[i]`` is the
    position in the request of sample ``i``, so a caller picks its
    per-request values (weights) with ``values[buf.rows]``.
    """

    keys: np.ndarray  # int64
    labels: np.ndarray  # int64
    payloads: Payloads
    rows: np.ndarray  # int64, positions in the request

    def __len__(self) -> int:
        return len(self.payloads)

    @staticmethod
    def concat(buffers: Sequence["SampleBuffer"]) -> "SampleBuffer":
        """One buffer holding ``buffers`` in order (payloads: one copy)."""
        if len(buffers) == 1:
            return buffers[0]
        return SampleBuffer(
            np.concatenate([b.keys for b in buffers] or [_EMPTY]),
            np.concatenate([b.labels for b in buffers] or [_EMPTY]),
            Payloads.concat([b.payloads for b in buffers]),
            np.concatenate([b.rows for b in buffers] or [_EMPTY]),
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
        self._ix = _Index(_EMPTY, _EMPTY, _EMPTY, _EMPTY, (), (), ())
        self._ingest_lock = threading.Lock()  # serializes ingests
        os.makedirs(root, exist_ok=True)

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
            ix = self._ix
            next_key, next_file_id = len(ix.file_id), len(ix.paths)
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
            # The registry append is the commit point: the next snapshot is
            # published only once the registry holds its keys, so a failed
            # write leaves both exactly as they were.
            registry_file = parquet.append(
                self.registry_path, (keys, file_ids, positions, labels, ts), _REGISTRY_ARROW
            )
            columns = (file_ids, positions, labels, ts)
            if next_key:  # the published columns, extended (a copy)
                published = (ix.file_id, ix.idx, ix.label, ix.ts)
                columns = [np.concatenate(c) for c in zip(published, columns)]
            self._ix = _Index(
                *columns,
                ix.paths + tuple(paths),
                ix.ingest_starts + (next_key,),
                ix.ingest_files + (registry_file,),
            )
        return keys

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
        ix = self._ix
        files = ix.ingest_files
        if keys is not None:
            keys = ix.known(keys)
            ingests = np.unique(np.searchsorted(ix.ingest_starts, keys, side="right") - 1)
            files = [files[i] for i in ingests.tolist()]
        return parquet.scan(self.spark, files, _REGISTRY_COLUMNS)

    def file_paths(self, keys: np.ndarray) -> dict[int, str]:
        """``file_id -> path`` for the files holding ``keys``.

        Read from the hot-path index without the modeled DB latency (a
        stage's driver-side set-up, not a per-request query). Raises
        ``KeyError`` for unknown keys, as ``lookup`` does.
        """
        ix = self._ix
        file_ids = np.unique(ix.file_id[ix.known(keys)])
        return {f: ix.paths[f] for f in file_ids.tolist()}

    @property
    def num_samples(self) -> int:
        return len(self._ix.file_id)

    def get_metadata(self, keys: np.ndarray) -> pd.DataFrame:
        """key -> (file_id, idx, label) for the given keys, via a Spark join.

        The stage path's form of the hot path's ``lookup``: tests hold
        ``lookup`` against it, and retrieval does not call it.
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
        ix = self._ix
        order = np.argsort(ix.ts, kind="stable")
        for start in range(0, len(order), batch_size):
            keys = order[start : start + batch_size].astype(np.int64)
            yield keys, ix.ts[keys], ix.label[keys]

    # ----------------------------------------------------------- retrieval
    def lookup(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hot-path metadata lookup: (file_id, idx, label) per key.

        Served from the in-memory index the ingest maintains, plus a
        simulated DB round-trip latency scaling with the request size
        (see module doc). Raises ``KeyError`` for unknown keys.
        """
        ix = self._ix
        keys = ix.known(keys)
        time.sleep(_DB_BASE_S + _DB_PER_KEY_S * len(keys))
        return ix.file_id[keys], ix.idx[keys], ix.label[keys]

    def _retrieve_part(
        self,
        keys: np.ndarray,
        rows: np.ndarray,
        out: "queue.Queue[SampleBuffer | None]",
    ) -> None:
        """One storage thread: metadata lookup of ``keys[rows]``, then the
        hits sorted by file and cut into send buffers, each filled by one
        file-wrapper call over its files (paper Fig. 6)."""
        keys = keys[rows]
        file_ids, positions, labels = self.lookup(keys)
        # taken after the lookup, so it holds every file id the lookup saw
        paths = self._ix.paths
        order = np.lexsort((positions, file_ids))  # sorted by file
        keys, rows, file_ids, positions, labels = (
            keys[order], rows[order], file_ids[order], positions[order], labels[order]
        )
        for lo in range(0, len(keys), self.send_buffer_size):
            hi = lo + self.send_buffer_size
            run_files, run_positions = file_runs(file_ids[lo:hi], positions[lo:hi])
            payloads = self.file_wrapper.get_samples_of_files(
                [paths[f] for f in run_files], run_positions
            )
            out.put(SampleBuffer(keys[lo:hi], labels[lo:hi], payloads, rows[lo:hi]))

    def retrieve_stream(
        self, keys: np.ndarray, *, storage_threads: int = 1
    ) -> Iterator[SampleBuffer]:
        """Stream send buffers for an arbitrary key set.

        The request's positions are split into ``storage_threads`` equal
        runs; each is a task on the global I/O pool running its own
        metadata query + file reads. Buffers are yielded as they become
        available (the trainer "fetches data as soon as available",
        §4.2.1), each with its samples' request positions (``rows``).
        """
        keys = np.asarray(keys, np.int64)
        if storage_threads < 1:
            raise ValueError("storage_threads must be >= 1")
        if len(keys) == 0:
            return
        parts = [
            p for p in np.array_split(np.arange(len(keys)), storage_threads) if len(p)
        ]
        out: "queue.Queue[SampleBuffer | None]" = queue.Queue()

        def _run(rows: np.ndarray) -> None:
            try:
                self._retrieve_part(keys, rows, out)
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
        """All requested samples as one buffer, in storage order: ``rows``
        gives each sample's position in the request."""
        return SampleBuffer.concat(
            list(self.retrieve_stream(keys, storage_threads=storage_threads))
        )
