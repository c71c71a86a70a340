"""Selector metadata backends (paper §4.1.2 "Metadata backends").

``SparkMetadataBackend`` is the Postgres-backend analog: seen samples are
appended to a Parquet table partitioned by trigger (mirroring the paper's
per-pipeline/per-trigger Postgres table partitioning, which keeps insert
performance flat as triggers accumulate), and selection policies are
expressed as Spark SQL / DataFrame queries over it. Appends are written
from the driver (``repro.storage.parquet``); Spark only reads, one scan
over the files this backend committed to the requested triggers.

``LocalMetadataBackend`` is the C++-extension analog: seen samples are
written as fixed-record binary files by a thread pool
(``repro.selector.records``) and read back as numpy arrays — fast, but
only simple strategies can run on it.
"""
from __future__ import annotations

import os
import shutil
import threading
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.selector import records
from repro.storage import parquet

# The seen-sample columns, all int64: the Spark backend's Parquet schemas
# and the local backend's binary record are derived from this one tuple.
_SEEN_COLUMNS = ("sample_key", "label", "timestamp")
SEEN_DTYPE = np.dtype([(c, "<i8") for c in _SEEN_COLUMNS])
_SEEN_ARROW = parquet.arrow_schema(_SEEN_COLUMNS)
# What the Spark backend reads: the files' columns, then ``trigger_id``
# as a partition value from the bucket directory's name.
_BUCKET_COLUMNS = (*_SEEN_COLUMNS, "trigger_id")


class MetadataBackend(ABC):
    """Persists samples seen by the selector, bucketed by trigger id."""

    @abstractmethod
    def persist(
        self,
        trigger_id: int,
        keys: np.ndarray,
        labels: np.ndarray,
        timestamps: np.ndarray,
    ) -> None:
        """Append a batch of seen samples to the ``trigger_id`` bucket."""

    @abstractmethod
    def get(self, trigger_ids: Sequence[int]) -> pd.DataFrame:
        """All seen samples of the given trigger buckets as a pandas frame
        with columns (sample_key, label, timestamp, trigger_id)."""

    @abstractmethod
    def count(self, trigger_ids: Sequence[int]) -> int:
        """Number of seen samples across the given trigger buckets."""

    def reset(self, trigger_id: int) -> None:
        """Drop state of one trigger bucket (after reset_after_trigger)."""


class SparkMetadataBackend(MetadataBackend):
    """Parquet-per-trigger metadata store queried through Spark SQL.

    Every query is planned in ``spark``: a session of its own, sharing
    the given session's context, whose plans run without generated
    code. Spark compiles a plan's constants into its generated code, and
    every query here carries per-trigger ones (a strategy's random
    seed), so with code generation each trigger would compile new
    classes (about 20-60 ms per query on 4 cores); interpreted, the
    queries return the same rows in the same order and compile nothing.
    """

    def __init__(self, spark: SparkSession, root: str, *, pipeline_id: str = "p0"):
        self.spark = spark.newSession()
        self.spark.conf.set("spark.sql.codegen.wholeStage", "false")
        self.spark.conf.set("spark.sql.codegen.factoryMode", "NO_CODEGEN")
        # Partition by pipeline first, then trigger — the paper's layout.
        self.root = os.path.join(root, f"pipeline={pipeline_id}")
        # trigger id -> (path, rows) of each file this backend committed
        # to the bucket: what ``df`` scans, and ``count`` without a job
        self._files: dict[int, list[tuple[str, int]]] = {}
        self._lock = threading.Lock()
        os.makedirs(self.root, exist_ok=True)

    def _bucket(self, trigger_id: int) -> str:
        return os.path.join(self.root, f"trigger_id={int(trigger_id)}")

    def persist(self, trigger_id, keys, labels, timestamps) -> None:
        # Bulk append into the trigger's own physical partition — the
        # analog of SQL bulk insertion into a fresh per-trigger table: one
        # Arrow-built file per call, written from the driver (no Spark
        # job). An empty batch still writes a file, so the bucket exists
        # and carries the schema.
        path = parquet.append(self._bucket(trigger_id), (keys, labels, timestamps), _SEEN_ARROW)
        with self._lock:
            self._files.setdefault(int(trigger_id), []).append((path, len(keys)))

    def df(self, trigger_ids: Sequence[int]) -> DataFrame:
        """The requested trigger buckets as one Spark DataFrame: one scan
        (``parquet.scan``) over exactly the files this backend committed
        to them, ``trigger_id`` a ``long`` partition value read from each
        file's bucket directory name.

        So the rows match ``count``: a bucket directory that another
        backend on the same root wrote into shows only this one's files.
        Buckets are read with the schema ``persist`` writes, so planning
        the scan runs no Spark job (no footer read to infer it).
        """
        with self._lock:
            files = [f for t in trigger_ids for f, _ in self._files.get(int(t), ())]
        return parquet.scan(self.spark, files, _BUCKET_COLUMNS, base=self.root)

    def get(self, trigger_ids: Sequence[int]) -> pd.DataFrame:
        return self.df(trigger_ids).toPandas()

    def count(self, trigger_ids: Sequence[int]) -> int:
        with self._lock:
            return sum(n for t in trigger_ids for _, n in self._files.get(int(t), ()))

    def reset(self, trigger_id: int) -> None:
        with self._lock:
            self._files.pop(int(trigger_id), None)
        shutil.rmtree(self._bucket(trigger_id), ignore_errors=True)


class LocalMetadataBackend(MetadataBackend):
    """Binary-file metadata store written by a thread pool.

    Each ``persist`` call writes the batch as at most ``n_threads``
    fixed-record chunk files inside the trigger's directory (the paper's
    multithreaded NVMe writes). The backend records every chunk it
    wrote, so ``get`` reads the chunks in persist order and ``count``
    sums their sizes, neither listing nor reading the directory.
    """

    def __init__(self, root: str, *, pipeline_id: str = "p0", n_threads: int = 4):
        self.root = os.path.join(root, f"pipeline={pipeline_id}")
        self.n_threads = max(1, int(n_threads))
        # trigger id -> the bucket's chunks, in persist order
        self._chunks: dict[int, list[records.Chunk]] = {}
        self._lock = threading.Lock()
        os.makedirs(self.root, exist_ok=True)

    def _bucket(self, trigger_id: int) -> str:
        return os.path.join(self.root, f"trigger_id={int(trigger_id)}")

    def persist(self, trigger_id, keys, labels, timestamps) -> None:
        if len(keys) == 0:
            return
        arr = np.empty(len(keys), dtype=SEEN_DTYPE)
        arr["sample_key"] = np.asarray(keys, np.int64)
        arr["label"] = np.asarray(labels, np.int64)
        arr["timestamp"] = np.asarray(timestamps, np.int64)
        # held over the write: a batch is recorded, and so read, only
        # once all of its chunks are on disk
        with self._lock:
            chunks = self._chunks.setdefault(int(trigger_id), [])
            chunks += records.write(
                self._bucket(trigger_id), f"seen_{len(chunks):06d}", arr,
                min(self.n_threads, len(arr)),
            )

    def get(self, trigger_ids: Sequence[int]) -> pd.DataFrame:
        frames = []
        for t in trigger_ids:
            with self._lock:
                chunks = list(self._chunks.get(int(t), ()))
            arr = records.read(self._bucket(t), chunks, SEEN_DTYPE)
            frames.append(
                pd.DataFrame(
                    {
                        "sample_key": arr["sample_key"],
                        "label": arr["label"],
                        "timestamp": arr["timestamp"],
                        "trigger_id": np.full(len(arr), int(t), np.int64),
                    }
                )
            )
        return (
            pd.concat(frames, ignore_index=True)
            if frames
            else pd.DataFrame(
                columns=["sample_key", "label", "timestamp", "trigger_id"]
            ).astype("int64")
        )

    def count(self, trigger_ids: Sequence[int]) -> int:
        with self._lock:
            return sum(n for t in trigger_ids for _, n in self._chunks.get(int(t), ()))

    def reset(self, trigger_id: int) -> None:
        with self._lock:
            self._chunks.pop(int(trigger_id), None)
            shutil.rmtree(self._bucket(trigger_id), ignore_errors=True)
