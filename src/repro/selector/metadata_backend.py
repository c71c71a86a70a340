"""Selector metadata backends (paper §4.1.2 "Metadata backends").

``SparkMetadataBackend`` is the Postgres-backend analog: seen samples are
appended to a Parquet table partitioned by trigger (mirroring the paper's
per-pipeline/per-trigger Postgres table partitioning, which keeps insert
performance flat as triggers accumulate), and selection policies are
expressed as Spark SQL / DataFrame queries over it. Appends are written
from the driver (``repro.storage.parquet``); Spark only reads.

``LocalMetadataBackend`` is the C++-extension analog: seen samples are
written as fixed-record binary files by a thread pool and read back as
numpy arrays — fast, but only simple strategies can run on it.
"""
from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.storage import parquet

# The seen-sample columns, all int64: the Spark backend's Parquet schemas
# and the local backend's binary record are derived from this one tuple.
_SEEN_COLUMNS = ("sample_key", "label", "timestamp")
SEEN_DTYPE = np.dtype([(c, "<i8") for c in _SEEN_COLUMNS])
_SEEN_SCHEMA = parquet.spark_ddl(_SEEN_COLUMNS)
_SEEN_ARROW = parquet.arrow_schema(_SEEN_COLUMNS)

# Spark compiles a plan's constants into its generated code, and every
# query on the Spark backend carries per-trigger ones (the trigger id
# column, a strategy's random seed): each trigger would compile new
# classes, about 20-60 ms per query. Up to this many rows evaluating the
# plan interpreted costs no more than that (measured on 4 cores: level
# at 1e5 rows, codegen ahead from about 3e5), so smaller queries run in
# an interpreted session.
_INTERPRETED_MAX_ROWS = 100_000


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

    Queries over at most ``_INTERPRETED_MAX_ROWS`` rows are planned in
    ``interpreted``: a session sharing ``spark``'s context whose plans
    run without generated code. It answers with the same rows, in the
    same order, as ``spark`` would.
    """

    def __init__(self, spark: SparkSession, root: str, *, pipeline_id: str = "p0"):
        self.spark = spark
        self.interpreted = spark.newSession()
        self.interpreted.conf.set("spark.sql.codegen.wholeStage", "false")
        self.interpreted.conf.set("spark.sql.codegen.factoryMode", "NO_CODEGEN")
        # Partition by pipeline first, then trigger — the paper's layout.
        self.root = os.path.join(root, f"pipeline={pipeline_id}")
        # rows persisted per trigger bucket: which buckets exist, and
        # ``count`` without a Spark job
        self._rows: dict[int, int] = {}
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
        parquet.append(self._bucket(trigger_id), (keys, labels, timestamps), _SEEN_ARROW)
        with self._lock:
            t = int(trigger_id)
            self._rows[t] = self._rows.get(t, 0) + len(keys)

    def df(self, trigger_ids: Sequence[int]) -> DataFrame:
        """The requested trigger buckets as one Spark DataFrame.

        Buckets are read with the schema ``persist`` writes, so planning
        the scan runs no Spark job (no footer read to infer it). The
        frame belongs to ``interpreted`` if the buckets hold at most
        ``_INTERPRETED_MAX_ROWS`` rows, else to ``spark``.
        """
        small = self.count(trigger_ids) <= _INTERPRETED_MAX_ROWS
        spark = self.interpreted if small else self.spark
        frames = []
        for t in trigger_ids:
            if int(t) in self._rows:
                frames.append(
                    spark.read.schema(_SEEN_SCHEMA)
                    .parquet(self._bucket(t))
                    .withColumn("trigger_id", F.lit(int(t)))
                )
        if not frames:
            return spark.createDataFrame([], _SEEN_SCHEMA + ", trigger_id long")
        out = frames[0]
        for f in frames[1:]:
            out = out.unionByName(f)
        return out

    def get(self, trigger_ids: Sequence[int]) -> pd.DataFrame:
        return self.df(trigger_ids).toPandas()

    def count(self, trigger_ids: Sequence[int]) -> int:
        with self._lock:
            return sum(self._rows.get(int(t), 0) for t in trigger_ids)

    def reset(self, trigger_id: int) -> None:
        import shutil

        with self._lock:
            self._rows.pop(int(trigger_id), None)
        shutil.rmtree(self._bucket(trigger_id), ignore_errors=True)


class LocalMetadataBackend(MetadataBackend):
    """Binary-file metadata store written by a thread pool.

    Each ``persist`` call splits the batch across ``n_threads`` fixed-
    record binary files inside the trigger's directory (the paper's
    multithreaded NVMe writes); reads memory-map and concatenate.
    """

    def __init__(self, root: str, *, pipeline_id: str = "p0", n_threads: int = 4):
        self.root = os.path.join(root, f"pipeline={pipeline_id}")
        self.n_threads = max(1, int(n_threads))
        self._chunk_counters: dict[int, int] = {}
        self._lock = threading.Lock()
        os.makedirs(self.root, exist_ok=True)

    def _bucket(self, trigger_id: int) -> str:
        d = os.path.join(self.root, f"trigger_id={int(trigger_id)}")
        os.makedirs(d, exist_ok=True)
        return d

    def persist(self, trigger_id, keys, labels, timestamps) -> None:
        arr = np.empty(len(keys), dtype=SEEN_DTYPE)
        arr["sample_key"] = np.asarray(keys, np.int64)
        arr["label"] = np.asarray(labels, np.int64)
        arr["timestamp"] = np.asarray(timestamps, np.int64)
        bucket = self._bucket(trigger_id)
        with self._lock:
            start = self._chunk_counters.get(int(trigger_id), 0)
            parts = [p for p in np.array_split(arr, self.n_threads) if len(p)]
            self._chunk_counters[int(trigger_id)] = start + len(parts)

        def _write(i_part: tuple[int, np.ndarray]) -> None:
            i, part = i_part
            path = os.path.join(bucket, f"seen_{start + i:06d}.bin")
            with open(path, "wb") as f:
                f.write(part.tobytes())

        with ThreadPoolExecutor(max_workers=self.n_threads) as pool:
            list(pool.map(_write, enumerate(parts)))

    def _read_bucket(self, trigger_id: int) -> np.ndarray:
        bucket = os.path.join(self.root, f"trigger_id={int(trigger_id)}")
        if not os.path.isdir(bucket):
            return np.empty(0, dtype=SEEN_DTYPE)
        chunks = [
            np.fromfile(os.path.join(bucket, f), dtype=SEEN_DTYPE)
            for f in sorted(os.listdir(bucket))
            if f.endswith(".bin")
        ]
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=SEEN_DTYPE)

    def get(self, trigger_ids: Sequence[int]) -> pd.DataFrame:
        frames = []
        for t in trigger_ids:
            arr = self._read_bucket(t)
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
        return sum(len(self._read_bucket(t)) for t in trigger_ids)

    def reset(self, trigger_id: int) -> None:
        import shutil

        with self._lock:
            self._chunk_counters.pop(int(trigger_id), None)
        shutil.rmtree(
            os.path.join(self.root, f"trigger_id={int(trigger_id)}"),
            ignore_errors=True,
        )
