"""Tests for the selector metadata backends (paper §4.1.2)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.selector.metadata_backend import (
    LocalMetadataBackend,
    SparkMetadataBackend,
)


def _persist_batches(backend):
    backend.persist(0, np.arange(10), np.arange(10) % 3, np.zeros(10))
    backend.persist(0, np.arange(10, 15), np.arange(5) % 3, np.ones(5))
    backend.persist(1, np.arange(100, 120), np.arange(20) % 3, np.full(20, 2))


@pytest.fixture(params=["spark", "local"])
def backend(request, spark, tmp_path):
    if request.param == "spark":
        return SparkMetadataBackend(spark, str(tmp_path / "meta"))
    return LocalMetadataBackend(str(tmp_path / "meta"), n_threads=3)


class TestBackendContract:
    def test_persist_and_get_single_trigger(self, backend):
        _persist_batches(backend)
        pdf = backend.get([0])
        assert sorted(pdf["sample_key"]) == list(range(15))
        assert set(pdf["trigger_id"]) == {0}

    def test_get_multiple_triggers(self, backend):
        _persist_batches(backend)
        pdf = backend.get([0, 1])
        assert len(pdf) == 35
        assert set(pdf["trigger_id"]) == {0, 1}

    def test_count(self, backend):
        _persist_batches(backend)
        assert backend.count([0]) == 15
        assert backend.count([1]) == 20
        assert backend.count([0, 1]) == 35

    def test_labels_and_timestamps_roundtrip(self, backend):
        _persist_batches(backend)
        pdf = backend.get([0]).sort_values("sample_key")
        assert pdf["label"].tolist() == [k % 3 for k in range(10)] + [k % 3 for k in range(5)]
        assert pdf["timestamp"].tolist() == [0] * 10 + [1] * 5

    def test_reset_drops_one_bucket_only(self, backend):
        _persist_batches(backend)
        backend.reset(0)
        assert backend.count([0]) == 0
        assert backend.count([1]) == 20

    def test_empty_bucket(self, backend):
        assert backend.count([5]) == 0
        assert len(backend.get([5])) == 0


class TestSparkBackend:
    def test_bucket_is_physical_partition(self, spark, tmp_path):
        # the paper's per-trigger table partitioning: each trigger has its
        # own directory, so inserts never touch other triggers
        import os

        b = SparkMetadataBackend(spark, str(tmp_path / "meta"), pipeline_id="px")
        _persist_batches(b)
        root = str(tmp_path / "meta" / "pipeline=px")
        assert sorted(os.listdir(root)) == ["trigger_id=0", "trigger_id=1"]

    def test_sql_query_matches_duckdb(self, spark, tmp_path):
        b = SparkMetadataBackend(spark, str(tmp_path / "meta"))
        _persist_batches(b)
        df = (
            b.df([0, 1])
            .groupBy("trigger_id", "label")
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            df,
            "SELECT trigger_id, label, count(*) AS n FROM seen GROUP BY trigger_id, label",
            seen=b.df([0, 1]),
        )

    def test_pipelines_isolated(self, spark, tmp_path):
        a = SparkMetadataBackend(spark, str(tmp_path / "meta"), pipeline_id="a")
        b = SparkMetadataBackend(spark, str(tmp_path / "meta"), pipeline_id="b")
        a.persist(0, np.arange(5), np.zeros(5), np.zeros(5))
        b.persist(0, np.arange(7), np.zeros(7), np.zeros(7))
        assert a.count([0]) == 5
        assert b.count([0]) == 7

    def test_count_matches_spark_count(self, spark, tmp_path):
        """``count`` is kept on the driver; it must equal a Spark count."""
        b = SparkMetadataBackend(spark, str(tmp_path / "meta"))

        def parity(ids):
            assert b.count(ids) == b.df(ids).count()

        for i in range(3):  # repeated appends into one bucket
            b.persist(0, np.arange(10 * i, 10 * i + 4), np.zeros(4), np.zeros(4))
            parity([0])
        b.persist(1, np.arange(50, 70), np.zeros(20), np.ones(20))
        b.persist(2, np.arange(70, 71), np.zeros(1), np.ones(1))
        for ids in ([0], [1], [2], [0, 1], [0, 1, 2], [2, 0]):
            parity(ids)
        b.reset(1)
        for ids in ([1], [0, 1, 2]):
            parity(ids)
        b.persist(1, np.arange(5), np.zeros(5), np.zeros(5))  # refilled after reset
        for ids in ([1], [0, 1, 2], [7], [1, 7], []):
            parity(ids)
        assert b.count([0, 1, 2]) == 12 + 5 + 1
        empty = np.array([], np.int64)
        b.persist(0, empty, empty, empty)  # into a filled bucket
        b.persist(3, empty, empty, empty)  # as a bucket's first batch
        for ids in ([0], [3], [0, 3], [0, 1, 2, 3]):
            parity(ids)
        assert b.count([0, 1, 2, 3]) == 12 + 5 + 1


class TestLocalBackend:
    def test_multithreaded_chunk_files_on_disk(self, tmp_path):
        import os

        b = LocalMetadataBackend(str(tmp_path / "meta"), n_threads=4)
        b.persist(0, np.arange(100), np.zeros(100), np.zeros(100))
        bucket = str(tmp_path / "meta" / "pipeline=p0" / "trigger_id=0")
        files = os.listdir(bucket)
        assert len(files) == 4  # one binary chunk per write thread

    def test_appends_accumulate(self, tmp_path):
        b = LocalMetadataBackend(str(tmp_path / "meta"), n_threads=2)
        b.persist(0, np.arange(10), np.zeros(10), np.zeros(10))
        b.persist(0, np.arange(10, 20), np.zeros(10), np.zeros(10))
        assert b.count([0]) == 20
        assert sorted(b.get([0])["sample_key"]) == list(range(20))

    def test_single_thread(self, tmp_path):
        b = LocalMetadataBackend(str(tmp_path / "meta"), n_threads=1)
        b.persist(0, np.arange(7), np.arange(7), np.arange(7))
        pdf = b.get([0]).sort_values("sample_key")
        assert pdf["label"].tolist() == list(range(7))


class TestSparkBackendOnSharedRoot:
    def test_second_backend_reads_only_its_own_files(self, spark, tmp_path):
        """A backend on a root another one persisted into scans only the
        files it committed, so ``get`` agrees with ``count``."""
        root = str(tmp_path / "meta")
        first = SparkMetadataBackend(spark, root)
        first.persist(0, np.arange(10), np.zeros(10), np.zeros(10))
        second = SparkMetadataBackend(spark, root)
        second.persist(0, np.arange(100, 104), np.ones(4), np.ones(4))

        pdf = second.get([0])
        assert second.count([0]) == len(pdf) == 4
        assert sorted(pdf["sample_key"]) == [100, 101, 102, 103]
        assert set(pdf["trigger_id"]) == {0}
        assert first.count([0]) == len(first.get([0])) == 10
