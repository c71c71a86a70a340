"""Trigger-time Spark stages: registry scans and job budgets.

A registry scan reads exactly the files its ``Storage`` committed
before the call; these tests check that every stage reading the
registry sees each committed ingest and nothing of a failed one or of
an earlier ``Storage`` on the same root. The job-count guards pin how
many Spark jobs each trigger-time stage launches, so a driver round trip
added to a stage fails here instead of only slowing it, and the
generated-code guards pin that a later trigger compiles no new code.
"""
import sys
import threading
import uuid

import numpy as np
import pyarrow.parquet as pq
import pytest
from pyspark.sql.readwriter import DataFrameReader

from repro.models import SoftmaxRegression
from repro.selector.downsampling import GradNormDownsampler, score_keys_spark
from repro.selector.metadata_backend import LocalMetadataBackend, SparkMetadataBackend
from repro.selector.presampling import (
    LabelBalancedStrategy,
    NewDataStrategy,
    UniformRandomStrategy,
)
from repro.storage import SingleSampleFileWrapper, Storage
from repro.synth_data import cloc_batch_parser, generate_cloc_files

DIM, CLASSES, PER_YEAR = 6, 4, 30


@pytest.fixture()
def years(tmp_path):
    """Three years of one-sample cloc files: (paths, timestamps) per year."""
    out = []
    for y in (2004, 2005, 2006):
        out.append(
            generate_cloc_files(
                str(tmp_path / f"d{y}"), per_year=PER_YEAR, years=(y,),
                n_classes=CLASSES, dim=DIM,
            )
        )
    return out


@pytest.fixture()
def storage(spark, tmp_path):
    return Storage(spark, str(tmp_path / "s"), SingleSampleFileWrapper())


def _ingest(storage, year):
    paths, stamps = year
    return storage.ingest_files(paths, timestamps=stamps)


def _score(storage, keys):
    model = SoftmaxRegression(dim=DIM, n_classes=CLASSES, seed=1)
    return score_keys_spark(
        storage, model, GradNormDownsampler(), cloc_batch_parser, keys, parallelism=2
    )


class TestRegistryPlan:
    def test_reopened_root_scans_only_its_own_ingests(self, spark, storage, years):
        """A second ``Storage`` on a root that already holds a registry
        numbers its keys from 0 again, so it must not read the earlier
        one's files: each key appears once, as the index has it."""
        _ingest(storage, years[0])
        again = Storage(spark, storage.root, SingleSampleFileWrapper())
        keys = _ingest(again, years[1])
        assert keys.tolist() == list(range(PER_YEAR))
        assert again.registry_df().count() == again.num_samples == PER_YEAR
        meta = again.get_metadata(keys)
        assert sorted(meta["sample_key"]) == keys.tolist()
        _, _, labels = again.lookup(meta["sample_key"].to_numpy())
        assert meta["label"].tolist() == labels.tolist()
        assert sorted(_score(again, keys)["sample_key"]) == keys.tolist()

    def test_key_scan_reads_the_ingests_holding_the_keys(self, spark, storage, years):
        for year in years:
            _ingest(storage, year)

        def scanned(keys):
            df = storage.registry_df(np.asarray(keys))
            return sorted(df.toPandas()["sample_key"])

        second = list(range(PER_YEAR, 2 * PER_YEAR))
        assert scanned([PER_YEAR + 3]) == second
        assert scanned([2 * PER_YEAR - 1, PER_YEAR]) == second
        assert scanned([0, 2 * PER_YEAR]) == list(range(PER_YEAR)) + list(
            range(2 * PER_YEAR, 3 * PER_YEAR)
        )
        assert scanned([]) == []
        assert _spark_jobs(spark, lambda: storage.registry_df(np.arange(PER_YEAR))) == 0
        for bad in ([3 * PER_YEAR], [-1]):
            with pytest.raises(KeyError, match="unknown sample keys"):
                storage.registry_df(np.array(bad))

    def test_second_ingest_is_visible_to_every_stage(self, storage, years):
        _ingest(storage, years[0])
        assert storage.registry_df().count() == PER_YEAR
        assert len(_score(storage, np.arange(PER_YEAR))) == PER_YEAR

        new = _ingest(storage, years[1])
        assert new.tolist() == list(range(PER_YEAR, 2 * PER_YEAR))
        assert storage.registry_df().count() == 2 * PER_YEAR
        meta = storage.get_metadata(new)
        assert sorted(meta["sample_key"]) == new.tolist()
        assert sorted(_score(storage, new)["sample_key"]) == new.tolist()

    def test_failed_ingest_leaves_plan_and_retry_is_scorable(self, storage, years, monkeypatch):
        _ingest(storage, years[0])
        assert storage.registry_df().count() == PER_YEAR

        def failing_write(*args, **kwargs):
            raise OSError("injected registry write failure")

        with monkeypatch.context() as m:
            m.setattr(pq, "write_table", failing_write)
            with pytest.raises(OSError, match="injected"):
                _ingest(storage, years[1])
        assert storage.registry_df().count() == PER_YEAR
        with pytest.raises(KeyError, match="unknown sample keys"):
            _score(storage, np.arange(PER_YEAR, PER_YEAR + 2))

        retry = _ingest(storage, years[1])
        assert retry.tolist() == list(range(PER_YEAR, 2 * PER_YEAR))
        assert storage.registry_df().count() == 2 * PER_YEAR
        scored = _score(storage, retry)
        assert sorted(scored["sample_key"]) == retry.tolist()
        assert np.isfinite(scored["score"]).all()

    def test_scan_planned_across_a_commit_reads_the_earlier_files(
        self, storage, years, monkeypatch
    ):
        _ingest(storage, years[0])
        plan = DataFrameReader.parquet

        def plan_then_commit(self, *args, **kwargs):
            df = plan(self, *args, **kwargs)  # lists the first year only
            monkeypatch.setattr(DataFrameReader, "parquet", plan)
            _ingest(storage, years[1])  # commits while the caller is planning
            return df

        monkeypatch.setattr(DataFrameReader, "parquet", plan_then_commit)
        assert storage.registry_df().count() == PER_YEAR  # planned before the commit
        assert storage.registry_df().count() == 2 * PER_YEAR

    def test_concurrent_planning_and_ingest(self, storage, years):
        """Readers plan the registry and look keys up while ingests commit."""
        _ingest(storage, years[0])
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    storage.registry_df()
                    storage.lookup(np.arange(PER_YEAR))
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for year in years[1:]:
                _ingest(storage, year)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert storage.registry_df().count() == storage.num_samples == 3 * PER_YEAR


class TestScoringClosure:
    def test_ships_only_the_requested_keys_files(self, storage, years, monkeypatch):
        """The task closure maps exactly the files holding the requested
        keys: here one year's files out of three ingested years."""
        for year in years:
            _ingest(storage, year)
        keys = np.arange(PER_YEAR, 2 * PER_YEAR)  # the second year
        shipped = []
        file_paths = Storage.file_paths

        def recording(self, want):
            shipped.append(file_paths(self, want))
            return shipped[-1]

        monkeypatch.setattr(Storage, "file_paths", recording)
        scored = _score(storage, keys)
        assert sorted(scored["sample_key"]) == keys.tolist()
        # one file per sample, ingested in order: file id == sample key
        assert shipped == [dict(zip(keys.tolist(), years[1][0]))]

    def test_file_paths_reject_unknown_keys(self, storage, years):
        _ingest(storage, years[0])
        assert storage.file_paths(np.array([3, 3, 1])) == {1: years[0][0][1], 3: years[0][0][3]}
        for bad in ([PER_YEAR], [-1], [0, PER_YEAR]):
            with pytest.raises(KeyError, match="unknown sample keys"):
                storage.file_paths(np.array(bad))


def _spark_jobs(spark, fn) -> int:
    """Number of Spark jobs ``fn()`` launches."""
    sc = spark.sparkContext
    group = f"jobs-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # job-start events reach the status tracker through the async listener bus
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


class TestJobBudget:
    """Each trigger-time stage is exactly the one Spark job doing its work:
    no schema-inference job when a scan is planned, no job to ship the
    requested keys. Appends (ingest, selector persist) are written from
    the driver and launch no Spark job at all."""

    def test_ingest_and_scoring(self, spark, storage, years):
        keys = np.arange(0, 2 * PER_YEAR, 2)
        for year in years[:2]:
            assert _spark_jobs(spark, lambda: _ingest(storage, year)) == 0
        assert _spark_jobs(spark, lambda: _score(storage, keys)) == 1  # plans the registry
        assert _spark_jobs(spark, lambda: _score(storage, keys)) == 1

        assert _spark_jobs(spark, lambda: _ingest(storage, years[2])) == 0
        assert _spark_jobs(spark, storage.registry_df) == 0
        assert _spark_jobs(spark, lambda: _score(storage, keys)) == 1
        assert 1 <= _spark_jobs(spark, lambda: storage.get_metadata(keys)) <= 2

    def test_registry_scan_of_32_ingests(self, spark, storage, years):
        """Spark lists up to 32 scan paths on the driver. From 33 on, its
        parallel partition discovery lists them in a Spark job of its
        own, so planning a scan of 33 or more ingests costs one job."""
        paths, _ = years[0]
        for i in range(32):
            storage.ingest_file(paths[i % PER_YEAR])
        assert _spark_jobs(spark, storage.registry_df) == 0
        assert storage.registry_df().count() == storage.num_samples == 32

    def test_unknown_key_fails_before_any_job(self, spark, storage, years):
        _ingest(storage, years[0])

        def score_unknown():
            with pytest.raises(KeyError, match="unknown sample keys"):
                _score(storage, np.array([0, storage.num_samples]))

        assert _spark_jobs(spark, score_unknown) == 0

    @pytest.mark.parametrize("buckets", [1, 3])
    def test_uniform_select(self, spark, tmp_path, buckets):
        backend = SparkMetadataBackend(spark, str(tmp_path / "meta"))
        keys = np.arange(60)
        for t in range(buckets):
            backend.persist(t, keys + 100 * t, np.zeros(len(keys)), np.zeros(len(keys)))
        uniform = UniformRandomStrategy(
            backend, fraction=0.5, seed=3, reset_after_trigger=False
        )
        last = buckets - 1
        assert uniform.scope(last) == list(range(buckets))
        assert _spark_jobs(spark, lambda: list(uniform.select(last))) == 1

    @pytest.mark.parametrize("n", [60, 0])
    def test_persist(self, spark, tmp_path, n):
        backend = SparkMetadataBackend(spark, str(tmp_path / "meta"))
        for t in (0, 0, 1):
            persist = lambda: backend.persist(t, np.arange(n), np.zeros(n), np.zeros(n))  # noqa: E731
            assert _spark_jobs(spark, persist) == 0
        assert backend.count([0, 1]) == 3 * n


def _compilations(spark) -> int:
    """Classes Spark's code generator has compiled in this JVM so far."""
    metrics = spark._jvm.org.apache.spark.metrics.source.CodegenMetrics
    return metrics.METRIC_COMPILATION_TIME().getCount()


def _seed_buckets(backend, n_triggers, per_trigger=40):
    for t in range(n_triggers):
        keys = np.arange(per_trigger) + 1000 * t
        backend.persist(t, keys, keys % 3, np.zeros(per_trigger))


class TestGeneratedCode:
    """A trigger-time stage compiles its generated code once: the next
    trigger's plan carries no constant of its own (Spark compiles a
    plan's constants into its code), or runs interpreted."""

    def test_scoring_a_new_key_set_compiles_no_code(self, spark, storage, years):
        for year in years:
            _ingest(storage, year)
        _score(storage, np.arange(PER_YEAR))
        before = _compilations(spark)
        _score(storage, np.arange(PER_YEAR, 2 * PER_YEAR))
        _score(storage, np.arange(2 * PER_YEAR + 5, 3 * PER_YEAR - 5))
        assert _compilations(spark) == before

    @pytest.mark.parametrize("strategy", ["uniform", "label", "new"])
    def test_backend_selection_compiles_no_code_per_trigger(self, spark, tmp_path, strategy):
        backend = SparkMetadataBackend(spark, str(tmp_path / "meta"))
        _seed_buckets(backend, 4)
        s = _strategy(strategy, backend, seed=11)
        list(s.select(0))
        before = _compilations(spark)
        for t in (1, 2, 3):
            list(s.select(t))
        assert _compilations(spark) == before

    @pytest.mark.parametrize("strategy", ["uniform", "label", "new"])
    def test_interpreted_selection_equals_compiled(self, spark, tmp_path, monkeypatch, strategy):
        backend = SparkMetadataBackend(spark, str(tmp_path / "meta"))
        _seed_buckets(backend, 3, per_trigger=300)
        selected = []
        for session in (backend.spark, spark):  # the given session compiles
            monkeypatch.setattr(backend, "spark", session)
            s = _strategy(strategy, backend, seed=5, reset_after_trigger=False)
            parts = list(s.select(2))
            selected.append(np.concatenate([k for k, _ in parts]))
        assert len(selected[0]) > 0
        assert selected[0].tolist() == selected[1].tolist()


def _strategy(name, backend, **kw):
    if name == "uniform":
        return UniformRandomStrategy(backend, fraction=0.5, **kw)
    if name == "label":
        return LabelBalancedStrategy(backend, **kw)
    return NewDataStrategy(backend, **kw)


class TestDeclaredSchemas:
    """Stage scans read with declared schemas instead of inferring them;
    a column that drifts from what the writers produce would read as
    NULLs, so each declared schema must equal the inferred one."""

    def test_registry_schema_matches_ingested_files(self, spark, storage, years):
        for year in years[:2]:
            _ingest(storage, year)
        inferred = spark.read.parquet(storage.registry_path).schema
        assert storage.registry_df().schema == inferred
        assert storage.registry_df().count() == 2 * PER_YEAR
        assert storage.registry_df().where("file_id IS NULL OR idx IS NULL").count() == 0

    @pytest.mark.parametrize("sizes", [[5], [0], [4, 0, 3]])
    def test_bucket_schema_matches_persisted_files(self, spark, tmp_path, sizes):
        backend = SparkMetadataBackend(spark, str(tmp_path / "meta"))
        local = LocalMetadataBackend(str(tmp_path / "local"))
        for b in (backend, local):
            for n in sizes:
                b.persist(7, np.arange(n), np.ones(n), np.full(n, 9))
        inferred = spark.read.parquet(backend._bucket(7)).schema
        declared = backend.df([7])
        assert declared.drop("trigger_id").schema == inferred
        # an empty scope (no bucket persisted) reads as the same frame
        assert declared.schema == backend.df([8]).schema == backend.df([]).schema
        assert declared.schema["trigger_id"].dataType.simpleString() == "bigint"
        pdf = declared.toPandas()
        assert len(pdf) == sum(sizes)
        assert not pdf.isna().any().any()
        assert (pdf["trigger_id"] == 7).all()
        for b in (backend, local):
            assert b.get([7])["trigger_id"].dtype == np.int64
