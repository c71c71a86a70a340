"""Tests for the storage service (paper §4.1.4, §4.2.3).

Registry correctness is cross-checked against DuckDB via the oracle;
payload retrieval is checked byte-for-byte against the generator.
"""
import os
import sys
import threading

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.storage import BinaryFileWrapper, SingleSampleFileWrapper, Storage
from repro.synth_data import (
    CRITEO_DTYPE,
    criteo_lite_array,
    generate_cloc_files,
    generate_criteo_files,
)
from tests.conftest import CRITEO_N, CRITEO_PER_FILE


class TestIngest:
    def test_keys_are_dense_and_unique(self, criteo_storage):
        assert criteo_storage.num_samples == CRITEO_N
        reg = criteo_storage.registry_df().toPandas()
        assert sorted(reg["sample_key"]) == list(range(CRITEO_N))

    def test_registry_counts_per_file_via_oracle(self, spark, criteo_storage):
        got = (
            criteo_storage.registry_df()
            .groupBy("file_id")
            .agg(F.count("*").alias("n"), F.min("idx").alias("lo"), F.max("idx").alias("hi"))
        )
        assert_equivalent(
            got,
            "SELECT file_id, count(*) AS n, min(idx) AS lo, max(idx) AS hi "
            "FROM registry GROUP BY file_id",
            registry=criteo_storage.registry_df(),
        )

    def test_labels_match_payload_files(self, criteo_storage):
        reg = criteo_storage.registry_df().toPandas().sort_values("sample_key")
        # File f holds samples [f*500, (f+1)*500); labels must match the
        # generator's records for that file.
        for f in range(CRITEO_N // CRITEO_PER_FILE):
            day = f // 2  # 6 files over 3 days
            arr = criteo_lite_array(CRITEO_PER_FILE, seed=f, day=day)
            rows = reg[reg["file_id"] == f].sort_values("idx")
            assert np.array_equal(
                rows["label"].to_numpy(), arr["label"].astype(np.int64)
            )

    def test_timestamp_per_file(self, criteo_storage):
        reg = criteo_storage.registry_df().toPandas()
        per_file = reg.groupby("file_id")["timestamp"].nunique()
        assert (per_file == 1).all()

    def test_mismatched_timestamps_rejected(self, spark, tmp_path):
        paths, _ = generate_criteo_files(
            str(tmp_path / "d"), n_samples=10, samples_per_file=10
        )
        st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
        with pytest.raises(ValueError, match="one timestamp per file"):
            st.ingest_files(paths, timestamps=[1, 2])

    def test_incremental_ingest_grows_registry(self, spark, tmp_path):
        paths, days = generate_criteo_files(
            str(tmp_path / "d"), n_samples=60, samples_per_file=20
        )
        st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
        k1 = st.ingest_files(paths[:1])
        assert st.num_samples == 20
        k2 = st.ingest_files(paths[1:], timestamps=days[1:])
        assert st.num_samples == 60
        assert len(np.intersect1d(k1, k2)) == 0

    def test_empty_ingest_writes_nothing(self, spark, tmp_path):
        paths, days = generate_criteo_files(
            str(tmp_path / "d"), n_samples=20, samples_per_file=10
        )
        st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
        keys = st.ingest_files([])
        assert keys.dtype == np.int64 and len(keys) == 0
        assert not os.path.exists(st.registry_path)

        st.ingest_files(paths[:1], timestamps=days[:1])
        files = sorted(os.listdir(st.registry_path))
        scanned = st.registry_df().inputFiles()
        assert len(st.ingest_files([], timestamps=[])) == 0
        assert sorted(os.listdir(st.registry_path)) == files
        assert st.registry_df().inputFiles() == scanned
        assert st.registry_df().count() == 10
        assert st.num_samples == 10
        assert st.ingest_files(paths[1:], timestamps=days[1:]).tolist() == list(range(10, 20))


def _reference_registry(wrapper, batches):
    """The registry rows the ingests ``batches`` must produce, built one
    file and one sample at a time: dense keys in ingest order, one
    ``file_id`` per file, ``idx`` counting from 0 in each file, the
    file's labels and the file's timestamp (0 when none is given)."""
    rows, key, file_id = [], 0, 0
    for paths, stamps in batches:
        for i, path in enumerate(paths):
            labels = wrapper.get_labels(path)
            for idx, label in enumerate(labels):
                ts = 0 if stamps is None else stamps[i]
                rows.append((key, file_id, idx, int(label), ts))
                key += 1
            file_id += 1
    return pd.DataFrame(
        rows, columns=["sample_key", "file_id", "idx", "label", "timestamp"]
    ).astype("int64")


@pytest.mark.parametrize("with_timestamps", [True, False])
@pytest.mark.parametrize("kind", ["criteo", "cloc"])
def test_registry_content_matches_reference(spark, tmp_path, kind, with_timestamps):
    """Two ingests (multi-sample criteo files or one-sample cloc files)
    append exactly the reference rows."""
    if kind == "criteo":
        paths, stamps = generate_criteo_files(
            str(tmp_path / "d"), n_samples=70, samples_per_file=10, n_days=3
        )
        wrapper = BinaryFileWrapper(CRITEO_DTYPE)
    else:
        paths, stamps = generate_cloc_files(
            str(tmp_path / "d"), per_year=6, years=(2004, 2005), n_classes=4, dim=3
        )
        wrapper = SingleSampleFileWrapper()
    if not with_timestamps:
        stamps = None
    cut = len(paths) // 3
    batches = [
        (paths[:cut], stamps and stamps[:cut]),
        (paths[cut:], stamps and stamps[cut:]),
    ]
    st = Storage(spark, str(tmp_path / "s"), wrapper)
    for batch_paths, batch_stamps in batches:
        st.ingest_files(batch_paths, timestamps=batch_stamps)

    want = _reference_registry(wrapper, batches)
    got = st.registry_df().toPandas().sort_values("sample_key", ignore_index=True)
    pd.testing.assert_frame_equal(got, want)
    file_ids, positions, labels = st.lookup(want["sample_key"].to_numpy())
    assert np.array_equal(file_ids, want["file_id"].to_numpy())
    assert np.array_equal(positions, want["idx"].to_numpy())
    assert np.array_equal(labels, want["label"].to_numpy())
    assert st.file_paths(want["sample_key"].to_numpy()) == dict(enumerate(paths))


class TestRetrieval:
    def test_exact_payloads_for_arbitrary_keys(self, criteo_storage):
        keys = np.array([0, 7, 499, 500, 1234, 2999])
        buf = criteo_storage.get_samples(keys)
        assert sorted(buf.keys.tolist()) == sorted(keys.tolist())
        by_key = dict(zip(buf.keys.tolist(), buf.payloads))
        for k in keys:
            f, i = divmod(int(k), CRITEO_PER_FILE)
            arr = criteo_lite_array(CRITEO_PER_FILE, seed=f, day=f // 2)
            assert by_key[int(k)] == arr[i : i + 1].tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_thread_count_does_not_change_result(self, criteo_storage, threads):
        keys = np.arange(0, CRITEO_N, 17)
        buf = criteo_storage.get_samples(keys, storage_threads=threads)
        assert sorted(buf.keys.tolist()) == keys.tolist()
        assert len(buf.payloads) == len(keys)

    def test_labels_consistent_with_registry(self, criteo_storage):
        keys = np.arange(100, 200)
        buf = criteo_storage.get_samples(keys, storage_threads=2)
        reg = criteo_storage.get_metadata(keys).set_index("sample_key")
        for k, lbl in zip(buf.keys, buf.labels):
            assert reg.loc[int(k), "label"] == lbl

    def test_unknown_key_raises(self, criteo_storage):
        with pytest.raises(KeyError, match="unknown sample keys"):
            criteo_storage.get_samples(np.array([10_000_000]))

    def test_empty_request(self, criteo_storage):
        buf = criteo_storage.get_samples(np.array([], dtype=np.int64))
        assert len(buf) == 0

    def test_stream_emits_send_buffers(self, spark, tmp_path):
        paths, days = generate_criteo_files(
            str(tmp_path / "d"), n_samples=100, samples_per_file=50
        )
        st = Storage(
            spark,
            str(tmp_path / "s"),
            BinaryFileWrapper(CRITEO_DTYPE),
            send_buffer_size=16,
        )
        st.ingest_files(paths, timestamps=days)
        bufs = list(st.retrieve_stream(np.arange(100)))
        assert sum(len(b) for b in bufs) == 100
        assert max(len(b) for b in bufs) <= 16  # gRPC-streaming analog

    def test_invalid_thread_count(self, criteo_storage):
        with pytest.raises(ValueError):
            criteo_storage.get_samples(np.arange(3), storage_threads=0)

    def test_metadata_of_repeated_keys_agrees_with_lookup(self, criteo_storage):
        keys = np.array([1, 1, 2])
        meta = criteo_storage.get_metadata(keys).sort_values("sample_key")
        assert meta["sample_key"].tolist() == keys.tolist()
        file_ids, positions, labels = criteo_storage.lookup(keys)
        assert meta["file_id"].tolist() == file_ids.tolist()
        assert meta["idx"].tolist() == positions.tolist()
        assert meta["label"].tolist() == labels.tolist()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_buffer_rows_are_request_positions(self, criteo_storage, monkeypatch, threads):
        monkeypatch.setattr(criteo_storage, "send_buffer_size", 16)
        rng = np.random.default_rng(threads)
        request = rng.permutation(np.concatenate([np.arange(0, 600, 3), np.arange(0, 90, 9)]))
        bufs = list(criteo_storage.retrieve_stream(request, storage_threads=threads))
        for buf in bufs:
            assert len(buf) <= 16
            assert np.array_equal(buf.keys, request[buf.rows])
            assert np.array_equal(buf.labels, criteo_storage.lookup(buf.keys)[2])
        rows = np.concatenate([b.rows for b in bufs])
        assert np.array_equal(np.sort(rows), np.arange(len(request)))
        whole = criteo_storage.get_samples(request, storage_threads=threads)
        assert np.array_equal(whole.keys, request[whole.rows])


def test_readers_see_whole_ingests_while_one_thread_ingests(spark, tmp_path):
    paths, days = generate_criteo_files(
        str(tmp_path / "d"), n_samples=600, samples_per_file=10
    )
    st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
    done, errors, reads = threading.Event(), [], []

    def read() -> None:
        try:
            while not done.is_set():
                keys = np.arange(st.num_samples)
                by_file = st.file_paths(keys)  # at once: no sleep in between
                file_ids, _, _ = st.lookup(keys)
                assert sorted(by_file) == np.unique(file_ids).tolist()
                assert all(by_file[f] == paths[f] for f in by_file)
                reads.append(len(keys))
        except Exception as e:  # reported by the main thread
            errors.append(e)

    n_readers = len(os.sched_getaffinity(0)) + 2  # more threads than cores
    readers = [threading.Thread(target=read) for _ in range(n_readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in readers:
            t.start()
        for lo in range(0, len(paths), 2):  # 30 ingests of 2 files
            st.ingest_files(paths[lo : lo + 2], timestamps=days[lo : lo + 2])
    finally:
        done.set()
        for t in readers:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert errors == []
    assert any(0 < n < 600 for n in reads)  # a read saw a part of the ingests
    assert st.num_samples == 600
    assert len(st.file_paths(np.arange(600))) == 60


class TestReplayStream:
    def test_batches_ordered_by_time_then_key(self, criteo_storage):
        batches = list(criteo_storage.new_data_batches(batch_size=700))
        keys = np.concatenate([b[0] for b in batches])
        ts = np.concatenate([b[1] for b in batches])
        assert len(keys) == CRITEO_N
        assert (np.diff(ts) >= 0).all()
        # within a timestamp, keys ascend
        for t in np.unique(ts):
            kt = keys[ts == t]
            assert (np.diff(kt) > 0).all()

    def test_matches_registry_sort(self, spark, tmp_path):
        """Ingests out of time order, and files of one ingest with
        different timestamps, replay as a sort of the registry by
        (timestamp, key) orders them."""
        st = Storage(spark, str(tmp_path / "s"), SingleSampleFileWrapper())
        for year, stamps in ((2006, [2006, 2004] * 4), (2004, [2005] * 8), (2005, [2004] * 8)):
            paths, _ = generate_cloc_files(
                str(tmp_path / f"d{year}"), per_year=8, years=(year,), n_classes=3, dim=4
            )
            st.ingest_files(paths, timestamps=stamps)
        want = (
            st.registry_df()
            .orderBy("timestamp", "sample_key")
            .select("sample_key", "timestamp", "label")
            .toPandas()
        )
        batches = list(st.new_data_batches(batch_size=5))
        assert [len(b[0]) for b in batches] == [5] * 4 + [4]
        for got, column in zip(map(np.concatenate, zip(*batches)), want.columns):
            assert got.tolist() == want[column].tolist()

    def test_batch_size_respected(self, criteo_storage):
        batches = list(criteo_storage.new_data_batches(batch_size=700))
        assert [len(b[0]) for b in batches[:-1]] == [700] * (len(batches) - 1)

    def test_labels_included(self, criteo_storage):
        k, t, lbl = next(iter(criteo_storage.new_data_batches(batch_size=10)))
        meta = criteo_storage.get_metadata(k).set_index("sample_key")
        assert np.array_equal(meta.loc[k]["label"].to_numpy(), lbl)
