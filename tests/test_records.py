"""Tests for the selector's fixed-record chunk files (``repro.selector.records``)
and for the two stores built on them reading only what their writer recorded."""
import os
import sys
import threading

import numpy as np
import pytest

from repro.selector import records
from repro.selector.metadata_backend import SEEN_DTYPE, LocalMetadataBackend
from repro.selector.trigger_sample_storage import TSS_DTYPE, TriggerSampleStorage


def _array(n):
    arr = np.empty(n, dtype=TSS_DTYPE)
    arr["sample_key"] = np.arange(n) * 7 + 3
    arr["weight"] = np.arange(n) / 10.0
    return arr


class TestRecords:
    @pytest.mark.parametrize("rows,n", [(10, 3), (3, 4), (0, 2), (16, 1)])
    def test_write_returns_array_split_chunks(self, tmp_path, rows, n):
        chunks = records.write(str(tmp_path), "s", _array(rows), n)
        names = [f"s_chunk_{i:03d}.bin" for i in range(n)]
        sizes = [len(c) for c in np.array_split(np.arange(rows), n)]
        assert chunks == list(zip(names, sizes))
        assert sorted(os.listdir(tmp_path)) == names
        for name, size in chunks:
            assert os.path.getsize(tmp_path / name) == size * TSS_DTYPE.itemsize

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_every_row_range_reads_back(self, tmp_path, n):
        arr = _array(13)
        chunks = records.write(str(tmp_path), "s", arr, n)
        assert np.array_equal(records.read(str(tmp_path), chunks, TSS_DTYPE), arr)
        for start in range(14):
            for end in range(start, 14):
                got = records.read(str(tmp_path), chunks, TSS_DTYPE, start, end)
                assert np.array_equal(got, arr[start:end])

    def test_chunks_of_several_writes_read_in_order(self, tmp_path):
        a, b = _array(5), _array(9)[::-1].copy()
        chunks = records.write(str(tmp_path), "a", a, 2) + records.write(str(tmp_path), "b", b, 3)
        assert np.array_equal(records.read(str(tmp_path), chunks, TSS_DTYPE), np.concatenate([a, b]))
        assert np.array_equal(
            records.read(str(tmp_path), chunks, TSS_DTYPE, 3, 8), np.concatenate([a, b])[3:8]
        )

    def test_empty_read_keeps_dtype(self, tmp_path):
        chunks = records.write(str(tmp_path), "s", _array(0), 3)
        got = records.read(str(tmp_path), chunks, TSS_DTYPE)
        assert len(got) == 0 and got.dtype == TSS_DTYPE


class TestReadersUseRecordedSizes:
    """Fetches use the sizes the writer recorded: no directory listing,
    no file stat."""

    @pytest.fixture
    def no_listing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("reader listed a directory or stat'ed a file")

        def install():
            monkeypatch.setattr(os, "listdir", forbidden)
            monkeypatch.setattr(os.path, "getsize", forbidden)

        return install

    def test_trigger_sample_storage(self, tmp_path, no_listing):
        tss = TriggerSampleStorage(str(tmp_path / "tss"), n_write_threads=3)
        tss.persist(0, [(np.arange(10), np.ones(10)), (np.arange(10, 14), np.ones(4))])
        no_listing()
        assert tss.num_partitions(0) == 2
        assert tss.num_partitions(1) == 0
        shares = [tss.get_worker_samples(0, 0, w, 4)[0] for w in range(4)]
        assert np.array_equal(np.concatenate(shares), np.arange(10))
        assert np.array_equal(tss.get_all_samples(0)[0], np.arange(14))
        with pytest.raises(FileNotFoundError):
            tss.get_worker_samples(0, 2, 0, 1)

    def test_local_metadata_backend(self, tmp_path, no_listing):
        b = LocalMetadataBackend(str(tmp_path / "meta"), n_threads=3)
        b.persist(0, np.arange(10), np.arange(10) % 3, np.zeros(10))
        b.persist(0, np.arange(10, 12), np.zeros(2), np.ones(2))
        no_listing()
        assert b.count([0]) == 12
        assert b.count([0, 1]) == 12
        pdf = b.get([0, 1])
        assert pdf["sample_key"].tolist() == list(range(12))
        assert pdf["label"].tolist() == [k % 3 for k in range(10)] + [0, 0]
        assert list(pdf.dtypes) == [np.dtype(np.int64)] * 4
        for empty in (b.get([1]), b.get([])):
            assert len(empty) == 0
            assert list(empty.dtypes) == [np.dtype(np.int64)] * 4

    def test_local_backend_files_hold_seen_records(self, tmp_path):
        b = LocalMetadataBackend(str(tmp_path / "meta"), n_threads=2)
        b.persist(0, np.arange(5), np.zeros(5), np.zeros(5))
        b.persist(0, np.arange(5, 6), np.zeros(1), np.zeros(1))
        bucket = tmp_path / "meta" / "trigger_id=0"
        assert sorted(os.listdir(bucket)) == [
            "seen_000000_chunk_000.bin", "seen_000000_chunk_001.bin", "seen_000002_chunk_000.bin",
        ]
        assert os.path.getsize(bucket / "seen_000000_chunk_000.bin") == 3 * SEEN_DTYPE.itemsize


def test_concurrent_persists_into_one_bucket(tmp_path):
    """Threads persisting into one bucket lose no group and read back
    every key once."""
    b = LocalMetadataBackend(str(tmp_path / "meta"), n_threads=3)
    n_threads, per_thread, batch = 12, 20, 7

    def persist(t):
        for i in range(per_thread):
            keys = np.arange(batch) + batch * (t * per_thread + i)
            b.persist(0, keys, np.zeros(batch), np.zeros(batch))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=persist, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    total = n_threads * per_thread * batch
    assert b.count([0]) == total
    assert sorted(b.get([0])["sample_key"]) == list(range(total))
