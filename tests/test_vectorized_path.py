"""Tests for the throughput hot path: index lookup + vectorized parsing.

The batch parsers must equal the per-sample reference parsers stacked —
same payload contents — they only change *where* the parsing happens
(one C call per send buffer instead of one Python call per sample).
"""
import numpy as np
import pytest

from repro.experiments.throughput import make_decode_transform
from repro.storage.file_wrappers import BinaryFileWrapper
from repro.storage.local_dataset import LocalDataset
from repro.synth_data import (
    CRITEO_DTYPE,
    cloc_batch_parser,
    cloc_bytes_parser,
    criteo_batch_parser,
    criteo_bytes_parser,
    criteo_lite_array,
    generate_criteo_files,
)
from repro.trainer import OnlineDataset, OnlineDatasetConfig
from tests.conftest import CRITEO_N


class TestHotPathLookup:
    def test_lookup_matches_spark_metadata(self, criteo_storage):
        keys = np.array([0, 17, 499, 500, 1500, 2999])
        file_ids, positions, labels = criteo_storage.lookup(keys)
        spark_meta = criteo_storage.get_metadata(keys).set_index("sample_key")
        for i, k in enumerate(keys):
            assert spark_meta.loc[k, "file_id"] == file_ids[i]
            assert spark_meta.loc[k, "idx"] == positions[i]
            assert spark_meta.loc[k, "label"] == labels[i]

    def test_lookup_unknown_key_raises(self, criteo_storage):
        with pytest.raises(KeyError):
            criteo_storage.lookup(np.array([10**9]))

    def test_lookup_empty(self, criteo_storage):
        f, p, l = criteo_storage.lookup(np.array([], dtype=np.int64))
        assert len(f) == len(p) == len(l) == 0


class TestBatchParsers:
    def test_criteo_batch_parser_equals_per_sample(self):
        arr = criteo_lite_array(10, seed=3)
        payloads = [arr[i : i + 1].tobytes() for i in range(10)]
        vec = criteo_batch_parser(payloads)
        per = np.concatenate([criteo_bytes_parser(p) for p in payloads])
        assert np.array_equal(vec, per)

    def test_cloc_batch_parser_equals_per_sample(self, rng):
        rows = rng.standard_normal((7, 5)).astype("<f4")
        payloads = [rows[i].tobytes() for i in range(7)]
        vec = cloc_batch_parser(payloads)
        per = np.stack([cloc_bytes_parser(p) for p in payloads])
        assert np.allclose(vec, per)
        assert vec.shape == (7, 5)


@pytest.fixture()
def selector(criteo_selector, tmp_path):
    return criteo_selector(tmp_path, partition_size=700)


class TestVectorizedOnlineDataset:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_same_coverage_as_per_sample_mode(self, criteo_storage, selector, workers):
        cfg = OnlineDatasetConfig(
            batch_size=256, num_workers=workers, prefetched_partitions=1
        )
        vec = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        keys, labels = [], []
        for b in vec.batches():
            assert isinstance(b.payloads, np.ndarray)
            assert b.payloads.dtype == CRITEO_DTYPE
            assert np.array_equal(b.payloads["label"], b.labels)
            keys.append(b.keys)
            labels.append(b.labels)
        keys = np.concatenate(keys)
        assert sorted(keys.tolist()) == list(range(CRITEO_N))

    def test_batch_sizes_and_weights(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=500, num_workers=2)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        sizes = [len(b) for b in ds.batches()]
        assert sum(sizes) == CRITEO_N
        assert sum(1 for s in sizes if s < 500) <= 2

    def test_transform_applied_to_batch(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=700, num_workers=1)
        calls = []

        def transform(arr):
            calls.append(len(arr))
            return arr

        ds = OnlineDataset(
            criteo_storage,
            selector,
            0,
            cfg,
            batch_bytes_parser=criteo_batch_parser,
            transform=transform,
        )
        total = sum(len(b) for b in ds.batches())
        assert total == CRITEO_N == sum(calls)

    def test_transform_runs_once_per_emitted_batch(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=700, num_workers=2)
        calls = []
        ds = OnlineDataset(
            criteo_storage,
            selector,
            0,
            cfg,
            batch_bytes_parser=criteo_batch_parser,
            transform=lambda a: (calls.append(len(a)), a)[1],
        )
        sizes = [len(b) for b in ds.batches()]
        assert sorted(calls) == sorted(sizes)


class TestVectorizedLocalDataset:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        paths, _ = generate_criteo_files(
            str(tmp_path_factory.mktemp("vl")), n_samples=900, samples_per_file=300
        )
        return paths

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_coverage(self, files, workers):
        ds = LocalDataset(
            files,
            BinaryFileWrapper(CRITEO_DTYPE),
            batch_size=128,
            num_workers=workers,
            batch_bytes_parser=criteo_batch_parser,
        )
        total = 0
        for arr, labels in ds.batches():
            assert isinstance(arr, np.ndarray)
            assert np.array_equal(arr["label"], labels)
            total += len(labels)
        assert total == 900

    def test_transform_in_vectorized_path(self, files):
        seen = []
        ds = LocalDataset(
            files,
            BinaryFileWrapper(CRITEO_DTYPE),
            batch_size=450,
            batch_bytes_parser=criteo_batch_parser,
            transform=lambda a: (seen.append(len(a)), a)[1],
        )
        assert sum(len(l) for _, l in ds.batches()) == 900 == sum(seen)

    def test_transform_runs_once_per_emitted_batch(self, files):
        seen = []
        ds = LocalDataset(
            files,
            BinaryFileWrapper(CRITEO_DTYPE),
            batch_size=128,
            num_workers=2,
            batch_bytes_parser=criteo_batch_parser,
            transform=lambda a: (seen.append(len(a)), a)[1],
        )
        sizes = [len(l) for _, l in ds.batches()]
        assert sum(sizes) == 900
        assert sorted(seen) == sorted(sizes)


class TestDecodeTransform:
    def test_identity_on_data(self, rng):
        arr = rng.standard_normal((5, 3))
        out = make_decode_transform(100_000)(arr)
        assert out is arr

    def test_cost_scales_with_batch(self):
        import time

        t = make_decode_transform(1_000_000)
        arr1, arr8 = np.zeros((2, 1)), np.zeros((16, 1))
        t(arr1)  # warm

        def cpu_s(arr):
            # the hashing runs on this thread: its CPU time is the work
            # done, without the time other processes held the cores
            best = float("inf")
            for _ in range(3):
                t0 = time.thread_time()
                t(arr)
                best = min(best, time.thread_time() - t0)
            return best

        small, big = cpu_s(arr1), cpu_s(arr8)
        assert big > 4 * small
