"""Unit tests for the TriggerSampleStorage (paper §4.2.2, Fig. 4)."""
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selector.metadata_backend import LocalMetadataBackend
from repro.selector.presampling import NewDataStrategy
from repro.selector.selector import Selector, TriggerSetInfo
from repro.selector.trigger_sample_storage import (
    TriggerSampleStorage,
    worker_share,
)


class TestWorkerShare:
    @pytest.mark.parametrize("total,workers", [(10, 3), (100, 16), (7, 8), (0, 4), (1, 1)])
    def test_shares_cover_everything_disjointly(self, total, workers):
        spans = [worker_share(total, w, workers) for w in range(workers)]
        assert spans[0][0] == 0
        assert spans[-1][1] == total
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert e0 == s1  # contiguous, disjoint

    @pytest.mark.parametrize("total,workers", [(10, 3), (101, 16), (5, 2)])
    def test_shares_balanced_within_one(self, total, workers):
        sizes = [e - s for s, e in (worker_share(total, w, workers) for w in range(workers))]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_worker_id(self):
        with pytest.raises(ValueError):
            worker_share(10, 4, 4)


def _persist(tmp_path, partitions, n_write_threads=3):
    tss = TriggerSampleStorage(str(tmp_path / "tss"), n_write_threads=n_write_threads)
    n = tss.persist(0, partitions)
    return tss, n


class TestTriggerSampleStorage:
    def test_persist_counts_partitions(self, tmp_path):
        parts = [(np.arange(10), np.ones(10)), (np.arange(10, 15), np.ones(5))]
        tss, n = _persist(tmp_path, parts)
        assert n == (2, 15)  # partitions, samples
        assert tss.num_partitions(0) == 2
        assert len(tss.get_worker_samples(0, 0, 0, 1)[0]) == 10
        assert len(tss.get_worker_samples(0, 1, 0, 1)[0]) == 5

    def test_single_worker_reads_whole_partition_in_order(self, tmp_path):
        keys = np.arange(100, 137)
        weights = np.linspace(0, 1, 37)
        tss, _ = _persist(tmp_path, [(keys, weights)])
        k, w = tss.get_worker_samples(0, 0, 0, 1)
        assert np.array_equal(k, keys)
        assert np.allclose(w, weights)

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("n_write_threads", [1, 2, 4, 7])
    def test_worker_shares_reassemble_partition(self, tmp_path, n_workers, n_write_threads):
        # The worker count deliberately mismatches the write-thread count:
        # the assembly across chunk-file boundaries is the point (§4.2.2).
        keys = np.arange(53)
        weights = keys / 100.0
        tss, _ = _persist(tmp_path, [(keys, weights)], n_write_threads)
        got_k, got_w = [], []
        for w_id in range(n_workers):
            k, w = tss.get_worker_samples(0, 0, w_id, n_workers)
            got_k.append(k)
            got_w.append(w)
        assert np.array_equal(np.concatenate(got_k), keys)
        assert np.allclose(np.concatenate(got_w), weights)

    def test_more_workers_than_samples(self, tmp_path):
        tss, _ = _persist(tmp_path, [(np.arange(3), np.ones(3))])
        sizes = [
            len(tss.get_worker_samples(0, 0, w, 8)[0]) for w in range(8)
        ]
        assert sum(sizes) == 3
        assert max(sizes) == 1

    def test_get_all_samples(self, tmp_path):
        parts = [(np.arange(10), np.full(10, 2.0)), (np.arange(10, 14), np.full(4, 3.0))]
        tss, _ = _persist(tmp_path, parts)
        k, w = tss.get_all_samples(0)
        assert np.array_equal(k, np.arange(14))
        assert np.allclose(w, [2.0] * 10 + [3.0] * 4)

    def test_missing_partition_raises(self, tmp_path):
        tss, _ = _persist(tmp_path, [(np.arange(3), np.ones(3))])
        with pytest.raises(FileNotFoundError):
            tss.get_worker_samples(0, 5, 0, 1)

    def test_triggers_are_isolated(self, tmp_path):
        tss = TriggerSampleStorage(str(tmp_path / "tss"))
        tss.persist(0, [(np.arange(5), np.ones(5))])
        tss.persist(1, [(np.arange(100, 103), np.ones(3))])
        k0, _ = tss.get_all_samples(0)
        k1, _ = tss.get_all_samples(1)
        assert np.array_equal(k0, np.arange(5))
        assert np.array_equal(k1, np.arange(100, 103))
        assert sorted(os.listdir(tmp_path / "tss")) == ["trigger_0", "trigger_1"]

    def test_pipelines_are_isolated(self, tmp_path):
        """Each pipeline keeps its trigger sets under its own work directory."""
        a = TriggerSampleStorage(str(tmp_path / "a" / "tss"))
        b = TriggerSampleStorage(str(tmp_path / "b" / "tss"))
        a.persist(0, [(np.arange(5), np.ones(5))])
        b.persist(0, [(np.arange(7), np.ones(7))])
        assert len(a.get_all_samples(0)[0]) == 5
        assert len(b.get_all_samples(0)[0]) == 7

    def test_empty_trigger_set(self, tmp_path):
        tss = TriggerSampleStorage(str(tmp_path / "tss"))
        assert tss.persist(0, []) == (0, 0)
        assert tss.num_partitions(0) == 0
        k, w = tss.get_all_samples(0)
        assert len(k) == 0 and len(w) == 0

    def test_retry_after_failed_persist_keeps_no_stale_partitions(self, tmp_path):
        tss = TriggerSampleStorage(str(tmp_path / "tss"))

        def fails_after_two():
            yield np.arange(10), np.ones(10)
            yield np.arange(10, 20), np.ones(10)
            raise RuntimeError("selection failed")

        with pytest.raises(RuntimeError):
            tss.persist(0, fails_after_two())
        assert tss.num_partitions(0) == 0
        assert tss.persist(0, [(np.arange(100, 110), np.ones(10))]) == (1, 10)
        assert tss.num_partitions(0) == 1
        k, _ = tss.get_all_samples(0)
        assert np.array_equal(k, np.arange(100, 110))

    def test_persist_replaces_an_earlier_set_of_the_same_trigger(self, tmp_path):
        tss = TriggerSampleStorage(str(tmp_path / "tss"))
        tss.persist(0, [(np.arange(5), np.ones(5)), (np.arange(5, 9), np.ones(4))])
        assert tss.persist(0, [(np.arange(50, 53), np.ones(3))]) == (1, 3)
        assert tss.num_partitions(0) == 1
        assert np.array_equal(tss.get_all_samples(0)[0], np.arange(50, 53))

    @settings(max_examples=20, deadline=None)
    @given(
        total=st.integers(1, 200),
        n_workers=st.integers(1, 16),
        n_threads=st.integers(1, 8),
    )
    def test_property_shares_always_reassemble(
        self, tmp_path_factory, total, n_workers, n_threads
    ):
        tmp = tmp_path_factory.mktemp("tss-hyp")
        keys = np.arange(total) * 3 + 1
        weights = np.random.default_rng(0).random(total)
        tss = TriggerSampleStorage(str(tmp), n_write_threads=n_threads)
        tss.persist(0, [(keys, weights)])
        ks = [tss.get_worker_samples(0, 0, w, n_workers)[0] for w in range(n_workers)]
        assert np.array_equal(np.concatenate(ks), keys)


class TestSelectorTrigger:
    @pytest.mark.parametrize("n_samples, partition_size, n_partitions", [(40, 7, 6), (0, 10, 0)])
    def test_info_is_the_persisted_set(self, tmp_path, n_samples, partition_size, n_partitions):
        """``Selector.trigger`` reports the partition and sample counts of
        the set the TSS persisted, and the next trigger gets the next id."""
        strategy = NewDataStrategy(
            LocalMetadataBackend(str(tmp_path / "meta")), partition_size=partition_size
        )
        sel = Selector("p", strategy, TriggerSampleStorage(str(tmp_path / "tss")))
        sel.inform_data(np.arange(n_samples), np.zeros(n_samples), np.zeros(n_samples))
        assert sel.trigger() == TriggerSetInfo(0, n_samples, n_partitions)
        assert sel.get_num_partitions(0) == n_partitions
        assert len(sel.get_all_samples(0)[0]) == n_samples
        assert sel.trigger() == TriggerSetInfo(1, 0, 0)
