"""Tests for the OnlineDataset data path (paper §4.2.1, Figs. 4 & 5).

The key invariant: regardless of worker count, prefetch depth, parallel
prefetch requests, partition size, or storage threads, one epoch yields
every sample of the trigger training set exactly once with its weight.
"""
import numpy as np
import pytest

from repro.selector.metadata_backend import LocalMetadataBackend
from repro.selector.presampling import NewDataStrategy, UniformRandomStrategy
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.storage.storage import Storage
from repro.synth_data import criteo_batch_parser
from repro.trainer import OnlineDataset, OnlineDatasetConfig
from tests.conftest import CRITEO_N


@pytest.fixture(scope="module")
def selector(criteo_storage: Storage, tmp_path_factory):
    """A selector with one 3000-sample trigger set in 4 partitions."""
    tmp = tmp_path_factory.mktemp("ods")
    backend = LocalMetadataBackend(str(tmp / "meta"))
    strat = NewDataStrategy(backend, reset_after_trigger=False, partition_size=800)
    sel = Selector("ods", strat, TriggerSampleStorage(str(tmp / "tss")))
    sel.inform_data(
        np.arange(CRITEO_N), np.zeros(CRITEO_N), np.zeros(CRITEO_N)
    )
    sel.trigger()
    return sel


def _collect(ds):
    keys, weights, labels, n_batches = [], [], [], 0
    for batch in ds.batches():
        keys.append(batch.keys)
        weights.append(batch.weights)
        labels.append(batch.labels)
        n_batches += 1
        assert len(batch.payloads) == len(batch.keys) == len(batch.labels)
    return np.concatenate(keys), np.concatenate(weights), np.concatenate(labels), n_batches


CONFIGS = [
    dict(num_workers=1, prefetched_partitions=0),
    dict(num_workers=1, prefetched_partitions=1),
    dict(num_workers=4, prefetched_partitions=0),
    dict(num_workers=4, prefetched_partitions=1),
    dict(num_workers=4, prefetched_partitions=2, parallel_prefetch_requests=2),
    dict(num_workers=8, prefetched_partitions=4, parallel_prefetch_requests=2),
    dict(num_workers=3, prefetched_partitions=1, storage_threads=2),
    dict(num_workers=16, prefetched_partitions=6, parallel_prefetch_requests=2, storage_threads=2),
]


class TestExactlyOnceDelivery:
    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_all_samples_delivered_exactly_once(
        self, criteo_storage, selector, overrides
    ):
        cfg = OnlineDatasetConfig(batch_size=256, **overrides)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        keys, weights, _, _ = _collect(ds)
        assert sorted(keys.tolist()) == list(range(CRITEO_N))
        assert np.allclose(weights, 1.0)

    def test_repeated_epochs_identical_coverage(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=512, num_workers=2, prefetched_partitions=1)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        k1, _, _, _ = _collect(ds)
        k2, _, _, _ = _collect(ds)  # batches() must be re-entrant (epochs)
        assert sorted(k1.tolist()) == sorted(k2.tolist())


class TestBatching:
    def test_full_batches_except_worker_tails(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=256, num_workers=4, prefetched_partitions=1)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        sizes = [len(b) for b in ds.batches()]
        assert sum(sizes) == CRITEO_N
        # each worker may emit at most one short tail batch
        assert sum(1 for s in sizes if s < 256) <= 4

    def test_batches_carry_across_partitions(self, criteo_storage, selector):
        # partition size 800 with batch 512: second batch spans partitions
        cfg = OnlineDatasetConfig(batch_size=512, num_workers=1, prefetched_partitions=1)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        sizes = [len(b) for b in ds.batches()]
        assert sizes == [512] * 5 + [440]

    def test_payloads_are_parsed(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=128)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        batch = next(iter(ds.batches()))
        assert batch.payloads[0].dtype.names == ("label", "dense", "cat")

    def test_transform_applied(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=128)
        ds = OnlineDataset(
            criteo_storage,
            selector,
            0,
            cfg,
            batch_bytes_parser=criteo_batch_parser,
            transform=lambda rec: rec["dense"].astype(np.float64) * 2.0,
        )
        batch = next(iter(ds.batches()))
        assert batch.payloads.shape == (128, 13)

    def test_labels_match_payload_records(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=64, num_workers=2)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        for batch in ds.batches():
            assert np.array_equal(batch.payloads["label"], batch.labels)
            break


class TestWeights:
    def test_selection_weights_flow_through(self, criteo_storage, tmp_path):
        # A strategy that assigns non-unit weights must see them at the batch.
        backend = LocalMetadataBackend(str(tmp_path / "meta"))
        strat = NewDataStrategy(backend, partition_size=500)
        sel = Selector("w", strat, TriggerSampleStorage(str(tmp_path / "tss")))
        keys = np.arange(100)
        sel.inform_data(keys, np.zeros(100), np.zeros(100))
        # bypass strategy: persist custom weights directly
        sel.tss.persist("w", 0, [(keys, keys.astype(float) / 10.0)])
        sel.current_trigger = 1
        cfg = OnlineDatasetConfig(batch_size=32, num_workers=2)
        ds = OnlineDataset(
            criteo_storage, sel, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        got = {}
        for b in ds.batches():
            got.update(dict(zip(b.keys.tolist(), b.weights.tolist())))
        assert got == {int(k): k / 10.0 for k in keys}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(batch_size=0),
            dict(batch_size=8, num_workers=0),
            dict(batch_size=8, prefetched_partitions=-1),
            dict(batch_size=8, parallel_prefetch_requests=0),
            dict(batch_size=8, storage_threads=0),
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            OnlineDatasetConfig(**kw)


class TestSubsetSelection:
    def test_downsampled_trigger_set_only_fetches_selected(
        self, criteo_storage, tmp_path
    ):
        backend = LocalMetadataBackend(str(tmp_path / "meta"))
        strat = UniformRandomStrategy(
            backend, reset_after_trigger=True, fraction=0.25, partition_size=200
        )
        sel = Selector("sub", strat, TriggerSampleStorage(str(tmp_path / "tss")))
        sel.inform_data(np.arange(1000), np.zeros(1000), np.zeros(1000))
        info = sel.trigger()
        assert info.num_samples == 250
        cfg = OnlineDatasetConfig(batch_size=100, num_workers=2, prefetched_partitions=1)
        ds = OnlineDataset(
            criteo_storage, sel, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        keys, _, _, _ = _collect(ds)
        assert len(keys) == 250
        assert len(set(keys.tolist())) == 250
