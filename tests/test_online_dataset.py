"""Tests for the OnlineDataset data path (paper §4.2.1, Figs. 4 & 5).

The key invariant: regardless of worker count, prefetch depth, parallel
prefetch requests, partition size, or storage threads, one epoch yields
every sample of the trigger training set exactly once with its weight.
"""
import threading
import time

import numpy as np
import pytest

from repro.selector.metadata_backend import LocalMetadataBackend, SparkMetadataBackend
from repro.selector.presampling import NewDataStrategy, UniformRandomStrategy
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.synth_data import criteo_batch_parser
from repro.trainer import OnlineDataset, OnlineDatasetConfig
from repro.trainer.online_dataset import _Loader
from tests.conftest import CRITEO_N


@pytest.fixture(scope="module")
def selector(criteo_selector, tmp_path_factory):
    """A selector with one 3000-sample trigger set in 4 partitions."""
    return criteo_selector(tmp_path_factory.mktemp("ods"), partition_size=800)


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


class TestPasses:
    """A dataset told ``epochs`` streams them as one: each ``batches()``
    call is one pass, equal to a 1-pass dataset's epoch."""

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_each_pass_delivers_every_sample_once(self, criteo_storage, selector, overrides):
        cfg = OnlineDatasetConfig(batch_size=256, **overrides)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser,
            epochs=3,
        )
        for _ in range(3):
            keys, weights, _, _ = _collect(ds)
            assert sorted(keys.tolist()) == list(range(CRITEO_N))
            assert np.allclose(weights, 1.0)

    # several storage threads deliver a partition's send buffers in
    # completion order, so only these configurations fix the batch order
    @pytest.mark.parametrize(
        "overrides", [c for c in CONFIGS if c.get("storage_threads", 1) == 1]
    )
    def test_each_pass_equals_a_one_pass_epoch(self, criteo_storage, selector, overrides):
        cfg = OnlineDatasetConfig(batch_size=200, **overrides)

        def dataset(epochs):
            return OnlineDataset(
                criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser,
                epochs=epochs,
            )

        def batches(ds):
            return [
                (b.keys.tolist(), b.weights.tolist(), b.payloads.tobytes())
                for b in ds.batches()
            ]

        want = batches(dataset(1))
        ds = dataset(3)
        for _ in range(3):
            assert batches(ds) == want

    def test_call_after_last_pass_starts_a_new_stream(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=512, num_workers=2, prefetched_partitions=1)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser,
            epochs=2,
        )
        for _ in range(3):
            keys, _, _, _ = _collect(ds)
            assert sorted(keys.tolist()) == list(range(CRITEO_N))

    def test_invalid_epochs_rejected(self, criteo_storage, selector):
        with pytest.raises(ValueError):
            OnlineDataset(
                criteo_storage, selector, 0, OnlineDatasetConfig(batch_size=8),
                batch_bytes_parser=criteo_batch_parser, epochs=0,
            )


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
        sel.tss.persist(0, [(keys, keys.astype(float) / 10.0)])
        sel.current_trigger = 1
        cfg = OnlineDatasetConfig(batch_size=32, num_workers=2)
        ds = OnlineDataset(
            criteo_storage, sel, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        got = {}
        for b in ds.batches():
            got.update(dict(zip(b.keys.tolist(), b.weights.tolist())))
        assert got == {int(k): k / 10.0 for k in keys}


    def test_key_listed_twice_delivers_each_weight_once(self, criteo_storage, tmp_path):
        backend = LocalMetadataBackend(str(tmp_path / "meta"))
        strat = NewDataStrategy(backend, partition_size=500)
        sel = Selector("twice", strat, TriggerSampleStorage(str(tmp_path / "tss")))
        keys = np.array([5, 40, 5, 7, 40])
        weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        sel.tss.persist(0, [(keys, weights)])
        sel.current_trigger = 1
        cfg = OnlineDatasetConfig(batch_size=2, num_workers=1, storage_threads=2)
        ds = OnlineDataset(
            criteo_storage, sel, 0, cfg, batch_bytes_parser=criteo_batch_parser
        )
        got = sorted(
            (k, w) for b in ds.batches() for k, w in zip(b.keys.tolist(), b.weights.tolist())
        )
        assert got == sorted(zip(keys.tolist(), weights.tolist()))


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
        self, spark, criteo_storage, tmp_path
    ):
        backend = SparkMetadataBackend(spark, str(tmp_path / "meta"))
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


WINDOW_CONFIGS = [(0, 1), (1, 1), (2, 1), (2, 2)]


class TestPrefetchWindow:
    """One worker keeps at most ``prefetched_partitions`` fetches ahead of
    the partition it drains, and at most ``parallel_prefetch_requests``
    of them in flight; with no prefetching it fetches a partition only
    once the previous one is drained whole. Over several passes the
    window slides across each pass boundary: the next pass's first fetch
    starts while this pass's last partition drains."""

    @pytest.fixture(scope="class")
    def window_selector(self, criteo_selector, tmp_path_factory):
        return criteo_selector(tmp_path_factory.mktemp("window"), partition_size=300)

    @pytest.mark.parametrize("pf,par", WINDOW_CONFIGS)
    def test_fetches_stay_within_the_window(
        self, criteo_storage, window_selector, monkeypatch, pf, par
    ):
        _check_window(criteo_storage, window_selector, monkeypatch, pf, par, epochs=1)

    @pytest.mark.parametrize("pf,par", WINDOW_CONFIGS)
    def test_window_slides_across_passes(
        self, criteo_storage, window_selector, monkeypatch, pf, par
    ):
        _check_window(criteo_storage, window_selector, monkeypatch, pf, par, epochs=3)


def _check_window(storage, selector, monkeypatch, pf, par, *, epochs):
    """Record fetch starts and drains over ``epochs`` passes of one
    worker; fetch ``i`` of the stream (pass ``i // n``, partition
    ``i % n``) may start only once drain ``i - pf`` has begun."""
    n_partitions = selector.get_num_partitions(0)
    assert n_partitions >= 8
    cfg = OnlineDatasetConfig(
        batch_size=64, prefetched_partitions=pf, parallel_prefetch_requests=par
    )
    ds = OnlineDataset(
        storage, selector, 0, cfg, batch_bytes_parser=criteo_batch_parser, epochs=epochs
    )
    lock = threading.Lock()
    events = []  # ("fetch", partition) | ("drain",) | ("drained",)
    in_flight, most_in_flight = 0, 0
    get_worker_samples = selector.get_worker_samples
    retrieve_stream = storage.retrieve_stream
    drain = _Loader._drain

    def recording_get_worker_samples(trigger_id, partition, *args):
        nonlocal in_flight, most_in_flight
        with lock:
            events.append(("fetch", partition))
            in_flight += 1
            most_in_flight = max(most_in_flight, in_flight)
        return get_worker_samples(trigger_id, partition, *args)

    def recording_retrieve_stream(keys, **kwargs):
        nonlocal in_flight
        try:
            yield from retrieve_stream(keys, **kwargs)
        finally:
            with lock:
                in_flight -= 1

    def recording_drain(*args):
        # the fetches started so far get time to begin, so one that
        # started a partition too early is recorded before this drain
        time.sleep(0.03)
        with lock:
            events.append(("drain",))
        drain(*args)
        with lock:
            events.append(("drained",))

    monkeypatch.setattr(selector, "get_worker_samples", recording_get_worker_samples)
    monkeypatch.setattr(storage, "retrieve_stream", recording_retrieve_stream)
    monkeypatch.setattr(_Loader, "_drain", recording_drain)
    for _ in range(epochs):
        keys, _, _, _ = _collect(ds)
        assert sorted(keys.tolist()) == list(range(CRITEO_N))

    fetched = [e[1] for e in events if e[0] == "fetch"]
    assert sorted(fetched) == sorted(list(range(n_partitions)) * epochs)
    seen = [0] * n_partitions  # earlier fetches of each partition
    for i, event in enumerate(events):
        if event[0] != "fetch":
            continue
        p = event[1]
        at = seen[p] * n_partitions + p  # the fetch's place in the stream
        seen[p] += 1
        before = [e[0] for e in events[:i]]
        assert before.count("drain") >= at - pf
        if pf == 0:
            assert before.count("drained") >= at
        elif at == n_partitions:  # the next pass's first fetch overlaps this one
            assert before.count("drained") < at
    assert most_in_flight <= par
