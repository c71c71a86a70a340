"""An epoch stops every thread it started, when abandoned and when it fails.

Both datasets run their workers through ``repro.batching.round_robin``.
Closing the batch generator after one batch, or a parser raising in one
worker, must bring ``threading.active_count()`` back to where it was
before the epoch.
"""
import threading
import time

import numpy as np
import pytest

from repro.selector.metadata_backend import LocalMetadataBackend
from repro.selector.presampling import NewDataStrategy
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.storage import storage as storage_mod
from repro.storage.file_wrappers import BinaryFileWrapper
from repro.storage.local_dataset import LocalDataset
from repro.synth_data import CRITEO_DTYPE, criteo_batch_parser, generate_criteo_files
from repro.trainer import OnlineDataset, OnlineDatasetConfig
from tests.conftest import CRITEO_N

ONLINE_CONFIGS = [
    dict(num_workers=4, prefetched_partitions=0),
    dict(num_workers=4, prefetched_partitions=2, parallel_prefetch_requests=2, storage_threads=2),
]


@pytest.fixture(scope="module")
def selector(criteo_storage, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("threads")
    strat = NewDataStrategy(
        LocalMetadataBackend(str(tmp / "meta")), reset_after_trigger=False, partition_size=400
    )
    sel = Selector("threads", strat, TriggerSampleStorage(str(tmp / "tss")))
    sel.inform_data(np.arange(CRITEO_N), np.zeros(CRITEO_N), np.zeros(CRITEO_N))
    sel.trigger()
    return sel


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    paths, _ = generate_criteo_files(
        str(tmp_path_factory.mktemp("threads_local")), n_samples=1000, samples_per_file=250
    )
    return paths


@pytest.fixture()
def baseline():
    """Thread count before the epoch, with the storage's shared I/O pool
    grown to full size first so its growth does not read as a leak."""
    n = storage_mod._IO_POOL_SIZE
    barrier = threading.Barrier(n)
    for f in [storage_mod._IO_POOL.submit(barrier.wait, 10) for _ in range(n)]:
        f.result()
    return threading.active_count()


def _settled(baseline: int, timeout: float = 10.0) -> int:
    deadline = time.monotonic() + timeout
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.02)
    return threading.active_count()


def _failing_parser(on_call: int):
    """``criteo_batch_parser`` that raises on its ``on_call``-th call."""
    lock = threading.Lock()
    calls = [0]

    def parse(payloads):
        with lock:
            calls[0] += 1
            n = calls[0]
        if n == on_call:
            raise RuntimeError("parser failed")
        return criteo_batch_parser(payloads)

    return parse


def _online(storage, selector, parser, overrides):
    cfg = OnlineDatasetConfig(batch_size=16, **overrides)
    return OnlineDataset(storage, selector, 0, cfg, batch_bytes_parser=parser)


def _local(files, parser):
    return LocalDataset(
        files, BinaryFileWrapper(CRITEO_DTYPE), batch_size=16, num_workers=4,
        batch_bytes_parser=parser,
    )


class TestOnlineDataset:
    @pytest.mark.parametrize("overrides", ONLINE_CONFIGS)
    def test_abandoned_epoch_stops_its_threads(
        self, criteo_storage, selector, baseline, overrides
    ):
        batches = _online(criteo_storage, selector, criteo_batch_parser, overrides).batches()
        assert len(next(batches)) == 16
        batches.close()
        assert _settled(baseline) <= baseline

    @pytest.mark.parametrize("overrides", ONLINE_CONFIGS)
    def test_failed_epoch_stops_its_threads(
        self, criteo_storage, selector, baseline, overrides
    ):
        ds = _online(criteo_storage, selector, _failing_parser(3), overrides)
        with pytest.raises(RuntimeError, match="parser failed"):
            for _ in ds.batches():
                pass
        assert _settled(baseline) <= baseline


class TestLocalDataset:
    def test_abandoned_epoch_stops_its_threads(self, files, baseline):
        batches = _local(files, criteo_batch_parser).batches()
        assert len(next(batches)[1]) == 16
        batches.close()
        assert _settled(baseline) <= baseline

    def test_failed_epoch_stops_its_threads(self, files, baseline):
        with pytest.raises(RuntimeError, match="parser failed"):
            for _ in _local(files, _failing_parser(2)).batches():
                pass
        assert _settled(baseline) <= baseline
