"""An epoch stops every thread it started, when abandoned and when it fails.

Both datasets run their workers through ``repro.batching.round_robin``.
Closing the batch generator after one batch, a parser raising in one
worker, or a storage lookup raising under one partition fetch, must bring
``threading.active_count()`` back to where it was before the epoch. An
``OnlineDataset`` told several passes keeps one stream running between
them; abandoning a later pass, a later pass failing, or dropping the
dataset between passes must stop that stream's threads too.
"""
import threading
import time

import pytest

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
def selector(criteo_selector, tmp_path_factory):
    return criteo_selector(tmp_path_factory.mktemp("threads"), partition_size=400)


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


def _failing_on(on_call: int, fn, name: str):
    """``fn`` that raises on its ``on_call``-th call."""
    lock = threading.Lock()
    calls = [0]

    def call(*args, **kwargs):
        with lock:
            calls[0] += 1
            n = calls[0]
        if n == on_call:
            raise RuntimeError(f"{name} failed")
        return fn(*args, **kwargs)

    return call


def _failing_parser(on_call: int):
    """``criteo_batch_parser`` that raises on its ``on_call``-th call."""
    return _failing_on(on_call, criteo_batch_parser, "parser")


def _online(storage, selector, parser, overrides, epochs=1):
    cfg = OnlineDatasetConfig(batch_size=16, **overrides)
    return OnlineDataset(storage, selector, 0, cfg, batch_bytes_parser=parser, epochs=epochs)


def _drain_pass(ds) -> int:
    return sum(len(b) for b in ds.batches())


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

    @pytest.mark.parametrize("failing", ["parser", "lookup"])
    @pytest.mark.parametrize("overrides", ONLINE_CONFIGS)
    def test_failed_epoch_stops_its_threads(
        self, criteo_storage, selector, baseline, monkeypatch, overrides, failing
    ):
        parser = criteo_batch_parser
        if failing == "parser":
            parser = _failing_parser(3)
        else:
            monkeypatch.setattr(
                criteo_storage, "lookup", _failing_on(3, criteo_storage.lookup, "lookup")
            )
        ds = _online(criteo_storage, selector, parser, overrides)
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            for _ in ds.batches():
                pass
        assert _settled(baseline) <= baseline


    @pytest.mark.parametrize("overrides", ONLINE_CONFIGS)
    def test_abandoned_second_pass_stops_the_stream(
        self, criteo_storage, selector, baseline, overrides
    ):
        ds = _online(criteo_storage, selector, criteo_batch_parser, overrides, epochs=3)
        assert _drain_pass(ds) == CRITEO_N
        batches = ds.batches()
        assert len(next(batches)) == 16
        batches.close()
        assert _settled(baseline) <= baseline

    @pytest.mark.parametrize("overrides", ONLINE_CONFIGS)
    def test_failed_second_pass_stops_the_stream(
        self, criteo_storage, selector, baseline, monkeypatch, overrides
    ):
        # the first lookup of pass 2 fails: its fetch may start while
        # pass 1 drains, but the error belongs to pass 2 and is raised there
        lookup, lock, seen = criteo_storage.lookup, threading.Lock(), set()

        def failing_on_repeat(keys):
            with lock:
                again = keys.tobytes() in seen
                seen.add(keys.tobytes())
            if again:
                raise RuntimeError("lookup failed")
            return lookup(keys)

        monkeypatch.setattr(criteo_storage, "lookup", failing_on_repeat)
        ds = _online(criteo_storage, selector, criteo_batch_parser, overrides, epochs=3)
        assert _drain_pass(ds) == CRITEO_N
        with pytest.raises(RuntimeError, match="lookup failed"):
            _drain_pass(ds)
        assert _settled(baseline) <= baseline

    @pytest.mark.parametrize("overrides", ONLINE_CONFIGS)
    def test_dataset_dropped_between_passes_stops_the_stream(
        self, criteo_storage, selector, baseline, overrides
    ):
        ds = _online(criteo_storage, selector, criteo_batch_parser, overrides, epochs=3)
        assert _drain_pass(ds) == CRITEO_N
        del ds  # no cycle holds it: the suspended stream closes at once
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
