"""The OnlineDataset (paper §4.2.1, Figures 4 & 5).

Loads keys from the selector and payloads from the storage, parses each
send buffer with one batch-parser call, and yields batches to the
training loop — which stays unaware of the data path. The trigger
training set consists of fixed-size partitions; every worker consumes an
equal share of *each* partition and the consumer round-robins full
batches across workers, exactly the paper's layering:

- ``num_workers``            dataloader workers (threads here)
- ``prefetched_partitions``  per-worker partition buffer size (0 = fetch
  on demand; 1 = next partition loads while the current one trains, ...)
- ``parallel_prefetch_requests`` concurrent fetches per worker
- ``storage_threads``        threads the storage uses per request

With ``prefetched_partitions`` >= 1, each worker keeps the fetches of
that many partitions ahead of the one it trains on in flight, on its own
pool of ``parallel_prefetch_requests`` threads, and starts consuming a
partition as soon as its first send buffer arrives — it does not wait
for the whole partition transfer, so batch latency does not depend on
partition size (§4.2.1). With 0, a worker fetches a whole partition and
then trains on it.

A training's epochs run as one stream: told the pass count (``epochs``),
the first ``batches()`` call starts one set of workers that go through
every pass's partitions back to back, so each worker's prefetch window
slides across the pass boundary and the next pass's first fetches
overlap this pass's tail, instead of every epoch paying for thread
start-up, an empty window and tear-down. Each ``batches()`` call still
yields exactly one pass, with the same batches in the same order as a
1-pass dataset; every pass fetches every partition again (nothing is
cached across passes).
"""
from __future__ import annotations

import queue
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from repro.batching import PASS_END, Rebatcher, get_or_stop, round_robin
from repro.selector.selector import Selector
from repro.storage.payloads import Payloads
from repro.storage.storage import SampleBuffer, Storage

#: consumer-side bound on buffered batches per worker
QUEUE_DEPTH = 8


@dataclass(frozen=True)
class Batch:
    """One training batch: the batch parser's output (the model's input)
    + labels + selection weights."""

    payloads: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    keys: np.ndarray

    def __len__(self) -> int:
        return len(self.payloads)


@dataclass
class OnlineDatasetConfig:
    """Data-path knobs — the five parameters swept in §5.1."""

    batch_size: int
    num_workers: int = 1
    prefetched_partitions: int = 1
    parallel_prefetch_requests: int = 1
    storage_threads: int = 1

    def __post_init__(self) -> None:
        for name, least in _LEAST.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")


#: the smallest value each ``OnlineDatasetConfig`` field accepts
_LEAST = {
    "batch_size": 1,
    "num_workers": 1,
    "prefetched_partitions": 0,
    "parallel_prefetch_requests": 1,
    "storage_threads": 1,
}


class OnlineDataset:
    """Streams the trigger training set into batches, with prefetching.

    ``batch_bytes_parser`` turns one send buffer's ``Payloads`` into one
    batch array (``DataConfig.parser`` lifts a per-sample §3.5 parser
    into one); ``transform`` then runs once per emitted batch.

    ``epochs`` is the number of ``batches()`` calls the training makes.
    A caller cannot look ahead from one call to the next, so the dataset
    must be told: the first call starts one stream of ``epochs`` passes,
    and each call yields the next pass. The stream's threads are joined
    when its last pass ends, when a pass is abandoned or fails, and when
    the dataset is dropped between passes; a call after the last pass
    starts a new stream.
    """

    def __init__(
        self,
        storage: Storage,
        selector: Selector,
        trigger_id: int,
        config: OnlineDatasetConfig,
        *,
        batch_bytes_parser: Callable[[Payloads], np.ndarray],
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
        epochs: int = 1,
    ) -> None:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.storage = storage
        self.selector = selector
        self.trigger_id = trigger_id
        self.config = config
        self.batch_bytes_parser = batch_bytes_parser
        self.transform = transform
        self.epochs = epochs
        self._stream: Iterator | None = None  # between passes: the rest

    def batches(self) -> Iterator[Batch]:
        """One pass: its batches round-robin across workers (paper Fig. 4)."""
        stream = self._stream if self._stream is not None else self._start()
        self._stream = None
        try:
            for item in stream:
                if item is PASS_END:
                    self._stream = stream  # the next call yields the next pass
                    return
                yield item
        finally:
            if self._stream is not stream:
                stream.close()  # abandoned: stop and join the threads

    def _start(self) -> Iterator:
        cfg = self.config
        loader = _Loader(
            self.storage, self.selector, self.trigger_id, cfg,
            self.batch_bytes_parser, self.transform,
        )
        n_partitions = self.selector.get_num_partitions(self.trigger_id)
        # "No prefetching" must mean fetch-on-demand: with a deep output
        # queue the workers would run ahead of the consumer anyway, hiding
        # the very stall the prefetched_partitions knob exists to remove.
        depth = 1 if cfg.prefetched_partitions == 0 else QUEUE_DEPTH
        return round_robin(
            [
                partial(loader._worker, w, n_partitions, self.epochs)
                for w in range(cfg.num_workers)
            ],
            depth,
        )


@dataclass(frozen=True)
class _Loader:
    """The worker side of one ``OnlineDataset`` stream. Its threads hold
    this, never the dataset, so a dataset dropped between passes is
    freed at once and closing its stream stops them."""

    storage: Storage
    selector: Selector
    trigger_id: int
    config: OnlineDatasetConfig
    batch_bytes_parser: Callable[[Payloads], np.ndarray]
    transform: Callable[[np.ndarray], np.ndarray] | None

    # ------------------------------------------------------------ fetching
    def _fetch_partition(
        self, p: int, worker_id: int, out: "queue.Queue", stop: threading.Event
    ) -> None:
        """One partition fetch: keys from selector, payload stream from
        storage; emits (SampleBuffer, its samples' weights) per send
        buffer, then a sentinel. Returns early once ``stop`` is set."""
        try:
            keys, weights = self.selector.get_worker_samples(
                self.trigger_id, p, worker_id, self.config.num_workers
            )
            for buf in self.storage.retrieve_stream(
                keys, storage_threads=self.config.storage_threads
            ):
                if stop.is_set():
                    return
                out.put((buf, weights[buf.rows]))
            out.put(None)
        except BaseException as e:
            out.put(e)

    # ------------------------------------------------------------ assembly
    def _drain(
        self,
        stream: "queue.Queue",
        rebatch: Rebatcher,
        emit: Callable[[Batch], None],
        stop: threading.Event,
    ) -> None:
        """Consume one partition's stream: one parser call + numpy ops per
        send buffer, full batches emitted as they fill.

        The parser sees the send buffer's ``Payloads`` (one contiguous
        buffer), so it can view it without a copy. Keeps the worker
        threads free of per-sample Python, so the GIL does not serialize
        them and the §5.1 scaling effects can show.
        """
        while (item := get_or_stop(stream, stop)) is not None:
            if isinstance(item, BaseException):
                raise item
            buf, weights = item
            arr = self.batch_bytes_parser(buf.payloads)
            for cols in rebatch.add(arr, buf.labels, weights, buf.keys):
                emit(Batch(*cols))

    def _worker(
        self,
        worker_id: int,
        n_partitions: int,
        passes: int,
        emit: Callable[[Batch], None],
        stop: threading.Event,
    ) -> None:
        cfg = self.config
        pf = cfg.prefetched_partitions
        rebatch = Rebatcher(cfg.batch_size, self.transform)
        closed = threading.Event()  # this worker is done with its fetches
        pool = ThreadPoolExecutor(cfg.parallel_prefetch_requests)
        window: deque["queue.Queue"] = deque()  # streams of started fetches
        n = passes * n_partitions  # the stream's partitions, pass after pass
        try:
            for i in range(n):
                # Start every fetch up to `pf` partitions ahead of the one
                # drained next, across pass boundaries: a buffer slot
                # frees when its drain starts.
                for j in range(i + len(window), min(i + pf + 1, n)):
                    stream: "queue.Queue" = queue.Queue()
                    p = j % n_partitions
                    if pf:  # a fetch's error reaches the drain on its stream
                        pool.submit(self._fetch_partition, p, worker_id, stream, closed)
                    else:  # on demand: fetch the whole partition, then train
                        self._fetch_partition(p, worker_id, stream, stop)
                    window.append(stream)
                self._drain(window.popleft(), rebatch, emit, stop)
                if (i + 1) % n_partitions == 0:  # a pass ends here
                    tail = rebatch.flush()
                    if tail is not None:
                        emit(Batch(*tail))
                    if i + 1 < n:
                        emit(PASS_END)
        finally:
            closed.set()
            pool.shutdown(cancel_futures=True)


class InMemoryDataset:
    """Batches over an already-fetched sample set (StB training phase).

    ``weights[i]`` is the selection weight of ``buffer.keys[i]``.
    """

    def __init__(
        self,
        buffer: SampleBuffer,
        weights: np.ndarray,
        *,
        batch_size: int,
        batch_bytes_parser: Callable[[Payloads], np.ndarray],
        shuffle_seed: int | None = None,
    ) -> None:
        weights = np.asarray(weights, np.float64)
        if len(weights) != len(buffer):
            raise ValueError(
                f"{len(weights)} weights for a buffer of {len(buffer)} samples"
            )
        self.buffer = buffer
        self.weights = weights
        self.batch_size = batch_size
        self.batch_bytes_parser = batch_bytes_parser
        self.shuffle_seed = shuffle_seed

    def batches(self) -> Iterator[Batch]:
        n = len(self.buffer)
        order = np.arange(n)
        if self.shuffle_seed is not None:
            np.random.default_rng(self.shuffle_seed).shuffle(order)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            arr = self.batch_bytes_parser(self.buffer.payloads.take(idx))
            yield Batch(arr, self.buffer.labels[idx], self.weights[idx], self.buffer.keys[idx])
