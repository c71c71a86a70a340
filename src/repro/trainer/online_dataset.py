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

Workers start consuming a partition as soon as its first send buffer
arrives — they do not wait for the whole partition transfer, so batch
latency does not depend on partition size (§4.2.1).
"""
from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from repro.batching import POLL_S, Rebatcher, Stopped, get_or_stop, round_robin
from repro.selector.selector import Selector
from repro.storage.payloads import Payloads
from repro.storage.storage import SampleBuffer, Storage

#: consumer-side bound on buffered batches per worker
QUEUE_DEPTH = 8


@dataclass(frozen=True)
class Batch:
    """One training batch: parsed payloads + labels + selection weights."""

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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.prefetched_partitions < 0:
            raise ValueError("prefetched_partitions must be >= 0")
        if self.parallel_prefetch_requests < 1:
            raise ValueError("parallel_prefetch_requests must be >= 1")
        if self.storage_threads < 1:
            raise ValueError("storage_threads must be >= 1")


class _WorkerState:
    """Per-worker prefetch buffer: partition index -> stream queue."""

    def __init__(self) -> None:
        self.streams: dict[int, "queue.Queue"] = {}
        self.cond = threading.Condition()

    def open_stream(self, p: int) -> "queue.Queue":
        q: "queue.Queue" = queue.Queue()
        with self.cond:
            self.streams[p] = q
            self.cond.notify_all()
        return q

    def take_stream(self, p: int, stop: threading.Event) -> "queue.Queue":
        """Partition ``p``'s stream once its fetch has started."""
        with self.cond:
            while p not in self.streams:
                if stop.is_set():
                    raise Stopped
                self.cond.wait(POLL_S)
            return self.streams.pop(p)


class OnlineDataset:
    """Streams the trigger training set into batches, with prefetching.

    ``batch_bytes_parser`` turns one send buffer's ``Payloads`` into one
    batch array (``DataConfig.parser`` lifts a per-sample §3.5 parser
    into one); ``transform`` then runs once per emitted batch.
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
    ) -> None:
        self.storage = storage
        self.selector = selector
        self.trigger_id = trigger_id
        self.config = config
        self.batch_bytes_parser = batch_bytes_parser
        self.transform = transform

    # ------------------------------------------------------------ fetching
    def _fetch_partition(
        self, p: int, worker_id: int, out: "queue.Queue", stop: threading.Event
    ) -> None:
        """One partition fetch: keys from selector, payload stream from
        storage; emits (SampleBuffer, weights sorted by key) per send
        buffer, then a sentinel. Returns early once ``stop`` is set."""
        try:
            keys, weights = self.selector.get_worker_samples(
                self.trigger_id, p, worker_id, self.config.num_workers
            )
            order = np.argsort(keys)  # vectorized alignment via searchsorted
            by_key = (keys[order], weights[order])
            for buf in self.storage.retrieve_stream(
                keys, storage_threads=self.config.storage_threads
            ):
                if stop.is_set():
                    return
                out.put((buf, by_key))
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
            buf, (w_keys, w_vals) = item
            arr = self.batch_bytes_parser(buf.payloads)
            weights = w_vals[np.searchsorted(w_keys, buf.keys)]
            for cols in rebatch.add(arr, buf.labels, weights, buf.keys):
                emit(Batch(*cols))

    def _worker(
        self,
        worker_id: int,
        n_partitions: int,
        emit: Callable[[Batch], None],
        stop: threading.Event,
    ) -> None:
        cfg = self.config
        rebatch = Rebatcher(cfg.batch_size, self.transform)
        if cfg.prefetched_partitions == 0:
            # No prefetching: fetch each partition on demand, inline.
            for p in range(n_partitions):
                stream: "queue.Queue" = queue.Queue()
                self._fetch_partition(p, worker_id, stream, stop)
                self._drain(stream, rebatch, emit, stop)
        else:
            state = _WorkerState()
            slots = threading.Semaphore(cfg.prefetched_partitions)
            next_p = iter(range(n_partitions))
            lock = threading.Lock()
            closed = threading.Event()  # this worker is done with its fetchers

            def _prefetcher() -> None:
                while True:
                    slots.acquire()
                    with lock:
                        p = next(next_p, None)
                    if p is None or closed.is_set():
                        slots.release()
                        return
                    self._fetch_partition(p, worker_id, state.open_stream(p), closed)

            fetchers = [
                threading.Thread(target=_prefetcher, daemon=True)
                for _ in range(cfg.parallel_prefetch_requests)
            ]
            for t in fetchers:
                t.start()
            try:
                for p in range(n_partitions):
                    stream = state.take_stream(p, stop)
                    # Buffer slot frees once consumption starts, letting the
                    # fetchers stay `prefetched_partitions` ahead.
                    slots.release()
                    self._drain(stream, rebatch, emit, stop)
            finally:
                # wake fetchers waiting for a slot, so they see `closed`
                closed.set()
                for _ in fetchers:
                    slots.release()
                for t in fetchers:
                    t.join()
        tail = rebatch.flush()
        if tail is not None:
            emit(Batch(*tail))

    # ------------------------------------------------------------ consumer
    def batches(self) -> Iterator[Batch]:
        """Round-robin batches across all workers (paper Fig. 4)."""
        cfg = self.config
        n_partitions = self.selector.get_num_partitions(self.trigger_id)
        # "No prefetching" must mean fetch-on-demand: with a deep output
        # queue the workers would run ahead of the consumer anyway, hiding
        # the very stall the prefetched_partitions knob exists to remove.
        depth = 1 if cfg.prefetched_partitions == 0 else QUEUE_DEPTH
        yield from round_robin(
            [partial(self._worker, w, n_partitions) for w in range(cfg.num_workers)],
            depth,
        )


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
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
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
        self.transform = transform
        self.shuffle_seed = shuffle_seed

    def batches(self) -> Iterator[Batch]:
        n = len(self.buffer)
        order = np.arange(n)
        if self.shuffle_seed is not None:
            np.random.default_rng(self.shuffle_seed).shuffle(order)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            arr = self.batch_bytes_parser(self.buffer.payloads.take(idx))
            if self.transform is not None:
                arr = self.transform(arr)
            yield Batch(arr, self.buffer.labels[idx], self.weights[idx], self.buffer.keys[idx])
