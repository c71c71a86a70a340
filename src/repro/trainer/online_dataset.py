"""The OnlineDataset (paper §4.2.1, Figures 4 & 5).

Loads keys from the selector and payloads from the storage, parses bytes,
and yields batches to the training loop — which stays unaware of the data
path. The trigger training set consists of fixed-size partitions; every
worker consumes an equal share of *each* partition and the consumer
round-robins full batches across workers, exactly the paper's layering:

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
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.selector.selector import Selector
from repro.storage.payloads import Payloads
from repro.storage.storage import SampleBuffer, Storage


@dataclass(frozen=True)
class Batch:
    """One training batch: parsed payloads + labels + selection weights."""

    payloads: list
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
    queue_depth: int = 8  # consumer-side bound on buffered batches/worker

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

    def wait_stream(self, p: int) -> "queue.Queue":
        with self.cond:
            while p not in self.streams:
                self.cond.wait()
            return self.streams[p]


class OnlineDataset:
    """Streams the trigger training set into batches, with prefetching."""

    def __init__(
        self,
        storage: Storage,
        selector: Selector,
        trigger_id: int,
        config: OnlineDatasetConfig,
        *,
        bytes_parser: Callable[[bytes], np.ndarray] | None = None,
        batch_bytes_parser: Callable[[Payloads], np.ndarray] | None = None,
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        if (bytes_parser is None) == (batch_bytes_parser is None):
            raise ValueError(
                "set exactly one of bytes_parser (per-sample) / "
                "batch_bytes_parser (vectorized, for the throughput hot path)"
            )
        self.storage = storage
        self.selector = selector
        self.trigger_id = trigger_id
        self.config = config
        self.bytes_parser = bytes_parser
        self.batch_bytes_parser = batch_bytes_parser
        self.transform = transform

    # ------------------------------------------------------------ fetching
    def _fetch_partition(
        self, p: int, worker_id: int, out: "queue.Queue"
    ) -> None:
        """One partition fetch: keys from selector, payload stream from
        storage; emits (SampleBuffer, weight-by-key dict) then sentinel."""
        try:
            keys, weights = self.selector.get_worker_samples(
                self.trigger_id, p, worker_id, self.config.num_workers
            )
            if self.batch_bytes_parser is not None:
                order = np.argsort(keys)  # vectorized alignment via searchsorted
                wmap = (keys[order], weights[order])
            else:
                wmap = dict(zip(keys.tolist(), weights.tolist()))
            for buf in self.storage.retrieve_stream(
                keys, storage_threads=self.config.storage_threads
            ):
                out.put((buf, wmap))
            out.put(None)
        except BaseException as e:
            out.put(e)

    # ------------------------------------------------------------ assembly
    def _drain_into_batches(
        self,
        stream: "queue.Queue",
        pending: dict,
        out: "queue.Queue",
    ) -> None:
        """Consume one partition's buffers, cutting full batches.

        Buffers are processed in bulk (vectorized weights, one list
        extend per buffer) — per-sample Python work here would serialize
        the workers on the GIL and mask the data-path effects §5.1
        measures.
        """
        bs = self.config.batch_size
        parse = self.bytes_parser
        tf = self.transform
        while True:
            item = stream.get()
            if item is None:
                return
            if isinstance(item, BaseException):
                raise item
            buf, wmap = item
            assert isinstance(buf, SampleBuffer)
            parsed = [parse(p) for p in buf.payloads]
            if tf is not None:
                parsed = [tf(x) for x in parsed]
            pending["payloads"].extend(parsed)
            pending["labels"].extend(buf.labels.tolist())
            pending["keys"].extend(buf.keys.tolist())
            pending["weights"].extend(wmap[k] for k in buf.keys.tolist())
            while len(pending["payloads"]) >= bs:
                out.put(self._cut(pending, bs))

    def _drain_vectorized(
        self,
        stream: "queue.Queue",
        pending: dict,
        out: "queue.Queue",
    ) -> None:
        """Vectorized drain: one parser call + numpy ops per send buffer.

        The parser sees the send buffer's ``Payloads`` (one contiguous
        buffer), so a batch parser can view it without a copy. Keeps the
        worker threads free of per-sample Python, so the GIL does not
        serialize them and the §5.1 scaling effects can show.
        """
        bs = self.config.batch_size
        while True:
            item = stream.get()
            if item is None:
                return
            if isinstance(item, BaseException):
                raise item
            buf, (w_keys, w_vals) = item
            arr = self.batch_bytes_parser(buf.payloads)
            if self.transform is not None:
                arr = self.transform(arr)
            weights = w_vals[np.searchsorted(w_keys, buf.keys)]
            pending["chunks"].append((arr, buf.labels, weights, buf.keys))
            pending["n"] += len(buf.keys)
            while pending["n"] >= bs:
                out.put(self._cut_vectorized(pending, bs))

    @staticmethod
    def _cut_vectorized(pending: dict, n: int | None = None) -> Batch:
        arrs, labels, weights, keys = (
            [c[i] for c in pending["chunks"]] for i in range(4)
        )
        arr = np.concatenate(arrs) if len(arrs) > 1 else arrs[0]
        lab = np.concatenate(labels) if len(labels) > 1 else labels[0]
        wts = np.concatenate(weights) if len(weights) > 1 else weights[0]
        ks = np.concatenate(keys) if len(keys) > 1 else keys[0]
        n = pending["n"] if n is None else n
        batch = Batch(arr[:n], lab[:n], wts[:n], ks[:n])
        if n < pending["n"]:
            pending["chunks"] = [(arr[n:], lab[n:], wts[n:], ks[n:])]
        else:
            pending["chunks"] = []
        pending["n"] -= n
        return batch

    def _new_pending(self) -> dict:
        if self.batch_bytes_parser is not None:
            return {"chunks": [], "n": 0}
        return {"payloads": [], "labels": [], "weights": [], "keys": []}

    @staticmethod
    def _cut(pending: dict, n: int | None = None) -> Batch:
        n = len(pending["payloads"]) if n is None else n
        batch = Batch(
            pending["payloads"][:n],
            np.asarray(pending["labels"][:n], np.int64),
            np.asarray(pending["weights"][:n], np.float64),
            np.asarray(pending["keys"][:n], np.int64),
        )
        for key in pending:
            del pending[key][:n]
        return batch

    def _worker(self, worker_id: int, n_partitions: int, out: "queue.Queue") -> None:
        cfg = self.config
        vectorized = self.batch_bytes_parser is not None
        drain = self._drain_vectorized if vectorized else self._drain_into_batches
        pending = self._new_pending()
        try:
            if cfg.prefetched_partitions == 0:
                # No prefetching: fetch each partition on demand, inline.
                for p in range(n_partitions):
                    stream: "queue.Queue" = queue.Queue()
                    self._fetch_partition(p, worker_id, stream)
                    drain(stream, pending, out)
            else:
                state = _WorkerState()
                slots = threading.Semaphore(cfg.prefetched_partitions)
                next_p = iter(range(n_partitions))
                lock = threading.Lock()

                def _prefetcher() -> None:
                    while True:
                        slots.acquire()
                        with lock:
                            p = next(next_p, None)
                        if p is None:
                            slots.release()
                            return
                        self._fetch_partition(p, worker_id, state.open_stream(p))

                fetchers = [
                    threading.Thread(target=_prefetcher, daemon=True)
                    for _ in range(cfg.parallel_prefetch_requests)
                ]
                for t in fetchers:
                    t.start()
                for p in range(n_partitions):
                    stream = state.wait_stream(p)
                    # Buffer slot frees once consumption starts, letting the
                    # fetchers stay `prefetched_partitions` ahead.
                    slots.release()
                    drain(stream, pending, out)
                    with state.cond:
                        del state.streams[p]
            if pending["n"] if vectorized else pending["payloads"]:
                out.put(
                    self._cut_vectorized(pending) if vectorized else self._cut(pending)
                )
            out.put(None)
        except BaseException as e:
            out.put(e)

    # ------------------------------------------------------------ consumer
    def batches(self) -> Iterator[Batch]:
        """Round-robin batches across all workers (paper Fig. 4)."""
        cfg = self.config
        n_partitions = self.selector.get_num_partitions(self.trigger_id)
        # "No prefetching" must mean fetch-on-demand: with a deep output
        # queue the workers would run ahead of the consumer anyway, hiding
        # the very stall the prefetched_partitions knob exists to remove.
        depth = 1 if cfg.prefetched_partitions == 0 else cfg.queue_depth
        queues = [
            queue.Queue(maxsize=depth) for _ in range(cfg.num_workers)
        ]
        threads = [
            threading.Thread(
                target=self._worker, args=(w, n_partitions, queues[w]), daemon=True
            )
            for w in range(cfg.num_workers)
        ]
        for t in threads:
            t.start()
        live = set(range(cfg.num_workers))
        w = 0
        while live:
            if w in live:
                item = queues[w].get()
                if item is None:
                    live.discard(w)
                elif isinstance(item, BaseException):
                    raise item
                else:
                    yield item
            w = (w + 1) % cfg.num_workers
        for t in threads:
            t.join()


class InMemoryDataset:
    """Batches over an already-fetched sample set (StB training phase)."""

    def __init__(
        self,
        buffer: SampleBuffer,
        weights_by_key: dict[int, float],
        *,
        batch_size: int,
        bytes_parser: Callable[[bytes], np.ndarray],
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
        shuffle_seed: int | None = None,
    ) -> None:
        self.buffer = buffer
        self.weights_by_key = weights_by_key
        self.batch_size = batch_size
        self.bytes_parser = bytes_parser
        self.transform = transform
        self.shuffle_seed = shuffle_seed

    def batches(self) -> Iterator[Batch]:
        n = len(self.buffer)
        order = np.arange(n)
        if self.shuffle_seed is not None:
            np.random.default_rng(self.shuffle_seed).shuffle(order)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            payloads = []
            for i in idx:
                parsed = self.bytes_parser(self.buffer.payloads[i])
                if self.transform is not None:
                    parsed = self.transform(parsed)
                payloads.append(parsed)
            keys = self.buffer.keys[idx]
            yield Batch(
                payloads,
                self.buffer.labels[idx],
                np.asarray(
                    [self.weights_by_key[int(k)] for k in keys], np.float64
                ),
                keys,
            )
