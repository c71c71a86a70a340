"""Batch assembly shared by the datasets: one re-batcher, one worker loop.

``OnlineDataset`` (§4.2.1) and the ``LocalDataset`` baseline (§5.1.1)
both run dataloader workers as threads. Each worker parses whole send
buffers (or file groups) into column chunks, cuts them into
``batch_size``-row batches with a ``Rebatcher`` — which runs the
dataset's ``transform`` once per batch it emits — and hands them to one
consumer, which takes them round-robin across workers (paper Fig. 4).

``round_robin`` owns the threads of one epoch. Abandoning the generator,
or any worker failing, sets a stop event that every blocking ``put`` /
``get`` checks, so no thread outlives the epoch; the first worker error
is raised in the consumer.
"""
from __future__ import annotations

import queue
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

#: how often a thread blocked on a queue re-checks the stop event
POLL_S = 0.05

_DONE = object()  # end-of-worker sentinel


class Stopped(Exception):
    """Raised in a worker thread once its epoch has been stopped."""


def put_or_stop(q: "queue.Queue", item, stop: threading.Event) -> None:
    """``q.put(item)``, raising ``Stopped`` instead of blocking past ``stop``."""
    while True:
        if stop.is_set():
            raise Stopped
        try:
            q.put(item, timeout=POLL_S)
            return
        except queue.Full:
            pass


def get_or_stop(q: "queue.Queue", stop: threading.Event):
    """``q.get()``, raising ``Stopped`` instead of blocking past ``stop``."""
    while True:
        if stop.is_set():
            raise Stopped
        try:
            return q.get(timeout=POLL_S)
        except queue.Empty:
            pass


class Rebatcher:
    """Cuts ``batch_size``-row batches from a stream of column chunks.

    Every chunk is a tuple of equal-length arrays (payload batch, labels,
    ...); rows keep their order across chunk boundaries. ``transform``
    runs once per emitted batch, on its first column: like Modyn's
    per-sample transform before collating ``batch_size`` samples, a
    worker transforms exactly the rows of the batch it is about to emit,
    never a whole send buffer ahead of it.
    """

    def __init__(
        self,
        batch_size: int,
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self.batch_size = batch_size
        self.transform = transform
        self._chunks: list[tuple[np.ndarray, ...]] = []
        self._n = 0

    def add(self, *columns: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Append one chunk; returns every full batch now available."""
        self._chunks.append(columns)
        self._n += len(columns[0])
        out = []
        while self._n >= self.batch_size:
            out.append(self._take(self.batch_size))
        return out

    def flush(self) -> tuple[np.ndarray, ...] | None:
        """The remaining rows as one short batch, or ``None`` if empty."""
        return self._take(self._n) if self._n else None

    def _take(self, n: int) -> tuple[np.ndarray, ...]:
        if len(self._chunks) == 1:
            cols = self._chunks[0]
        else:
            cols = tuple(np.concatenate(c) for c in zip(*self._chunks))
        self._chunks = [tuple(c[n:] for c in cols)] if n < self._n else []
        self._n -= n
        first, *rest = (c[:n] for c in cols)
        if self.transform is not None:
            first = self.transform(first)
        return (first, *rest)


def round_robin(
    workers: Sequence[Callable[[Callable[[object], None], threading.Event], None]],
    depth: int,
) -> Iterator:
    """Run each ``worker(emit, stop)`` in a thread; yield what they emit,
    one item per worker in turn, skipping workers that have finished.

    ``emit`` puts an item on the worker's queue of ``depth`` items and
    raises ``Stopped`` once the epoch is stopped; workers pass ``stop``
    to their own blocking waits. On exit — exhausted, closed, or failed —
    the generator stops and joins every worker thread.
    """
    stop = threading.Event()
    queues = [queue.Queue(maxsize=depth) for _ in workers]
    errors: list[BaseException] = []

    def run(work, q: "queue.Queue") -> None:
        try:
            work(lambda item: put_or_stop(q, item, stop), stop)
            put_or_stop(q, _DONE, stop)
        except Stopped:
            pass
        except BaseException as e:  # first error cancels the epoch
            errors.append(e)
            stop.set()

    threads = [
        threading.Thread(target=run, args=(work, q), daemon=True)
        for work, q in zip(workers, queues)
    ]
    for t in threads:
        t.start()
    try:
        live = list(queues)
        while live:
            for q in list(live):
                item = get_or_stop(q, stop)
                if item is _DONE:
                    live.remove(q)
                else:
                    yield item
    except Stopped:
        raise errors[0] from None
    finally:
        stop.set()
        for t in threads:
            t.join()
