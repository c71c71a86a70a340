"""Spans around calls into the program, recorded from outside it.

``Tracer.wrap`` turns a function into one that records a span per call:
name, start, end, the span that caused it and whether it raised.
``Patches`` installs such wrappers on the program's classes and modules
and puts the originals back afterwards; the program itself is not
edited. A span's parent is the innermost open span on the same thread.
Threads that have no open span (dataloader workers, prefetchers, the
storage I/O pool) attach to the run's root span.

For a generator function the wrapper records one span per ``next()``:
the time the caller waits for the next item, which is the time the
trainer blocks on ``OnlineDataset.batches`` or a fetch thread waits on
``Storage.retrieve_stream``.
"""
from __future__ import annotations

import gzip
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

ROOT = 0
_END = object()

#: (span id, parent id, name, start, end, raised)
Span = tuple[int, int, str, float, float, bool]


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        # read the class __dict__ so staticmethods and inherited
        # attributes are restored exactly as they were
        if isinstance(owner, type):
            self._saved.append((owner, attr, owner.__dict__.get(attr, _END)))
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _END:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """In-memory span recorder plus named counters and samples."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(ROOT + 1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._by_name: dict[str, list[Span]] = {}
        self._indexed = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else ROOT
        sid = next(self._ids)
        stack.append(sid)
        raised = True
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, raised))

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        on_result: Callable | None = None,
    ) -> Callable:
        """``fn`` with a span per call. ``name`` may be a function of the
        call's positional arguments; ``on_result(name, args, result)``
        records counts after a call that returned."""

        def traced(*args, **kwargs):
            span = name(*args) if callable(name) else name
            result = self.timed(span, fn, *args, **kwargs)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    def wrap_generator(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        on_item: Callable | None = None,
    ) -> Callable:
        """Generator function ``fn`` with a span per ``next()``.
        ``on_item(name, index, item, seconds_since_call)`` sees each item."""

        def traced(*args, **kwargs):
            span = name(*args) if callable(name) else name
            self.count(f"{span}#calls")
            called = time.perf_counter()
            inner = fn(*args, **kwargs)
            for i in itertools.count():
                item = self.timed(span, next, inner, _END)
                if item is _END:
                    return
                if on_item is not None:
                    on_item(span, i, item, time.perf_counter() - called)
                yield item

        return traced

    # ------------------------------------------------------------ results
    def named(self, name: str) -> list[Span]:
        """The spans called ``name`` (indexed once recording is over)."""
        if self._indexed != len(self.spans):
            self._by_name = defaultdict(list)
            for span in self.spans:
                self._by_name[span[2]].append(span)
            self._indexed = len(self.spans)
        return self._by_name.get(name, [])

    def stats(self, name: str) -> dict[str, float]:
        """``calls``, ``busy_ms`` and ``errors`` of one traced function.

        A generator's calls are its invocations, its busy time the sum of
        its ``next()`` waits."""
        spans = self.named(name)
        calls = self.counters.get(f"{name}#calls", len(spans))
        return {
            f"{name}.calls": float(calls),
            f"{name}.busy_ms": 1e3 * sum(s[4] - s[3] for s in spans),
            f"{name}.errors": float(sum(s[5] for s in spans)),
        }

    def self_ms(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        mine = {s[0] for s in self.named(name)}
        own = self_times(self.spans, mine)
        return 1e3 * sum(own.values())

    def write(self, path: str) -> None:
        """All spans as gzipped CSV, times relative to the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as f:
            f.write("id,parent,name,start_s,end_s,raised\n")
            for sid, parent, name, t0, t1, raised in self.spans:
                f.write(
                    f"{sid},{parent},{name},{t0 - origin:.6f},"
                    f"{t1 - origin:.6f},{int(raised)}\n"
                )


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span], ids: set[int] | None = None) -> dict[int, float]:
    """Span id -> its duration minus the part of it its child spans cover
    (children that overlap each other count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - covered(children.get(sid, ()), t0, t1)
        for sid, _, _, t0, t1, _ in spans
        if ids is None or sid in ids
    }
