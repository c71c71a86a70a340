"""Sample payloads carried as one contiguous buffer (paper §4.2.3).

The paper's storage streams raw records, and its trainer "creates input
tensors directly from a memoryview on the sample data". ``Payloads`` is
that memoryview: the payload bytes of many samples in one ``np.uint8``
buffer, delimited either by a fixed ``stride`` (fixed-size binary
records) or by ``int64`` ``offsets`` (CSV rows, one-sample files).

It is a ``Sequence[bytes]``: ``p[i]`` and iteration yield ``bytes``, so
a per-sample ``bytes_parser_function`` (§3.5), lifted to a batch parser,
still gets ``bytes``, while the built-in batch parsers view ``buffer``
without copying. Slices are views of the parent buffer; ``take`` and
``concat`` copy once.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Iterable, Iterator

import numpy as np


class Payloads(Sequence):
    """Payload bytes of ``len(self)`` samples in one ``np.uint8`` buffer.

    Exactly one of ``stride`` (every sample has ``stride`` bytes) or
    ``offsets`` (sample ``i`` is ``buffer[offsets[i]:offsets[i + 1]]``,
    ``offsets[0] == 0``, ``offsets[-1] == len(buffer)``) is set.
    """

    __slots__ = ("buffer", "stride", "_offsets")

    def __init__(
        self,
        buffer: np.ndarray,
        *,
        stride: int | None = None,
        offsets: np.ndarray | None = None,
    ) -> None:
        buffer = np.asarray(buffer).reshape(-1)
        if buffer.dtype != np.uint8:
            raise TypeError(f"payload buffer must be uint8, got {buffer.dtype}")
        if (stride is None) == (offsets is None):
            raise ValueError("set exactly one of stride / offsets")
        if stride is not None:
            stride = int(stride)
            if stride < 1 or len(buffer) % stride:
                raise ValueError(
                    f"buffer of {len(buffer)} B is not a whole number of {stride} B records"
                )
        else:
            offsets = np.asarray(offsets, np.int64)
            if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(buffer):
                raise ValueError("offsets must run from 0 to len(buffer)")
        self.buffer = buffer
        self.stride = stride
        self._offsets = offsets

    @classmethod
    def _make(cls, buffer: np.ndarray, stride: int | None, offsets: np.ndarray | None) -> "Payloads":
        """Unchecked constructor for layouts derived from a valid one."""
        p = cls.__new__(cls)
        p.buffer, p.stride, p._offsets = buffer, stride, offsets
        return p

    @classmethod
    def of(cls, items: "Payloads | Iterable[bytes]") -> "Payloads":
        """``items`` itself if it is a ``Payloads``, else its bytes packed
        into one buffer with offsets (one join)."""
        if isinstance(items, Payloads):
            return items
        items = list(items)
        offsets = np.zeros(len(items) + 1, np.int64)
        np.cumsum(np.fromiter(map(len, items), np.int64, len(items)), out=offsets[1:])
        return cls(np.frombuffer(b"".join(items), np.uint8), offsets=offsets)

    @property
    def offsets(self) -> np.ndarray:
        """Start of every sample plus the end of the last (``len + 1``)."""
        if self._offsets is None:
            return np.arange(len(self) + 1, dtype=np.int64) * self.stride
        return self._offsets

    def __len__(self) -> int:
        if self.stride is not None:
            return len(self.buffer) // self.stride
        return len(self._offsets) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step != 1:
                return self.take(np.arange(start, stop, step))
            stop = max(start, stop)
            if self.stride is not None:
                s = self.stride
                return Payloads._make(self.buffer[start * s : stop * s], s, None)
            off = self._offsets[start : stop + 1]
            return Payloads._make(self.buffer[off[0] : off[-1]], None, off - off[0])
        i = operator.index(i)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"payload index {i} out of range [0, {n})")
        if self.stride is not None:
            return self.buffer[i * self.stride : (i + 1) * self.stride].tobytes()
        return self.buffer[self._offsets[i] : self._offsets[i + 1]].tobytes()

    def __iter__(self) -> Iterator[bytes]:
        data = self.buffer.tobytes()
        if self.stride is not None:
            s = self.stride
            return (data[i : i + s] for i in range(0, len(data), s))
        off = self._offsets.tolist()
        return (data[a:b] for a, b in zip(off, off[1:]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Payloads, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def take(self, indices) -> "Payloads":
        """The samples at non-negative ``indices``, copied into a new buffer."""
        idx = np.asarray(indices, np.int64)
        if self.stride is not None:
            rows = self.buffer.reshape(-1, self.stride)[idx]
            return Payloads._make(rows.reshape(-1), self.stride, None)
        starts = self._offsets[idx]
        lens = self._offsets[idx + 1] - starts
        offsets = np.zeros(len(idx) + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        gather = np.repeat(starts - offsets[:-1], lens) + np.arange(offsets[-1])
        return Payloads._make(self.buffer[gather], None, offsets)

    @staticmethod
    def concat(parts: Sequence["Payloads"]) -> "Payloads":
        """All ``parts`` in order: one copy, or none for a single part.

        The result keeps the common stride if every part has it; an empty
        list gives an empty ``Payloads``.
        """
        if len(parts) == 1:
            return parts[0]
        buffer = np.concatenate([p.buffer for p in parts]) if parts else np.empty(0, np.uint8)
        strides = {p.stride for p in parts}
        if len(strides) == 1 and None not in strides:
            return Payloads._make(buffer, strides.pop(), None)
        # each part's sample ends, shifted by where the part starts
        sizes = np.fromiter((len(p.buffer) for p in parts), np.int64, len(parts))
        counts = np.fromiter((len(p) for p in parts), np.int64, len(parts))
        ends = [p.offsets[1:] for p in parts]
        offsets = np.zeros(counts.sum() + 1, np.int64)
        if parts:
            offsets[1:] = np.concatenate(ends) + np.repeat(np.cumsum(sizes) - sizes, counts)
        return Payloads._make(buffer, None, offsets)
