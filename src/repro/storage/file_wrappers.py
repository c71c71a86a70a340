"""File wrappers: extract individual samples + labels from files (§4.1.4).

Each ingested file contains one or more samples. The wrapper knows the
file format and returns the raw sample payloads as one ``Payloads``
buffer (a ``Sequence[bytes]`` over one contiguous ``np.uint8`` array);
converting payloads to model input is the pipeline's
``bytes_parser_function`` (§3.5), not the wrapper's job. The storage
fills each send buffer with one ``get_samples_of_files`` call over the
buffer's files (``file_runs`` cuts file-sorted rows into its
arguments). Three wrappers, as in the paper:

- ``BinaryFileWrapper``   — fixed-row-size binary files (recommender data)
- ``CsvFileWrapper``      — variable-length CSV rows
- ``SingleSampleFileWrapper`` — one sample per file (e.g. a JPEG), label
  in a ``<path>.label`` sidecar file
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from repro.storage.filesystem import FilesystemWrapper, LocalFilesystemWrapper
from repro.storage.payloads import Payloads


def file_runs(file_ids: np.ndarray, positions: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """Rows sorted by file, as ``get_samples_of_files`` takes them: the
    file id of each run of equal ``file_ids``, and the run's
    ``positions``. Plain lists: slicing one is a small fraction of a
    one-sample file's read, where a numpy view per run is not."""
    if len(file_ids) == 0:
        return [], []
    starts = np.r_[0, np.flatnonzero(np.diff(file_ids)) + 1]
    bounds = [*starts.tolist(), len(file_ids)]
    pos = positions.tolist()
    return file_ids[starts].tolist(), [pos[a:b] for a, b in zip(bounds, bounds[1:])]


class FileWrapper(ABC):
    """Format-specific sample extraction over a ``FilesystemWrapper``."""

    def __init__(self, fs: FilesystemWrapper | None = None) -> None:
        self.fs = fs or LocalFilesystemWrapper()

    @abstractmethod
    def get_number_of_samples(self, path: str) -> int:
        """Number of samples stored in the file at ``path``."""

    @abstractmethod
    def get_samples(self, path: str, indices: Sequence[int]) -> Payloads:
        """Payloads of the samples at ``indices`` within ``path``, in
        request order."""

    def get_samples_of_files(
        self, paths: Sequence[str], indices: Sequence[Sequence[int]]
    ) -> Payloads:
        """``get_samples(paths[j], indices[j])`` for every ``j``, concatenated
        in order: the payloads of one send buffer from one call.

        Default: one ``get_samples`` call per file. Wrappers whose
        per-file call is dominated by fixed costs override it.
        """
        return Payloads.concat([self.get_samples(p, i) for p, i in zip(paths, indices)])

    @abstractmethod
    def get_all_samples(self, path: str) -> Payloads:
        """Payloads of every sample in ``path``, in file order."""

    @abstractmethod
    def get_labels(self, path: str) -> np.ndarray:
        """int64 label per sample in ``path``, in file order."""


class BinaryFileWrapper(FileWrapper):
    """Fixed-size-record binary files described by a numpy dtype.

    The label lives in a named field of the record (default ``label``),
    as in the paper's recommendation-system layout where the 160 B Criteo
    record embeds its label. Index-based access seeks to
    ``index * record_size`` instead of loading the whole file — the
    analog of the paper's optimized ``std::ifstream`` path.
    """

    def __init__(
        self,
        record_dtype: np.dtype,
        *,
        label_field: str = "label",
        fs: FilesystemWrapper | None = None,
    ) -> None:
        super().__init__(fs)
        self.record_dtype = np.dtype(record_dtype)
        self.label_field = label_field
        self._counts: dict[str, int] = {}  # path -> record count
        if label_field not in (self.record_dtype.names or ()):
            raise ValueError(
                f"label field {label_field!r} not in record dtype fields "
                f"{self.record_dtype.names}"
            )

    @property
    def record_size(self) -> int:
        return self.record_dtype.itemsize

    def write(self, path: str, records: np.ndarray) -> None:
        """Persist a structured array of records (one contiguous write)."""
        if records.dtype != self.record_dtype:
            raise ValueError(
                f"records dtype {records.dtype} != wrapper dtype {self.record_dtype}"
            )
        self.fs.put(path, records.tobytes())
        self._counts.pop(path, None)

    def get_number_of_samples(self, path: str) -> int:
        """Record count of ``path``, cached per path: files are immutable
        once ingested, so only the first call pays the ``stat``. Threads
        racing on a first call store the same count, so no lock is needed
        (and the wrapper stays picklable for Spark stages)."""
        n = self._counts.get(path)
        if n is None:
            size = self.fs.size(path)
            if size % self.record_size:
                raise ValueError(
                    f"{path}: size {size} not a multiple of record size {self.record_size}"
                )
            n = self._counts[path] = size // self.record_size
        return n

    def get_samples(self, path: str, indices: Sequence[int]) -> Payloads:
        rs = self.record_size
        n = self.get_number_of_samples(path)
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) == 0:
            return Payloads(np.empty(0, np.uint8), stride=rs)
        lo, hi = int(idx.min()), int(idx.max()) + 1
        if lo < 0 or hi > n:
            bad = idx[(idx < 0) | (idx >= n)][0]
            raise IndexError(f"{path}: sample index {bad} out of range [0, {n})")
        # Dense-enough request: one read of the covering span, then one
        # numpy gather — a single syscall instead of one per record (the
        # paper's buffered-ifstream optimization). A run of consecutive
        # indices is the span itself, with no copy.
        if (hi - lo) <= 16 * len(idx):
            span = Payloads(
                np.frombuffer(self.fs.get_range(path, lo * rs, (hi - lo) * rs), np.uint8),
                stride=rs,
            )
            if hi - lo == len(idx) and (np.diff(idx) == 1).all():
                return span
            return span.take(idx - lo)
        # Sparse request: per-record reads on one open handle, straight
        # into the output buffer.
        out = np.empty((len(idx), rs), np.uint8)
        self.fs.read_ranges_into(path, idx * rs, out)
        return Payloads(out, stride=rs)

    def get_all_samples(self, path: str) -> Payloads:
        return Payloads(np.frombuffer(self.fs.get(path), np.uint8), stride=self.record_size)

    def read_records(self, path: str) -> np.ndarray:
        """The whole file as a structured array (baseline sequential path)."""
        return np.frombuffer(self.fs.get(path), dtype=self.record_dtype)

    def get_labels(self, path: str) -> np.ndarray:
        recs = self.read_records(path)
        return recs[self.label_field].astype(np.int64)


class CsvFileWrapper(FileWrapper):
    """CSV files: one sample per row, label in a configurable column.

    The payload of a sample is the raw row bytes with the label column
    removed, so the bytes parser sees only features. Variable-length rows
    are supported (the paper's motivating case).
    """

    def __init__(
        self,
        *,
        label_column: int = 0,
        separator: str = ",",
        has_header: bool = False,
        fs: FilesystemWrapper | None = None,
    ) -> None:
        super().__init__(fs)
        self.label_column = label_column
        self.separator = separator
        self.has_header = has_header

    def _rows(self, path: str) -> list[str]:
        text = self.fs.get(path).decode("utf-8")
        rows = [r for r in text.splitlines() if r]
        return rows[1:] if self.has_header else rows

    def get_number_of_samples(self, path: str) -> int:
        return len(self._rows(path))

    def _payload(self, row: str) -> bytes:
        parts = row.split(self.separator)
        del parts[self.label_column]
        return self.separator.join(parts).encode("utf-8")

    def get_samples(self, path: str, indices: Sequence[int]) -> Payloads:
        rows = self._rows(path)
        return Payloads.of(self._payload(rows[i]) for i in indices)

    def get_all_samples(self, path: str) -> Payloads:
        return Payloads.of(self._payload(r) for r in self._rows(path))

    def get_labels(self, path: str) -> np.ndarray:
        labels = [
            int(r.split(self.separator)[self.label_column]) for r in self._rows(path)
        ]
        return np.asarray(labels, dtype=np.int64)


class SingleSampleFileWrapper(FileWrapper):
    """Files containing exactly one sample (e.g. a JPEG image).

    The label is stored in a ``<path>.label`` sidecar file, matching the
    paper's CLOC setup ("each sample is stored in an individual JPEG file
    and a corresponding label file").
    """

    LABEL_SUFFIX = ".label"

    def write(self, path: str, payload: bytes, label: int) -> None:
        self.fs.put(path, payload)
        self.fs.put(path + self.LABEL_SUFFIX, str(int(label)).encode("utf-8"))

    def get_number_of_samples(self, path: str) -> int:
        return 1

    def get_samples(self, path: str, indices: Sequence[int]) -> Payloads:
        return self.get_samples_of_files([path], [indices])

    def get_samples_of_files(
        self, paths: Sequence[str], indices: Sequence[Sequence[int]]
    ) -> Payloads:
        """One pass over ``paths``: each file is read once, whatever its
        index count, into one buffer (one join, one offsets array). A
        file given several (zero) indices is repeated with one ``take``;
        one given no index is read but contributes no sample.

        The bookkeeping is plain Python over the index lists, not numpy:
        for one file (``get_samples``, ``get_all_samples``) a numpy call
        costs about as much as the read, and for a send buffer of lists
        it is no faster."""
        if any(chain.from_iterable(indices)):
            j, bad = next((j, i) for j, idx in enumerate(indices) for i in idx if i)
            raise IndexError(f"{paths[j]}: single-sample file has no index {bad}")
        data = [self.fs.get(p) for p in paths]
        offsets = np.fromiter(accumulate(map(len, data), initial=0), np.int64, len(data) + 1)
        payloads = Payloads(np.frombuffer(b"".join(data), np.uint8), offsets=offsets)
        counts = list(map(len, indices))
        if counts.count(1) == len(counts):
            return payloads
        return payloads.take(np.repeat(np.arange(len(paths)), counts))

    def get_all_samples(self, path: str) -> Payloads:
        return self.get_samples_of_files([path], [[0]])

    def get_labels(self, path: str) -> np.ndarray:
        raw = self.fs.get(path + self.LABEL_SUFFIX)
        return np.asarray([int(raw.decode("utf-8"))], dtype=np.int64)
