"""Filesystem wrappers abstracting byte-level I/O (paper §4.1.4).

The paper's storage component goes through ``FileSystemWrapper`` objects
so cloud filesystems (e.g. S3) can be added without touching the sample
extraction logic. We implement the local wrapper; the interface is what
the ``FileWrapper`` layer programs against.
"""
from __future__ import annotations

import os
from abc import ABC, abstractmethod

import numpy as np


class FilesystemWrapper(ABC):
    """Byte-stream I/O interface used by the file wrappers."""

    @abstractmethod
    def get(self, path: str) -> bytes:
        """Return the full contents of ``path``."""

    @abstractmethod
    def get_range(self, path: str, offset: int, length: int) -> bytes:
        """Return ``length`` bytes of ``path`` starting at ``offset``."""

    def read_ranges_into(self, path: str, offsets, out: np.ndarray) -> None:
        """Batched ``get_range`` into a preallocated 2-D ``np.uint8`` array:
        row ``j`` of ``out`` receives ``out.shape[1]`` bytes at ``offsets[j]``.

        Default loops over ``get_range``; implementations should override
        to keep a single open handle (the paper's ifstream-per-file).
        """
        for row, o in zip(out, offsets):
            row[:] = np.frombuffer(self.get_range(path, int(o), len(row)), np.uint8)

    @abstractmethod
    def put(self, path: str, data: bytes) -> None:
        """Write ``data`` to ``path``, creating parent directories."""

    @abstractmethod
    def size(self, path: str) -> int:
        """Size of ``path`` in bytes."""

    @abstractmethod
    def exists(self, path: str) -> bool:
        """Whether ``path`` exists."""


class LocalFilesystemWrapper(FilesystemWrapper):
    """Local-disk implementation; reads are positioned, not whole-file loads.

    Mirrors the paper's ``BinaryFileWrapper`` operating on
    ``std::ifstream`` "to not load the entire file into memory".
    """

    def get(self, path: str) -> bytes:
        # raw descriptor, as in ``get_range``: open, fstat, one read of the
        # whole size (repeated only while the kernel returns less), close
        fd = os.open(path, os.O_RDONLY)
        try:
            left = os.fstat(fd).st_size
            chunks = []
            while left > 0 and (chunk := os.read(fd, left)):
                chunks.append(chunk)
                left -= len(chunk)
            return chunks[0] if len(chunks) == 1 else b"".join(chunks)
        finally:
            os.close(fd)

    def get_range(self, path: str, offset: int, length: int) -> bytes:
        # one positioned read on a raw descriptor: three syscalls, each
        # a single GIL release, instead of a buffered open + seek + read
        fd = os.open(path, os.O_RDONLY)
        try:
            return os.pread(fd, length, offset)
        finally:
            os.close(fd)

    def read_ranges_into(self, path: str, offsets, out: np.ndarray) -> None:
        offsets = np.asarray(offsets, np.int64)
        fd = os.open(path, os.O_RDONLY)
        try:
            # ascending offsets: one forward pass over the file
            for j in np.argsort(offsets, kind="stable").tolist():
                if os.preadv(fd, [out[j]], int(offsets[j])) != out.shape[1]:
                    raise EOFError(f"{path}: short read at offset {offsets[j]}")
        finally:
            os.close(fd)

    def put(self, path: str, data: bytes) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(data)

    def size(self, path: str) -> int:
        return os.path.getsize(path)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)
