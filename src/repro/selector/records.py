"""Fixed-size binary records split across chunk files (the format of the
paper's selector C++ extensions, §4.1.2 and §4.2.2).

The local metadata backend and the TriggerSampleStorage both store a
numpy structured array as ``n`` contiguous chunks, written in parallel
as ``<stem>_chunk_<i>.bin`` (the paper's multithreaded NVMe writes).
``write`` returns each chunk's file name and size in rows; the caller
keeps them and hands them back to ``read``, so reading lists no
directory and stats no file: only what the writer recorded is read, as
with ``repro.storage.parquet``. Names are relative to the directory, so
a directory renamed after the write still reads back.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

#: (file name within the directory, rows) of one chunk file
Chunk = tuple[str, int]


def write(directory: str, stem: str, arr: np.ndarray, n: int) -> list[Chunk]:
    """Split ``arr`` into ``n`` contiguous chunks (``np.array_split``; some
    may be empty) and write them with ``n`` threads."""
    os.makedirs(directory, exist_ok=True)
    parts = np.array_split(arr, n)
    names = [f"{stem}_chunk_{i:03d}.bin" for i in range(n)]
    with ThreadPoolExecutor(max_workers=n) as pool:
        list(pool.map(np.ndarray.tofile, parts, [os.path.join(directory, f) for f in names]))
    return [(name, len(part)) for name, part in zip(names, parts)]


def read(
    directory: str,
    chunks: Sequence[Chunk],
    dtype: np.dtype,
    start: int = 0,
    end: int | None = None,
) -> np.ndarray:
    """Rows ``[start, end)`` (default: all) of ``chunks`` taken in order,
    assembled across chunk boundaries by offset arithmetic: only the
    overlapping byte range of each chunk is read (Fig. 4)."""
    end = sum(n for _, n in chunks) if end is None else end
    pieces = []
    offset = 0
    for name, n in chunks:
        lo, hi = max(start, offset), min(end, offset + n)
        if lo < hi:
            pieces.append(
                np.fromfile(
                    os.path.join(directory, name), dtype=dtype, count=hi - lo,
                    offset=(lo - offset) * dtype.itemsize,
                )
            )
        offset += n
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=dtype)
