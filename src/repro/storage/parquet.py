"""Parquet appends written from the driver (the COPY-ingest analog).

The paper bulk-loads new rows into Postgres with ``COPY``. Here every
append to a Parquet table (the storage registry, a selector trigger
bucket) is one file built from numpy columns with Arrow and written by
the calling process: the driver already holds the rows, so no Spark job
runs. Spark stays the only reader.

Each table is declared once as a tuple of column names, all ``int64``;
``spark_ddl`` and ``arrow_schema`` derive the read schema and the write
schema from it, so the two cannot drift.

An append is committed by an atomic rename: the data is written to a
hidden ``.part-<uuid>.parquet`` and then renamed to
``part-<uuid>.parquet``. Spark's file listing skips names starting with
``.`` or ``_``, so a reader sees either the whole file or none of it,
and a file left behind by a crash before the rename stays invisible.
"""
from __future__ import annotations

import os
import uuid
from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def spark_ddl(columns: Sequence[str]) -> str:
    """Spark DDL schema declaring every column of ``columns`` as ``long``."""
    return ", ".join(f"{c} long" for c in columns)


def arrow_schema(columns: Sequence[str]) -> pa.Schema:
    """Arrow schema declaring every column of ``columns`` as ``int64``."""
    return pa.schema([(c, pa.int64()) for c in columns])


def append(directory: str, columns: Sequence[np.ndarray], schema: pa.Schema) -> str:
    """Append one Parquet file holding ``columns`` (in ``schema`` order) to
    the table at ``directory``; returns the committed file's path.

    The rename is the commit point: on any failure before it the table
    is unchanged, and the temporary file is removed (best effort) before
    the error propagates.
    """
    table = pa.Table.from_arrays(
        [pa.array(np.asarray(c, np.int64), pa.int64()) for c in columns], schema=schema
    )
    os.makedirs(directory, exist_ok=True)
    name = f"part-{uuid.uuid4().hex}.parquet"
    tmp, final = os.path.join(directory, "." + name), os.path.join(directory, name)
    try:
        pq.write_table(table, tmp)
        os.replace(tmp, final)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return final
