"""Fault injection on the storage ingest path (paper §4.1.4).

The Parquet registry append is the ingest's commit point: if it fails,
the hot-path index must not serve the would-be keys, and the next ingest
must reuse them so keys stay dense and agree with the registry. The
append writes a hidden file and renames it into place, so a failure at
either step, or a crash that leaves the hidden file behind, must leave
no registry row visible.
"""
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from repro.selector.metadata_backend import SparkMetadataBackend
from repro.storage import BinaryFileWrapper, Storage
from repro.synth_data import CRITEO_DTYPE, criteo_lite_array, generate_criteo_files

PER_FILE = 20


def _fail(*args, **kwargs):
    raise OSError("injected registry write failure")


def _visible(directory):
    """Data files Spark lists in ``directory`` (it skips ``.``/``_`` names)."""
    return sorted(f for f in os.listdir(directory) if not f.startswith((".", "_")))


def _hidden(directory):
    return sorted(f for f in os.listdir(directory) if f.startswith(".part-"))


def test_failed_registry_write_leaves_no_half_ingest(spark, tmp_path, monkeypatch):
    paths, days = generate_criteo_files(
        str(tmp_path / "d"), n_samples=3 * PER_FILE, samples_per_file=PER_FILE
    )
    st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
    st.ingest_files(paths[:1], timestamps=days[:1])

    with monkeypatch.context() as m:
        m.setattr(pq, "write_table", _fail)
        with pytest.raises(OSError, match="injected"):
            st.ingest_files(paths[1:2], timestamps=days[1:2])

    with pytest.raises(KeyError, match="unknown sample keys"):
        st.lookup(np.arange(PER_FILE, 2 * PER_FILE))
    assert st.num_samples == PER_FILE

    keys = st.ingest_files(paths[1:], timestamps=days[1:])
    assert keys.tolist() == list(range(PER_FILE, 3 * PER_FILE))
    assert st.num_samples == 3 * PER_FILE
    meta = st.get_metadata(np.arange(3 * PER_FILE)).sort_values("sample_key")
    assert meta["sample_key"].tolist() == list(range(3 * PER_FILE))
    file_ids, positions, labels = st.lookup(meta["sample_key"].to_numpy())
    assert np.array_equal(meta["file_id"].to_numpy(), file_ids)
    assert np.array_equal(meta["idx"].to_numpy(), positions)
    assert np.array_equal(meta["label"].to_numpy(), labels)

    # the retried files serve their own records under the new keys
    buf = st.get_samples(keys)
    by_key = dict(zip(buf.keys.tolist(), buf.payloads))
    for f in (1, 2):
        arr = criteo_lite_array(PER_FILE, seed=f, day=days[f])
        for i in range(PER_FILE):
            assert by_key[f * PER_FILE + i] == arr[i : i + 1].tobytes()


@pytest.fixture()
def criteo(spark, tmp_path):
    """One committed file in a fresh storage, two more files to ingest."""
    paths, days = generate_criteo_files(
        str(tmp_path / "d"), n_samples=3 * PER_FILE, samples_per_file=PER_FILE
    )
    st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
    st.ingest_files(paths[:1], timestamps=days[:1])
    return st, paths, days


def test_failed_commit_rename_leaves_registry(criteo, monkeypatch):
    """A failure between the data write and the rename commits nothing."""
    st, paths, days = criteo
    scanned = st.registry_df().inputFiles()
    files = _visible(st.registry_path)

    with monkeypatch.context() as m:
        m.setattr(os, "replace", _fail)
        with pytest.raises(OSError, match="injected"):
            st.ingest_files(paths[1:2], timestamps=days[1:2])

    assert _visible(st.registry_path) == files
    assert _hidden(st.registry_path) == []  # the temporary file was removed
    assert st.registry_df().inputFiles() == scanned
    assert st.registry_df().count() == st.num_samples == PER_FILE
    with pytest.raises(KeyError, match="unknown sample keys"):
        st.lookup(np.arange(PER_FILE, 2 * PER_FILE))

    keys = st.ingest_files(paths[1:], timestamps=days[1:])
    assert keys.tolist() == list(range(PER_FILE, 3 * PER_FILE))
    assert st.registry_df().count() == 3 * PER_FILE


def test_leftover_temporary_file_is_never_read(criteo, monkeypatch):
    """A crash after the data write leaves a hidden file no reader sees."""
    st, paths, days = criteo
    with monkeypatch.context() as m:
        m.setattr(os, "replace", _fail)
        m.setattr(os, "remove", _fail)  # the best-effort clean-up fails too
        with pytest.raises(OSError, match="injected"):
            st.ingest_files(paths[1:2], timestamps=days[1:2])
    (leftover,) = _hidden(st.registry_path)
    assert pq.read_table(os.path.join(st.registry_path, leftover)).num_rows == PER_FILE

    keys = st.ingest_files(paths[1:], timestamps=days[1:])
    assert keys.tolist() == list(range(PER_FILE, 3 * PER_FILE))
    reg = st.registry_df().toPandas()
    assert sorted(reg["sample_key"]) == list(range(3 * PER_FILE))
    assert st.num_samples == 3 * PER_FILE


@pytest.mark.parametrize("step", ["write", "rename", "crash"])
def test_failed_persist_leaves_bucket_unchanged(spark, tmp_path, monkeypatch, step):
    backend = SparkMetadataBackend(spark, str(tmp_path / "meta"))
    backend.persist(3, np.arange(10), np.zeros(10), np.ones(10))
    bucket = backend._bucket(3)
    files = _visible(bucket)

    with monkeypatch.context() as m:
        if step == "write":
            m.setattr(pq, "write_table", _fail)
        else:
            m.setattr(os, "replace", _fail)
        if step == "crash":
            m.setattr(os, "remove", _fail)
        with pytest.raises(OSError, match="injected"):
            backend.persist(3, np.arange(10, 15), np.zeros(5), np.ones(5))

    assert _visible(bucket) == files
    assert len(_hidden(bucket)) == (step == "crash")
    assert backend.count([3]) == backend.df([3]).count() == 10
    assert sorted(backend.get([3])["sample_key"]) == list(range(10))
