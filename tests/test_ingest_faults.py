"""Fault injection on the storage ingest path (paper §4.1.4).

The Parquet registry append is the ingest's commit point: if it fails,
the hot-path index must not serve the would-be keys, and the next ingest
must reuse them so keys stay dense and agree with the registry.
"""
import numpy as np
import pytest
from pyspark.sql.readwriter import DataFrameWriter

from repro.storage import BinaryFileWrapper, Storage
from repro.synth_data import CRITEO_DTYPE, criteo_lite_array, generate_criteo_files

PER_FILE = 20


def test_failed_registry_write_leaves_no_half_ingest(spark, tmp_path, monkeypatch):
    paths, days = generate_criteo_files(
        str(tmp_path / "d"), n_samples=3 * PER_FILE, samples_per_file=PER_FILE
    )
    st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
    st.ingest_files(paths[:1], timestamps=days[:1])

    def failing_write(self, *args, **kwargs):
        raise OSError("injected registry write failure")

    with monkeypatch.context() as m:
        m.setattr(DataFrameWriter, "parquet", failing_write)
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
