"""Unit tests for the storage file wrappers (paper §4.1.4)."""
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.file_wrappers import (
    BinaryFileWrapper,
    CsvFileWrapper,
    SingleSampleFileWrapper,
)
from repro.storage.filesystem import LocalFilesystemWrapper
from repro.synth_data import CRITEO_DTYPE, criteo_lite_array


# ------------------------------------------------------------------ binary
class TestBinaryFileWrapper:
    @pytest.fixture()
    def wrapper(self):
        return BinaryFileWrapper(CRITEO_DTYPE)

    @pytest.fixture()
    def path(self, tmp_path, wrapper):
        arr = criteo_lite_array(100, seed=3)
        p = str(tmp_path / "f.bin")
        wrapper.write(p, arr)
        return p

    def test_record_size_is_160_bytes(self, wrapper):
        assert wrapper.record_size == 160  # the paper's Criteo sample size

    def test_number_of_samples(self, wrapper, path):
        assert wrapper.get_number_of_samples(path) == 100

    def test_roundtrip_all(self, wrapper, path):
        arr = criteo_lite_array(100, seed=3)
        back = wrapper.read_records(path)
        assert np.array_equal(back, arr)

    def test_get_all_samples_bytes(self, wrapper, path):
        samples = wrapper.get_all_samples(path)
        assert len(samples) == 100
        assert all(len(s) == 160 for s in samples)

    @pytest.mark.parametrize("indices", [[0], [99], [5, 2, 98], [7, 7, 7]])
    def test_get_samples_by_index_matches_records(self, wrapper, path, indices):
        arr = criteo_lite_array(100, seed=3)
        got = wrapper.get_samples(path, indices)
        for payload, i in zip(got, indices):
            assert payload == arr[i : i + 1].tobytes()

    def test_get_samples_preserves_request_order(self, wrapper, path):
        arr = criteo_lite_array(100, seed=3)
        got = wrapper.get_samples(path, [50, 3, 80])
        assert got[0] == arr[50:51].tobytes()
        assert got[1] == arr[3:4].tobytes()
        assert got[2] == arr[80:81].tobytes()

    def test_out_of_range_index_raises(self, wrapper, path):
        with pytest.raises(IndexError):
            wrapper.get_samples(path, [100])

    def test_labels(self, wrapper, path):
        arr = criteo_lite_array(100, seed=3)
        assert np.array_equal(wrapper.get_labels(path), arr["label"].astype(np.int64))

    def test_wrong_dtype_write_rejected(self, wrapper, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            wrapper.write(str(tmp_path / "x.bin"), np.zeros(3, dtype=np.float64))

    def test_truncated_file_rejected(self, wrapper, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 170)  # not a multiple of 160
        with pytest.raises(ValueError, match="multiple"):
            wrapper.get_number_of_samples(str(p))

    def test_label_field_must_exist(self):
        with pytest.raises(ValueError, match="label field"):
            BinaryFileWrapper(np.dtype([("x", "<f4")]))

    @settings(max_examples=25, deadline=None)
    @given(idx=st.lists(st.integers(0, 99), min_size=1, max_size=20))
    def test_random_index_subsets(self, idx, tmp_path_factory):
        wrapper = BinaryFileWrapper(CRITEO_DTYPE)
        arr = criteo_lite_array(100, seed=3)
        p = str(tmp_path_factory.mktemp("hyp") / "f.bin")
        wrapper.write(p, arr)
        got = wrapper.get_samples(p, idx)
        assert [g for g in got] == [arr[i : i + 1].tobytes() for i in idx]


# --------------------------------------------------------------------- csv
class TestCsvFileWrapper:
    @pytest.fixture()
    def path(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1,a,bb\n0,ccc,d\n1,ee,fff\n")
        return str(p)

    def test_number_of_samples(self, path):
        assert CsvFileWrapper().get_number_of_samples(path) == 3

    def test_labels_from_column(self, path):
        assert CsvFileWrapper().get_labels(path).tolist() == [1, 0, 1]

    def test_payload_strips_label_column(self, path):
        assert CsvFileWrapper().get_all_samples(path) == [b"a,bb", b"ccc,d", b"ee,fff"]

    def test_label_column_other_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,5\ny,7\n")
        w = CsvFileWrapper(label_column=1)
        assert w.get_labels(str(p)).tolist() == [5, 7]
        assert w.get_all_samples(str(p)) == [b"x", b"y"]

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,feat\n1,z\n")
        w = CsvFileWrapper(has_header=True)
        assert w.get_number_of_samples(str(p)) == 1
        assert w.get_labels(str(p)).tolist() == [1]

    def test_get_samples_by_index(self, path):
        assert CsvFileWrapper().get_samples(path, [2, 0]) == [b"ee,fff", b"a,bb"]

    def test_variable_length_rows(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("0,one\n1,a,b,c,d,e\n")
        assert CsvFileWrapper().get_all_samples(str(p)) == [b"one", b"a,b,c,d,e"]


# ----------------------------------------------------------- single-sample
class TestSingleSampleFileWrapper:
    @pytest.fixture()
    def wrapper(self):
        return SingleSampleFileWrapper()

    @pytest.fixture()
    def path(self, tmp_path, wrapper):
        p = str(tmp_path / "sample.bin")
        wrapper.write(p, b"payload-bytes", 42)
        return p

    def test_one_sample_per_file(self, wrapper, path):
        assert wrapper.get_number_of_samples(path) == 1

    def test_payload_roundtrip(self, wrapper, path):
        assert wrapper.get_all_samples(path) == [b"payload-bytes"]
        assert wrapper.get_samples(path, [0]) == [b"payload-bytes"]

    def test_label_sidecar(self, wrapper, path):
        assert wrapper.get_labels(path).tolist() == [42]
        assert os.path.exists(path + ".label")

    def test_nonzero_index_raises(self, wrapper, path):
        with pytest.raises(IndexError):
            wrapper.get_samples(path, [1])


# --------------------------------------------------------------- filesystem
class TestLocalFilesystemWrapper:
    def test_put_get_roundtrip(self, tmp_path):
        fs = LocalFilesystemWrapper()
        p = str(tmp_path / "nested" / "dir" / "x.bin")
        fs.put(p, b"abcdef")
        assert fs.get(p) == b"abcdef"
        assert fs.size(p) == 6
        assert os.path.exists(p)

    def test_get_range(self, tmp_path):
        fs = LocalFilesystemWrapper()
        p = str(tmp_path / "x.bin")
        fs.put(p, bytes(range(100)))
        assert fs.get_range(p, 10, 5) == bytes(range(10, 15))
