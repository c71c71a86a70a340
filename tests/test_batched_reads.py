"""Batched payload reads: ``FileWrapper.get_samples_of_files`` and the
storage hot path built on it (paper §4.2.3, Fig. 6).

The batched call must equal the per-file ``get_samples`` calls it
replaces, for every wrapper; the storage must fill each send buffer with
one such call and emit exactly what the per-file path would.
"""
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
from repro.storage.payloads import Payloads
from repro.storage.storage import Storage
from repro.synth_data import CRITEO_DTYPE, criteo_lite_array

N_FILES = 4
PER_FILE = 6  # samples per Binary / CSV file


def _write_files(root, kind: str) -> tuple[object, list[str]]:
    """``N_FILES`` files of ``kind`` under ``root``: (wrapper, paths)."""
    os.makedirs(root, exist_ok=True)
    paths = []
    if kind == "binary":
        wrapper = BinaryFileWrapper(CRITEO_DTYPE)
        for f in range(N_FILES):
            paths.append(os.path.join(root, f"{f}.bin"))
            wrapper.write(paths[-1], criteo_lite_array(PER_FILE, seed=f))
    elif kind == "csv":
        wrapper = CsvFileWrapper()
        for f in range(N_FILES):
            paths.append(os.path.join(root, f"{f}.csv"))
            rows = [f"{(f + i) % 3},{'x' * (i + 1)},{f}-{i}" for i in range(PER_FILE)]
            with open(paths[-1], "w") as fh:
                fh.write("\n".join(rows) + "\n")
    else:
        wrapper = SingleSampleFileWrapper()
        for f in range(N_FILES * PER_FILE):
            paths.append(os.path.join(root, f"{f}.raw"))
            wrapper.write(paths[-1], os.urandom(f % 9), f % 5)
    return wrapper, paths


def _per_file(wrapper, path: str, indices) -> list[bytes]:
    """The per-file reference read. A one-sample file's ``get_samples``
    itself goes through the batched call, so its reference is the file's
    bytes, read with plain Python I/O, once per (zero) index."""
    if isinstance(wrapper, SingleSampleFileWrapper):
        assert not any(indices)
        with open(path, "rb") as f:
            return [f.read()] * len(indices)
    return list(wrapper.get_samples(path, indices))


@pytest.fixture(scope="module", params=["binary", "csv", "single"])
def files(request, tmp_path_factory):
    kind = request.param
    wrapper, paths = _write_files(str(tmp_path_factory.mktemp(kind)), kind)
    return kind, wrapper, paths


def _requests(kind: str):
    """(file numbers, one index list per file): any files, repeats
    allowed, each with any index list of that file (duplicates, empty)."""
    n_files = N_FILES * PER_FILE if kind == "single" else N_FILES
    per_file = 1 if kind == "single" else PER_FILE
    index_list = st.lists(st.integers(0, per_file - 1), max_size=8)
    return st.lists(st.tuples(st.integers(0, n_files - 1), index_list), max_size=6)


class TestGetSamplesOfFiles:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_concatenated_get_samples(self, files, data):
        kind, wrapper, paths = files
        request = data.draw(_requests(kind))
        got = wrapper.get_samples_of_files(
            [paths[f] for f, _ in request], [idx for _, idx in request]
        )
        want = [b for f, idx in request for b in _per_file(wrapper, paths[f], idx)]
        assert isinstance(got, Payloads)
        assert list(got) == want

    def test_no_files_give_no_payloads(self, files):
        _, wrapper, _ = files
        assert len(wrapper.get_samples_of_files([], [])) == 0

    def test_single_sample_nonzero_index_raises(self, tmp_path):
        wrapper, paths = _write_files(str(tmp_path), "single")
        with pytest.raises(IndexError, match=f"{paths[1]}.*index 1"):
            wrapper.get_samples_of_files(paths[:3], [[0], [0, 1], [0]])
        with pytest.raises(IndexError):
            wrapper.get_samples_of_files(paths[:1], [[-1]])

    def test_single_sample_missing_file_raises(self, tmp_path):
        wrapper, paths = _write_files(str(tmp_path), "single")
        with pytest.raises(FileNotFoundError):
            wrapper.get_samples_of_files([paths[0], str(tmp_path / "gone")], [[0], [0]])


class TestLocalFilesystemGet:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty"
        p.write_bytes(b"")
        assert LocalFilesystemWrapper().get(str(p)) == b""

    def test_file_over_one_mebibyte(self, tmp_path):
        data = os.urandom(3 * 2**20 + 17)
        p = tmp_path / "big"
        p.write_bytes(data)
        assert LocalFilesystemWrapper().get(str(p)) == data

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LocalFilesystemWrapper().get(str(tmp_path / "missing"))


SEND_BUFFER = 5


@pytest.fixture(scope="module")
def storages(spark, tmp_path_factory):
    """One storage per wrapper, with small send buffers, over the same
    kinds of files as above."""
    out = {}
    for kind in ("binary", "csv", "single"):
        root = tmp_path_factory.mktemp(f"storage-{kind}")
        wrapper, paths = _write_files(str(root / "data"), kind)
        storage = Storage(spark, str(root / "s"), wrapper, send_buffer_size=SEND_BUFFER)
        storage.ingest_files(paths)
        out[kind] = storage
    return out


def _per_key_reference(storage: Storage, keys: np.ndarray) -> dict[int, tuple[int, bytes]]:
    """key -> (label, payload), each payload read by itself (``_per_file``)."""
    file_ids, positions, labels = storage.lookup(keys)
    paths = storage.file_paths(keys)
    return {
        int(k): (int(lbl), _per_file(storage.file_wrapper, paths[int(f)], [int(i)])[0])
        for k, f, i, lbl in zip(keys, file_ids, positions, labels)
    }


class TestSendBuffers:
    @pytest.mark.parametrize("kind", ["binary", "csv", "single"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_full_buffers_and_per_file_contents(self, storages, kind, threads):
        storage = storages[kind]
        keys = np.random.default_rng(threads).permutation(storage.num_samples)[:23]
        buffers = list(storage.retrieve_stream(keys, storage_threads=threads))

        # every buffer except the last of each part is full
        parts = np.array_split(keys, threads)
        part_of = {int(k): p for p, part in enumerate(parts) for k in part}
        sizes: dict[int, list[int]] = {}
        for b in buffers:
            (part,) = {part_of[int(k)] for k in b.keys}
            sizes.setdefault(part, []).append(len(b))
        assert sorted(sizes) == list(range(threads))
        for part, got in sizes.items():
            assert sum(got) == len(parts[part])
            assert all(n == SEND_BUFFER for n in got[:-1])
            assert 0 < got[-1] <= SEND_BUFFER

        # the keys, labels and payload bytes the per-file path gives
        got_keys = np.concatenate([b.keys for b in buffers])
        assert sorted(got_keys.tolist()) == sorted(keys.tolist())
        want = _per_key_reference(storage, keys)
        got = {
            int(k): (int(lbl), p)
            for b in buffers
            for k, lbl, p in zip(b.keys, b.labels, b.payloads)
        }
        assert got == want

    def test_single_sample_hot_path_reads_through_the_batched_call(
        self, cloc_storage, monkeypatch
    ):
        def per_file(*_):
            raise AssertionError("per-file get_samples on the hot path")

        monkeypatch.setattr(SingleSampleFileWrapper, "get_samples", per_file)
        keys = np.arange(cloc_storage.num_samples)
        got = np.concatenate(
            [b.keys for b in cloc_storage.retrieve_stream(keys, storage_threads=2)]
        )
        assert sorted(got.tolist()) == keys.tolist()
