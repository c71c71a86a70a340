"""Tests for ``Payloads``: sample payloads as one contiguous buffer.

Every file wrapper returns ``Payloads`` that must read exactly like the
per-record ``bytes`` it replaces, on every read path; batch parsers must
view the buffer without a copy; a lifted per-sample parser still gets
``bytes``.
"""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import DataConfig
from repro.selector.metadata_backend import LocalMetadataBackend
from repro.selector.presampling import NewDataStrategy
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.storage.file_wrappers import (
    BinaryFileWrapper,
    CsvFileWrapper,
    SingleSampleFileWrapper,
)
from repro.storage.filesystem import LocalFilesystemWrapper
from repro.storage.payloads import Payloads
from repro.storage.storage import SampleBuffer
from repro.synth_data import (
    CRITEO_DTYPE,
    cloc_batch_parser,
    criteo_batch_parser,
    criteo_lite_array,
)
from repro.trainer import InMemoryDataset, OnlineDataset, OnlineDatasetConfig
from tests.conftest import CRITEO_N

N_RECORDS = 2000


class _CountingFs(LocalFilesystemWrapper):
    """Records which read path the binary wrapper took."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def get_range(self, path, offset, length):
        self.calls.append("span")
        return super().get_range(path, offset, length)

    def read_ranges_into(self, path, offsets, out):
        self.calls.append("per_record")
        return super().read_ranges_into(path, offsets, out)


@pytest.fixture(scope="module")
def records():
    return criteo_lite_array(N_RECORDS, seed=11)


@pytest.fixture(scope="module")
def binary_path(tmp_path_factory, records):
    path = str(tmp_path_factory.mktemp("payloads") / "f.bin")
    BinaryFileWrapper(CRITEO_DTYPE).write(path, records)
    return path


def _old_bytes(records, indices):
    return [records[i : i + 1].tobytes() for i in indices]


# ------------------------------------------------------------ file wrappers
class TestWrappersMatchPerRecordBytes:
    @settings(max_examples=40, deadline=None)
    @given(idx=st.lists(st.integers(0, 199), min_size=1, max_size=40))
    @example(idx=[7, 7, 7])
    @example(idx=[150, 3, 80, 3])
    @example(idx=list(range(20, 60)))
    def test_dense_span(self, idx, records, binary_path):
        got = BinaryFileWrapper(CRITEO_DTYPE).get_samples(binary_path, idx)
        assert isinstance(got, Payloads)
        assert list(got) == _old_bytes(records, idx)

    @settings(max_examples=40, deadline=None)
    @given(idx=st.lists(st.integers(0, N_RECORDS - 1), min_size=0, max_size=6))
    @example(idx=[5, 5])
    def test_sparse_per_record(self, idx, records, binary_path):
        # the ends of the file force a span > 16x the request
        idx = [N_RECORDS - 1, *idx, 0]
        fs = _CountingFs()
        got = BinaryFileWrapper(CRITEO_DTYPE, fs=fs).get_samples(binary_path, idx)
        assert fs.calls == ["per_record"]
        assert list(got) == _old_bytes(records, idx)

    def test_consecutive_run_is_one_span_read(self, records, binary_path):
        fs = _CountingFs()
        got = BinaryFileWrapper(CRITEO_DTYPE, fs=fs).get_samples(binary_path, range(10, 30))
        assert fs.calls == ["span"]
        assert got.buffer.tobytes() == records[10:30].tobytes()

    def test_all_samples(self, records, binary_path):
        got = BinaryFileWrapper(CRITEO_DTYPE).get_all_samples(binary_path)
        assert got.stride == 160
        assert list(got) == _old_bytes(records, range(N_RECORDS))

    def test_sample_count_is_cached(self, binary_path):
        class _StatCounting(LocalFilesystemWrapper):
            stats = 0

            def size(self, path):
                type(self).stats += 1
                return super().size(path)

        wrapper = BinaryFileWrapper(CRITEO_DTYPE, fs=_StatCounting())
        for _ in range(3):
            wrapper.get_samples(binary_path, [1, 2])
        assert _StatCounting.stats == 1
        with pytest.raises(IndexError):
            wrapper.get_samples(binary_path, [N_RECORDS])

    def test_concurrent_reads(self, tmp_path):
        # more threads than cores and a short switch interval: every read
        # returns its own records and the shared count cache stays exact
        wrapper = BinaryFileWrapper(CRITEO_DTYPE)
        files = {}
        for f in range(6):
            files[str(tmp_path / f"{f}.bin")] = arr = criteo_lite_array(300 + f, seed=f)
            wrapper.write(str(tmp_path / f"{f}.bin"), arr)
        rng = np.random.default_rng(0)
        tasks = [
            (path, rng.integers(0, len(arr), rng.integers(1, 40)))
            for _ in range(40)
            for path, arr in files.items()
        ]

        def read(path, idx):
            return wrapper.get_samples(path, idx).buffer.tobytes() == files[path][idx].tobytes()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(16) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(read, *t) for t in tasks]]
        finally:
            sys.setswitchinterval(old)
        assert all(results) and len(results) == len(tasks)
        assert {p: wrapper.get_number_of_samples(p) for p in files} == {
            p: len(a) for p, a in files.items()
        }

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 9),
                st.lists(st.text("abcxyz0123", min_size=0, max_size=12), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=15,
        ),
        data=st.data(),
    )
    def test_csv_variable_length(self, rows, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "v.csv"
        path.write_text("".join(f"{lbl},{','.join(f)}\n" for lbl, f in rows))
        old = [",".join(f).encode() for _, f in rows]
        w = CsvFileWrapper()
        assert list(w.get_all_samples(str(path))) == old
        idx = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))
        assert list(w.get_samples(str(path), idx)) == [old[i] for i in idx]

    @settings(max_examples=30, deadline=None)
    @given(payload=st.binary(max_size=64), k=st.integers(0, 4))
    def test_single_sample_file(self, payload, k, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("single") / "s.bin")
        w = SingleSampleFileWrapper()
        w.write(path, payload, 3)
        assert list(w.get_all_samples(path)) == [payload]
        assert list(w.get_samples(path, [0] * k)) == [payload] * k


# ------------------------------------------------------------- the type
class TestPayloads:
    def test_sequence_of_bytes(self):
        p = Payloads.of([b"ab", b"", b"cde"])
        assert len(p) == 3
        assert p[0] == b"ab" and p[1] == b"" and p[-1] == b"cde"
        assert all(isinstance(x, bytes) for x in p)
        assert p == [b"ab", b"", b"cde"] and [b"ab", b"", b"cde"] == p
        assert p != [b"ab", b""]
        with pytest.raises(IndexError):
            p[3]

    @pytest.mark.parametrize("make", [
        lambda raw: Payloads(np.frombuffer(raw, np.uint8), stride=4),
        lambda raw: Payloads.of([raw[i : i + 4] for i in range(0, len(raw), 4)]),
    ])
    def test_slice_is_a_view(self, make):
        raw = bytes(range(40))
        p = make(raw)
        s = p[2:5]
        assert isinstance(s, Payloads)
        assert np.shares_memory(s.buffer, p.buffer)
        assert list(s) == [raw[i : i + 4] for i in (8, 12, 16)]
        assert list(p[::3]) == [raw[i : i + 4] for i in (0, 12, 24, 36)]
        assert len(p[7:2]) == 0

    def test_take_and_concat(self):
        fixed = Payloads(np.frombuffer(b"aabbcc", np.uint8), stride=2)
        var = Payloads.of([b"x", b"yyy"])
        assert list(fixed.take([2, 0, 2])) == [b"cc", b"aa", b"cc"]
        assert list(var.take([1, 1, 0])) == [b"yyy", b"yyy", b"x"]
        both = Payloads.concat([fixed, var, fixed[1:]])
        assert both.stride is None
        assert list(both) == [b"aa", b"bb", b"cc", b"x", b"yyy", b"bb", b"cc"]
        same = Payloads.concat([fixed, fixed])
        assert same.stride == 2 and len(same) == 6

    def test_invalid_layouts_rejected(self):
        with pytest.raises(ValueError):
            Payloads(np.zeros(5, np.uint8), stride=2)
        with pytest.raises(ValueError):
            Payloads(np.zeros(5, np.uint8), offsets=[0, 4])
        with pytest.raises(TypeError):
            Payloads(np.zeros(4, np.int32), stride=4)


# ------------------------------------------------------- storage + parsers
@pytest.fixture(scope="module")
def selector(criteo_storage, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("payload_sel")
    strat = NewDataStrategy(
        LocalMetadataBackend(str(tmp / "meta")), reset_after_trigger=False, partition_size=1000
    )
    sel = Selector("payloads", strat, TriggerSampleStorage(str(tmp / "tss")))
    sel.inform_data(np.arange(CRITEO_N), np.zeros(CRITEO_N), np.zeros(CRITEO_N))
    sel.trigger()
    return sel


class TestSendBuffers:
    def test_batch_parser_views_the_send_buffer(self, criteo_storage):
        for buf in criteo_storage.retrieve_stream(np.arange(0, CRITEO_N, 3)):
            parsed = criteo_batch_parser(buf.payloads)
            assert np.shares_memory(parsed, buf.payloads.buffer)
            assert np.array_equal(parsed["label"], buf.labels)

    def test_batch_parsers_accept_lists(self):
        arr = criteo_lite_array(4, seed=2)
        rows = [arr[i : i + 1].tobytes() for i in range(4)]
        assert np.array_equal(criteo_batch_parser(rows), arr)
        floats = np.arange(6, dtype="<f4").reshape(3, 2)
        assert np.array_equal(cloc_batch_parser([r.tobytes() for r in floats]), floats)

    def test_empty_concat_is_typed(self):
        buf = SampleBuffer.concat([])
        assert len(buf) == 0
        assert buf.keys.dtype == buf.labels.dtype == np.int64
        assert isinstance(buf.payloads, Payloads)
        parsed = criteo_batch_parser(buf.payloads)
        assert parsed.dtype == CRITEO_DTYPE and len(parsed) == 0

    def test_concat_keeps_order(self, criteo_storage):
        bufs = list(criteo_storage.retrieve_stream(np.arange(100), storage_threads=4))
        whole = SampleBuffer.concat(bufs)
        assert list(whole.payloads) == [p for b in bufs for p in b.payloads]
        assert whole.keys.tolist() == [k for b in bufs for k in b.keys.tolist()]


class TestPerSampleParsersGetBytes:
    """A user's per-sample ``bytes_parser_function``, lifted to a batch
    parser by ``DataConfig.parser``, is called with ``bytes``."""

    # raises unless handed bytes; returns the record's int32 label
    SOURCE = (
        "def bytes_parser_function(data):\n"
        "    if type(data) is not bytes:\n"
        "        raise TypeError(type(data))\n"
        "    return np.frombuffer(data, dtype='<i4')[:1]\n"
    )

    def _parser(self):
        return DataConfig(bytes_parser_function=self.SOURCE).parser()

    def test_online_dataset(self, criteo_storage, selector):
        cfg = OnlineDatasetConfig(batch_size=256, num_workers=2)
        ds = OnlineDataset(
            criteo_storage, selector, 0, cfg, batch_bytes_parser=self._parser()
        )
        batches = list(ds.batches())
        assert sum(len(b) for b in batches) == CRITEO_N
        for b in batches:
            assert np.array_equal(b.payloads[:, 0], b.labels)

    def test_in_memory_dataset(self, criteo_storage):
        buf = criteo_storage.get_samples(np.arange(50))
        ds = InMemoryDataset(
            buf,
            np.ones(len(buf)),
            batch_size=16,
            batch_bytes_parser=self._parser(),
            shuffle_seed=0,
        )
        batches = list(ds.batches())
        assert sum(len(b) for b in batches) == 50
        for b in batches:
            assert np.array_equal(b.payloads[:, 0], b.labels)
