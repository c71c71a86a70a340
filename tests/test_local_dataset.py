"""Tests for the local sequential baseline dataset (paper §5.1.1)."""
import numpy as np
import pytest

from repro.storage.file_wrappers import BinaryFileWrapper
from repro.storage.local_dataset import LocalDataset
from repro.synth_data import CRITEO_DTYPE, criteo_batch_parser, generate_criteo_files


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("local")
    paths, _ = generate_criteo_files(
        str(tmp), n_samples=1000, samples_per_file=250
    )
    return paths


class TestLocalDataset:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_all_samples_delivered(self, files, workers):
        ds = LocalDataset(
            files,
            BinaryFileWrapper(CRITEO_DTYPE),
            batch_size=128,
            num_workers=workers,
            batch_bytes_parser=criteo_batch_parser,
        )
        total = 0
        for payloads, labels in ds.batches():
            assert len(payloads) == len(labels)
            total += len(labels)
        assert total == 1000

    def test_files_split_across_workers(self, files):
        ds = LocalDataset(
            files, BinaryFileWrapper(CRITEO_DTYPE), batch_size=250, num_workers=2,
            batch_bytes_parser=criteo_batch_parser,
        )
        # 4 files, 2 workers -> 2 files each -> 2 full batches per worker
        sizes = [len(lbl) for _, lbl in ds.batches()]
        assert sizes == [250, 250, 250, 250]

    def test_bytes_parser_applied(self, files):
        ds = LocalDataset(
            files,
            BinaryFileWrapper(CRITEO_DTYPE),
            batch_size=64,
            batch_bytes_parser=criteo_batch_parser,
        )
        payloads, _ = next(iter(ds.batches()))
        assert payloads[0].dtype == CRITEO_DTYPE

    def test_sequential_order_within_worker(self, files):
        ds = LocalDataset(
            files, BinaryFileWrapper(CRITEO_DTYPE), batch_size=1000, num_workers=1,
            batch_bytes_parser=criteo_batch_parser,
        )
        payloads, labels = next(iter(ds.batches()))
        expect = np.concatenate(
            [BinaryFileWrapper(CRITEO_DTYPE).get_labels(p) for p in files]
        )
        assert np.array_equal(labels, expect)

    def test_partial_tail_batch(self, files):
        ds = LocalDataset(
            files, BinaryFileWrapper(CRITEO_DTYPE), batch_size=300, num_workers=1,
            batch_bytes_parser=criteo_batch_parser,
        )
        sizes = [len(lbl) for _, lbl in ds.batches()]
        assert sizes == [300, 300, 300, 100]

    def test_invalid_workers(self, files):
        with pytest.raises(ValueError):
            LocalDataset(
                files, BinaryFileWrapper(CRITEO_DTYPE), batch_size=1, num_workers=0,
                batch_bytes_parser=criteo_batch_parser,
            )
