"""Tests for the trainer (paper §4.1.3): loop, downsampling modes, StB."""
import numpy as np
import pytest

from repro.models import DlrmLite, SoftmaxRegression
from repro.selector.downsampling import (
    GradNormDownsampler,
    LossDownsampler,
    UniformDownsampler,
)
from repro.selector.metadata_backend import LocalMetadataBackend
from repro.selector.presampling import NewDataStrategy
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.synth_data import criteo_batch_parser
from repro.trainer import InMemoryDataset, OnlineDataset, OnlineDatasetConfig, Trainer
from tests.conftest import CRITEO_N
from tests.test_stage_plans import _spark_jobs


@pytest.fixture()
def selector(criteo_storage, tmp_path):
    backend = LocalMetadataBackend(str(tmp_path / "meta"))
    strat = NewDataStrategy(backend, reset_after_trigger=False, partition_size=1000)
    sel = Selector("tr", strat, TriggerSampleStorage(str(tmp_path / "tss")))
    sel.inform_data(np.arange(CRITEO_N), np.zeros(CRITEO_N), np.zeros(CRITEO_N))
    sel.trigger()
    return sel


def _dataset(storage, sel, batch_size=512, **kw):
    return OnlineDataset(
        storage,
        sel,
        0,
        OnlineDatasetConfig(batch_size=batch_size, **kw),
        batch_bytes_parser=criteo_batch_parser,
    )


class TestTrainLoop:
    def test_counts_and_throughput(self, criteo_storage, selector):
        tr = Trainer(DlrmLite(seed=0), lr=0.1, epochs=1)
        res = tr.train(_dataset(criteo_storage, selector))
        assert res.num_samples == CRITEO_N
        assert res.num_trained_samples == CRITEO_N
        assert res.num_batches == 6  # ceil(3000/512)
        assert res.throughput == pytest.approx(res.num_samples / res.wall_time_s)

    def test_multiple_epochs(self, criteo_storage, selector):
        tr = Trainer(DlrmLite(seed=0), lr=0.1, epochs=2)
        res = tr.train(_dataset(criteo_storage, selector))
        assert res.num_samples == 2 * CRITEO_N
        assert len(res.epoch_losses) == 2

    def test_loss_decreases_over_epochs(self, criteo_storage, selector):
        tr = Trainer(DlrmLite(seed=0), lr=0.3, epochs=4)
        res = tr.train(_dataset(criteo_storage, selector))
        assert res.epoch_losses[-1] < res.epoch_losses[0]

    def test_gpu_step_seconds_slows_training(self, criteo_storage, selector):
        fast = Trainer(DlrmLite(seed=0), lr=0.1).train(
            _dataset(criteo_storage, selector)
        )
        slow = Trainer(DlrmLite(seed=0), lr=0.1, gpu_step_seconds=0.05).train(
            _dataset(criteo_storage, selector)
        )
        assert slow.wall_time_s > fast.wall_time_s
        assert slow.throughput < fast.throughput

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="BtS"):
            Trainer(DlrmLite(), lr=0.1, downsampling_mode="nope")


class TestBtSDownsampling:
    def test_trains_on_fraction_of_each_batch(self, criteo_storage, selector):
        tr = Trainer(
            DlrmLite(seed=0),
            lr=0.1,
            downsampler=GradNormDownsampler(ratio=0.5),
            downsampling_mode="BtS",
        )
        res = tr.train(_dataset(criteo_storage, selector))
        assert res.num_samples == CRITEO_N  # data path saw everything
        assert res.num_trained_samples == pytest.approx(CRITEO_N / 2, abs=10)

    def test_bts_still_learns(self, criteo_storage, selector):
        tr = Trainer(
            DlrmLite(seed=0),
            lr=0.3,
            epochs=3,
            downsampler=LossDownsampler(ratio=0.5),
        )
        res = tr.train(_dataset(criteo_storage, selector))
        assert res.epoch_losses[-1] < res.epoch_losses[0]


class TestStBDownsampling:
    def test_stb_scores_then_trains_on_subset(self, criteo_storage, selector):
        keys, weights = selector.get_all_samples(0)
        tr = Trainer(
            DlrmLite(seed=0),
            lr=0.1,
            downsampler=GradNormDownsampler(ratio=0.25),
            downsampling_mode="StB",
        )
        res = tr.train_stb(
            criteo_storage,
            keys,
            weights,
            batch_size=256,
            batch_bytes_parser=criteo_batch_parser,
            score_parallelism=4,
        )
        assert res.num_samples == CRITEO_N  # scoring pass covers the whole set
        assert res.num_trained_samples == CRITEO_N // 4

    def test_stb_requires_downsampler(self, criteo_storage, selector):
        keys, weights = selector.get_all_samples(0)
        tr = Trainer(DlrmLite(), lr=0.1)
        with pytest.raises(ValueError, match="downsampler"):
            tr.train_stb(
                criteo_storage, keys, weights, batch_size=64,
                batch_bytes_parser=criteo_batch_parser,
            )

    def test_stb_downsampler_restored_after_training(self, criteo_storage, selector):
        keys, weights = selector.get_all_samples(0)
        ds = GradNormDownsampler(ratio=0.5)
        tr = Trainer(DlrmLite(seed=0), lr=0.1, downsampler=ds, downsampling_mode="StB")
        tr.train_stb(
            criteo_storage, keys, weights, batch_size=256,
            batch_bytes_parser=criteo_batch_parser,
        )
        assert tr.downsampler is ds

    def test_stb_duplicate_keys(self, criteo_storage):
        """A key listed twice is scored once and sampled like any other
        row of the request: 8 requested rows, half of them trained."""
        keys = np.array([0, 1, 1, 2, 3, 3, 3, 4])
        tr = Trainer(
            DlrmLite(seed=0), lr=0.1, downsampler=GradNormDownsampler(ratio=0.5),
            downsampling_mode="StB",
        )
        res = tr.train_stb(
            criteo_storage, keys, np.ones(len(keys)), batch_size=4,
            batch_bytes_parser=criteo_batch_parser, score_parallelism=2,
        )
        assert res.num_samples == 8
        assert res.num_trained_samples == 4

    def test_stb_empty_trigger_set(self, spark, criteo_storage):
        """An empty trigger set (presampling kept nothing) gives what
        ``train`` gives for an empty dataset, with no Spark job."""
        tr = Trainer(
            DlrmLite(seed=0), lr=0.1, epochs=2, downsampler=GradNormDownsampler(),
            downsampling_mode="StB",
        )
        results = []
        train = lambda: results.append(  # noqa: E731
            tr.train_stb(
                criteo_storage, np.empty(0, np.int64), np.empty(0), batch_size=64,
                batch_bytes_parser=criteo_batch_parser,
            )
        )
        assert _spark_jobs(spark, train) == 0
        res = results[0]
        assert (res.num_samples, res.num_trained_samples, res.num_batches) == (0, 0, 0)
        assert len(res.epoch_losses) == 2 and np.isnan(res.epoch_losses).all()

    def test_stb_weights_and_rows_follow_keys(self, criteo_storage, selector, monkeypatch):
        """The sampled buffer comes back in storage order, not request
        order; every trained row must still carry its key's weight."""
        keys, _ = selector.get_all_samples(0)
        weights = 1.0 + keys / 10.0
        seen = []
        train = Trainer.train

        def spy(trainer, dataset):
            seen.extend(dataset.batches())
            return train(trainer, dataset)

        monkeypatch.setattr(Trainer, "train", spy)
        tr = Trainer(
            DlrmLite(seed=0), lr=0.1, downsampler=UniformDownsampler(ratio=0.5),
            downsampling_mode="StB",
        )
        tr.train_stb(
            criteo_storage, keys, weights, batch_size=256,
            batch_bytes_parser=criteo_batch_parser, score_parallelism=2,
        )
        assert sum(len(b) for b in seen) == CRITEO_N // 2
        for b in seen:
            assert np.allclose(b.weights, 1.0 + b.keys / 10.0)  # uniform: imp == 1
            assert np.array_equal(b.payloads["label"], b.labels)


class TestInMemoryDataset:
    def test_batches_cover_buffer(self, criteo_storage):
        buf = criteo_storage.get_samples(np.arange(500))
        ds = InMemoryDataset(
            buf, np.ones(len(buf)), batch_size=128, batch_bytes_parser=criteo_batch_parser
        )
        total = sum(len(b) for b in ds.batches())
        assert total == 500

    def test_shuffle_changes_order_not_content(self, criteo_storage):
        buf = criteo_storage.get_samples(np.arange(300))
        w = np.ones(len(buf))
        plain = InMemoryDataset(buf, w, batch_size=300, batch_bytes_parser=criteo_batch_parser)
        shuffled = InMemoryDataset(
            buf, w, batch_size=300, batch_bytes_parser=criteo_batch_parser, shuffle_seed=3
        )
        k_plain = next(iter(plain.batches())).keys
        k_shuf = next(iter(shuffled.batches())).keys
        assert not np.array_equal(k_plain, k_shuf)
        assert sorted(k_plain.tolist()) == sorted(k_shuf.tolist())

    def test_weights_aligned_with_buffer_keys(self, criteo_storage):
        buf = criteo_storage.get_samples(np.arange(300))
        ds = InMemoryDataset(
            buf, buf.keys / 10.0, batch_size=64, batch_bytes_parser=criteo_batch_parser,
            shuffle_seed=1,
        )
        for b in ds.batches():
            assert np.array_equal(b.weights, b.keys / 10.0)
        with pytest.raises(ValueError, match="weights"):
            InMemoryDataset(buf, np.ones(3), batch_size=8, batch_bytes_parser=criteo_batch_parser)


class TestWeightedTraining:
    def test_weighted_batches_affect_update(self):
        g = np.random.default_rng(0)
        X = g.standard_normal((64, 4))
        y = g.integers(0, 3, 64)
        from repro.trainer.online_dataset import Batch

        class OneBatch:
            def __init__(self, w):
                self.w = w

            def batches(self):
                yield Batch(list(X), y, self.w, np.arange(64))

        m1 = SoftmaxRegression(dim=4, n_classes=3, seed=1)
        m2 = SoftmaxRegression(dim=4, n_classes=3, seed=1)
        Trainer(m1, lr=0.1).train(OneBatch(np.ones(64)))
        w = np.ones(64)
        w[:8] = 10.0
        Trainer(m2, lr=0.1).train(OneBatch(w))
        assert not np.allclose(m1.W, m2.W)
