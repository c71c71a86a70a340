"""Unit tests for downsampling policies (paper §4.1.2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.registry import DOWNSAMPLERS
from repro.models import DlrmLite, SoftmaxRegression
from repro.selector.downsampling import (
    GradNormDownsampler,
    LossDownsampler,
    UniformDownsampler,
    score_keys_spark,
)
from repro.synth_data import (
    cloc_batch_parser,
    cloc_bytes_parser,
    cloc_lite_array,
    criteo_batch_parser,
    criteo_bytes_parser,
    criteo_lite_array,
)
from tests.conftest import CLOC_CLASSES, CLOC_DIM


@pytest.fixture()
def cloc_batch():
    X, y = cloc_lite_array(200, year=2004, n_classes=4, dim=6)
    return X.astype(np.float64), y


class TestScores:
    def test_gradnorm_uses_model_grad_norm(self, cloc_batch):
        X, y = cloc_batch
        m = SoftmaxRegression(dim=6, n_classes=4, seed=0)
        ds = GradNormDownsampler(ratio=0.5)
        assert np.allclose(ds.scores(m, X, y), m.per_sample_grad_norm(X, y))

    def test_loss_scores(self, cloc_batch):
        X, y = cloc_batch
        m = SoftmaxRegression(dim=6, n_classes=4, seed=0)
        ds = LossDownsampler(ratio=0.5)
        assert np.allclose(ds.scores(m, X, y), m.per_sample_loss(X, y))

    def test_uniform_scores_constant(self, cloc_batch):
        X, y = cloc_batch
        ds = UniformDownsampler(ratio=0.5)
        assert np.allclose(ds.scores(SoftmaxRegression(dim=6, n_classes=4), X, y), 1.0)

    def test_gradnorm_on_dlrm(self):
        arr = criteo_lite_array(50, seed=0)
        y = arr["label"].astype(np.int64)
        m = DlrmLite(seed=0)
        s = GradNormDownsampler().scores(m, arr, y)
        assert s.shape == (50,) and (s >= 0).all()


class TestSampling:
    def test_sample_size_matches_ratio(self, rng):
        ds = UniformDownsampler(ratio=0.25)
        idx, w = ds.sample(np.ones(100), rng=rng)
        assert len(idx) == 25 and len(w) == 25

    def test_sample_with_replacement_size(self, rng):
        # DLIS samples with replacement (PyTorch WeightedRandomSampler)
        ds = UniformDownsampler(ratio=0.9)
        idx, _ = ds.sample(np.ones(50), rng=rng)
        assert len(idx) == 45
        assert (idx >= 0).all() and (idx < 50).all()

    def test_empty_scores_sample_nothing(self, rng):
        idx, w = GradNormDownsampler(ratio=0.5).sample(np.empty(0), rng=rng)
        assert idx.dtype == np.int64 and len(idx) == 0 and len(w) == 0

    def test_importance_weights_are_inverse_probability(self, rng):
        scores = np.array([1.0, 3.0, 6.0, 10.0])
        ds = GradNormDownsampler(ratio=0.5)
        idx, w = ds.sample(scores, rng=rng)
        p = scores / scores.sum()
        assert np.allclose(w, 1.0 / (len(scores) * p[idx]), rtol=1e-6)

    def test_uniform_scores_give_unit_weights(self, rng):
        ds = UniformDownsampler(ratio=0.5)
        _, w = ds.sample(np.ones(10), rng=rng)
        assert np.allclose(w, 1.0)  # 1 / (10 * 0.1)

    def test_high_score_samples_picked_more_often(self):
        scores = np.ones(100)
        scores[:10] = 50.0
        hits = np.zeros(100)
        for seed in range(200):
            ds = GradNormDownsampler(ratio=0.1)
            idx, _ = ds.sample(scores, rng=np.random.default_rng(seed))
            hits[idx] += 1
        assert hits[:10].mean() > 5 * hits[10:].mean()

    def test_weighted_subset_estimator_unbiased(self):
        # E[sum_i w_i * v_i over subset] ~= mean(v): the DLIS guarantee.
        g = np.random.default_rng(0)
        v = g.random(40)
        scores = g.random(40) + 0.1
        ds = GradNormDownsampler(ratio=0.25)
        est = []
        for seed in range(600):
            idx, w = ds.sample(scores, rng=np.random.default_rng(seed))
            est.append((w * v[idx]).mean())
        assert np.mean(est) == pytest.approx(v.mean(), rel=0.05)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            UniformDownsampler(ratio=0.0)
        with pytest.raises(ValueError):
            UniformDownsampler(ratio=1.5)

    def test_registered(self):
        for name in ("GradNormDownsampler", "LossDownsampler", "UniformDownsampler"):
            assert name in DOWNSAMPLERS


class TestSparkScoring:
    def test_spark_scores_match_local(self, criteo_storage):
        """The distributed StB scoring stage must equal in-process scoring."""
        keys = np.arange(0, 600, 3)
        model = DlrmLite(seed=1)
        ds = LossDownsampler(ratio=0.5)
        scored = score_keys_spark(
            criteo_storage, model, ds, criteo_batch_parser, keys, parallelism=4
        )
        assert sorted(scored["sample_key"]) == sorted(keys.tolist())
        buf = criteo_storage.get_samples(keys)
        X = np.concatenate([criteo_bytes_parser(p) for p in buf.payloads])
        local = ds.scores(model, X, buf.labels)
        by_key_local = dict(zip(buf.keys.tolist(), local))
        by_key_spark = dict(zip(scored["sample_key"], scored["score"]))
        for k in keys.tolist():
            assert by_key_spark[k] == pytest.approx(by_key_local[k], rel=1e-9)

    def test_empty_keys(self, criteo_storage):
        model = DlrmLite()
        out = score_keys_spark(
            criteo_storage, model, LossDownsampler(), criteo_batch_parser, np.array([])
        )
        assert len(out) == 0


class TestSparkScoringStage:
    """The fused StB scoring plan: exact scores, key contract, task cap."""

    def _cloc_local(self, storage, model, ds, keys):
        buf = storage.get_samples(keys)
        X = np.stack([cloc_bytes_parser(p) for p in buf.payloads])
        return dict(zip(buf.keys.tolist(), ds.scores(model, X, buf.labels)))

    def test_spark_scores_equal_local_exactly(self, cloc_storage):
        keys = np.arange(cloc_storage.num_samples)[::2]
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=3)
        ds = GradNormDownsampler(ratio=0.5)
        scored = score_keys_spark(
            cloc_storage, model, ds, cloc_batch_parser, keys, parallelism=4
        )
        local = self._cloc_local(cloc_storage, model, ds, keys)
        assert sorted(scored["sample_key"]) == sorted(keys.tolist())
        for k, s in zip(scored["sample_key"], scored["score"]):
            assert s == local[k]

    def test_scores_do_not_depend_on_parallelism(self, cloc_storage):
        keys = np.arange(cloc_storage.num_samples)[::-3]
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=5)
        ds = GradNormDownsampler(ratio=0.5)
        frames = [
            score_keys_spark(cloc_storage, model, ds, cloc_batch_parser, keys, parallelism=p)
            .sort_values("sample_key")
            .reset_index(drop=True)
            for p in (1, 2, 8)
        ]
        for f in frames[1:]:
            pd.testing.assert_frame_equal(f, frames[0], check_exact=True)

    def test_unknown_key_raises(self, cloc_storage):
        n = cloc_storage.num_samples
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES)
        with pytest.raises(KeyError, match=rf"unknown sample keys.*\b{n}\b"):
            score_keys_spark(
                cloc_storage, model, GradNormDownsampler(), cloc_batch_parser,
                np.array([0, 1, n]),
            )

    def test_duplicate_keys_scored_once(self, cloc_storage):
        keys = np.array([5, 1, 1, 9, 5, 5, 0])
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=2)
        ds = GradNormDownsampler(ratio=0.5)
        scored = score_keys_spark(
            cloc_storage, model, ds, cloc_batch_parser, keys, parallelism=2
        )
        assert sorted(scored["sample_key"]) == [0, 1, 5, 9]
        local = self._cloc_local(cloc_storage, model, ds, np.array([0, 1, 5, 9]))
        for k, s in zip(scored["sample_key"], scored["score"]):
            assert s == local[k]

    def test_unknown_key_among_duplicates_raises(self, cloc_storage):
        n = cloc_storage.num_samples
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES)
        with pytest.raises(KeyError, match=rf"unknown sample keys.*\b{n + 3}\b"):
            score_keys_spark(
                cloc_storage, model, GradNormDownsampler(), cloc_batch_parser,
                np.array([2, 2, n + 3, n + 3]),
            )
