"""Unit tests for the model repository (paper §4.1.3)."""
import numpy as np
import pytest

from repro.core.registry import MODELS
from repro.models import DlrmLite, SoftmaxRegression
from repro.synth_data import cloc_lite_array, criteo_lite_array


@pytest.fixture()
def softmax_data(rng):
    X = rng.standard_normal((64, 5))
    y = rng.integers(0, 3, 64)
    return X, y


@pytest.fixture()
def criteo_data():
    arr = criteo_lite_array(128, seed=1)
    return arr, arr["label"].astype(np.int64)


class TestSoftmaxRegression:
    def test_forward_shape(self, softmax_data):
        X, _ = softmax_data
        m = SoftmaxRegression(dim=5, n_classes=3)
        assert m.forward(X).shape == (64, 3)

    def test_loss_positive(self, softmax_data):
        X, y = softmax_data
        m = SoftmaxRegression(dim=5, n_classes=3)
        assert (m.per_sample_loss(X, y) > 0).all()

    def test_gradient_matches_numerical(self):
        # Check dL/dW[i, j] for the mean loss against finite differences.
        g = np.random.default_rng(0)
        X, y = g.standard_normal((8, 4)), g.integers(0, 3, 8)
        m = SoftmaxRegression(dim=4, n_classes=3, seed=1)
        eps = 1e-6
        analytic = (X.T @ m._residual(X, y)) / len(y)
        for i, j in [(0, 0), (2, 1), (3, 2)]:
            m.W[i, j] += eps
            up = m.per_sample_loss(X, y).mean()
            m.W[i, j] -= 2 * eps
            dn = m.per_sample_loss(X, y).mean()
            m.W[i, j] += eps
            assert (up - dn) / (2 * eps) == pytest.approx(analytic[i, j], rel=1e-4)

    def test_grad_norm_closed_form_matches_general(self, softmax_data):
        X, y = softmax_data
        m = SoftmaxRegression(dim=5, n_classes=3, seed=2)
        fast = m.per_sample_grad_norm(X, y)
        slow = m.per_sample_grad_norm_general(X, y)
        assert np.allclose(fast, slow)

    def test_training_reduces_loss(self):
        X, y = cloc_lite_array(400, year=2004, n_classes=4, dim=6, label_noise=0.0)
        m = SoftmaxRegression(dim=6, n_classes=4, seed=0)
        before = m.per_sample_loss(X.astype(np.float64), y).mean()
        for _ in range(30):
            m.sgd_step(X.astype(np.float64), y, lr=0.1)
        after = m.per_sample_loss(X.astype(np.float64), y).mean()
        assert after < before * 0.7

    def test_weighted_step_equals_duplicated_samples(self):
        # weight 2 on a sample == including it twice (per §3.1 semantics)
        g = np.random.default_rng(3)
        X, y = g.standard_normal((4, 3)), np.array([0, 1, 1, 0])
        m1 = SoftmaxRegression(dim=3, n_classes=2, seed=5)
        m2 = SoftmaxRegression(dim=3, n_classes=2, seed=5)
        w = np.array([2.0, 1.0, 1.0, 1.0])
        m1.sgd_step(X, y, lr=0.1, sample_weights=w)
        X_dup = np.vstack([X[0:1], X])
        y_dup = np.concatenate([[y[0]], y])
        m2.sgd_step(X_dup, y_dup, lr=0.1)
        assert np.allclose(m1.W, m2.W)
        assert np.allclose(m1.b, m2.b)

    def test_state_roundtrip(self):
        m1 = SoftmaxRegression(dim=5, n_classes=3, seed=0)
        m2 = SoftmaxRegression(dim=5, n_classes=3, seed=99)
        m2.set_state(m1.get_state())
        X = np.random.default_rng(0).standard_normal((4, 5))
        assert np.allclose(m1.forward(X), m2.forward(X))

    def test_state_is_a_copy(self):
        m = SoftmaxRegression(dim=2, n_classes=2)
        st = m.get_state()
        st["W"][:] = 123.0
        assert not np.allclose(m.W, 123.0)

    def test_predict_argmax(self, softmax_data):
        X, _ = softmax_data
        m = SoftmaxRegression(dim=5, n_classes=3)
        assert np.array_equal(m.predict(X), np.argmax(m.forward(X), axis=1))

    def test_registered(self):
        assert MODELS.get("SoftmaxRegression") is SoftmaxRegression


class TestDlrmLite:
    def test_forward_shape(self, criteo_data):
        X, _ = criteo_data
        m = DlrmLite()
        assert m.forward(X).shape == (128,)

    def test_rejects_wrong_dtype(self):
        m = DlrmLite()
        with pytest.raises(TypeError, match="CRITEO_DTYPE"):
            m.forward(np.zeros((4, 13)))

    def test_loss_positive(self, criteo_data):
        X, y = criteo_data
        m = DlrmLite()
        assert (m.per_sample_loss(X, y) > 0).all()

    def test_bce_matches_reference(self, criteo_data):
        X, y = criteo_data
        m = DlrmLite(seed=4)
        z = m.forward(X)
        p = 1 / (1 + np.exp(-z))
        ref = -(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert np.allclose(m.per_sample_loss(X, y), ref)

    def test_dense_gradient_matches_numerical(self, criteo_data):
        X, y = criteo_data
        m = DlrmLite(seed=2)
        dense, _ = m._split(X)
        z = m.forward(X)
        r = (1 / (1 + np.exp(-z))) - y
        analytic = dense.T @ (r / len(y))
        eps = 1e-6
        for i in [0, 7, 12]:
            m.w[i] += eps
            up = m.per_sample_loss(X, y).mean()
            m.w[i] -= 2 * eps
            dn = m.per_sample_loss(X, y).mean()
            m.w[i] += eps
            assert (up - dn) / (2 * eps) == pytest.approx(analytic[i], rel=1e-4)

    def test_embedding_updated_sparsely(self, criteo_data):
        X, y = criteo_data
        m = DlrmLite(seed=0)
        touched = np.unique(m._hash(X["cat"]))
        m.sgd_step(X, y, lr=0.1)
        untouched = np.setdiff1d(np.arange(m.hash_buckets), touched)
        assert np.allclose(m.emb[untouched], 0.0)
        assert not np.allclose(m.emb[touched], 0.0)

    def test_training_reduces_loss(self):
        arr = criteo_lite_array(2000, seed=0)
        y = arr["label"].astype(np.int64)
        m = DlrmLite(seed=0)
        before = m.per_sample_loss(arr, y).mean()
        for _ in range(20):
            m.sgd_step(arr, y, lr=0.2)
        assert m.per_sample_loss(arr, y).mean() < before

    def test_grad_norm_ordering_matches_residual(self, criteo_data):
        # grad norm must be monotone in |sigmoid(z) - y| for fixed features
        X, y = criteo_data
        m = DlrmLite(seed=1)
        gn = m.per_sample_grad_norm(X, y)
        assert (gn >= 0).all()
        z = m.forward(X)
        r = np.abs(1 / (1 + np.exp(-z)) - y)
        dense = X["dense"].astype(np.float64)
        feat = np.sqrt((dense * dense).sum(axis=1) + m.n_cat + 1.0)
        assert np.allclose(gn, r * feat)

    def test_state_roundtrip(self, criteo_data):
        X, y = criteo_data
        m1 = DlrmLite(seed=0)
        m1.sgd_step(X, y, lr=0.1)
        m2 = DlrmLite(seed=9)
        m2.set_state(m1.get_state())
        assert np.allclose(m1.forward(X), m2.forward(X))

    def test_registered(self):
        assert MODELS.get("DlrmLite") is DlrmLite


class TestWeightNormalization:
    def test_none_weights_are_neutral(self):
        assert np.allclose(SoftmaxRegression._norm_weights(4, None), np.ones(4))

    def test_weights_scaled_to_sum_n(self):
        w = SoftmaxRegression._norm_weights(4, np.array([1.0, 1.0, 2.0, 4.0]))
        assert w.sum() == pytest.approx(4.0)

    def test_nonpositive_sum_rejected(self):
        with pytest.raises(ValueError):
            SoftmaxRegression._norm_weights(2, np.array([0.0, 0.0]))
