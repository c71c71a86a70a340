"""Tests for the evaluator service (paper §4.3)."""
import numpy as np
import pytest

from repro.evaluator import Evaluator
from repro.models import DlrmLite, SoftmaxRegression
from repro.synth_data import (
    cloc_batch_parser,
    cloc_bytes_parser,
    criteo_batch_parser,
    criteo_bytes_parser,
)
from tests.conftest import CLOC_CLASSES, CLOC_DIM, CLOC_PER_YEAR, CLOC_YEARS_SMALL


@pytest.fixture()
def cloc_evaluator(cloc_storage):
    return Evaluator(cloc_storage, batch_bytes_parser=cloc_batch_parser, batch_size=32)


class TestEvaluate:
    def test_accuracy_over_keys(self, cloc_evaluator):
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=0)
        out = cloc_evaluator.evaluate(model, np.arange(60), ["Accuracy"])
        assert 0.0 <= out["Accuracy"] <= 1.0

    def test_matches_direct_computation(self, cloc_storage, cloc_evaluator):
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=1)
        keys = np.arange(100)
        out = cloc_evaluator.evaluate(model, keys, ["Accuracy"])
        buf = cloc_storage.get_samples(keys)
        X = model.stack_batch([cloc_bytes_parser(p) for p in buf.payloads])
        direct = (model.predict(X) == buf.labels).mean()
        assert out["Accuracy"] == pytest.approx(direct)

    def test_batching_invariance(self, cloc_storage):
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=2)
        keys = np.arange(150)
        small = Evaluator(cloc_storage, batch_bytes_parser=cloc_batch_parser, batch_size=7)
        big = Evaluator(cloc_storage, batch_bytes_parser=cloc_batch_parser, batch_size=1000)
        assert small.evaluate(model, keys, ["Accuracy"]) == big.evaluate(
            model, keys, ["Accuracy"]
        )

    def test_holistic_metric_binary(self, criteo_storage):
        ev = Evaluator(criteo_storage, batch_bytes_parser=criteo_batch_parser)
        out = ev.evaluate(DlrmLite(seed=0), np.arange(500), ["RocAuc", "Accuracy"])
        assert 0.0 <= out["RocAuc"] <= 1.0
        assert 0.0 <= out["Accuracy"] <= 1.0

    def test_trained_model_beats_random_on_auc(self, criteo_storage):
        ev = Evaluator(criteo_storage, batch_bytes_parser=criteo_batch_parser)
        model = DlrmLite(seed=0)
        random_auc = ev.evaluate(model, np.arange(1000), ["RocAuc"])["RocAuc"]
        buf = criteo_storage.get_samples(np.arange(1000, 3000))
        X = model.stack_batch([criteo_bytes_parser(p) for p in buf.payloads])
        for _ in range(15):
            model.sgd_step(X, buf.labels, lr=0.2)
        trained_auc = ev.evaluate(model, np.arange(1000), ["RocAuc"])["RocAuc"]
        assert trained_auc > max(random_auc, 0.55)

    def test_unknown_metric_rejected(self, cloc_evaluator):
        with pytest.raises(KeyError):
            cloc_evaluator.evaluate(
                SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES),
                np.arange(5),
                ["NotAMetric"],
            )


class TestAccuracyMatrix:
    def test_matrix_shape_and_labels(self, cloc_evaluator):
        models = {
            f"m{i}": SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=i)
            for i in range(2)
        }
        eval_sets = {
            year: np.arange(i * CLOC_PER_YEAR, (i + 1) * CLOC_PER_YEAR)
            for i, year in enumerate(CLOC_YEARS_SMALL)
        }
        mat = cloc_evaluator.accuracy_matrix(models, eval_sets)
        assert list(mat.index) == ["m0", "m1"]
        assert list(mat.columns) == list(CLOC_YEARS_SMALL)
        assert ((mat >= 0) & (mat <= 1)).all().all()

    def test_matrix_cells_match_evaluate(self, cloc_evaluator):
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=3)
        keys = np.arange(40)
        mat = cloc_evaluator.accuracy_matrix({"m": model}, {"s": keys})
        assert mat.loc["m", "s"] == pytest.approx(
            cloc_evaluator.evaluate(model, keys, ["Accuracy"])["Accuracy"]
        )
