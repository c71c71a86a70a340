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
from tests.conftest import CLOC_CLASSES, CLOC_DIM


@pytest.fixture()
def cloc_evaluator(cloc_storage):
    return Evaluator(cloc_storage, batch_bytes_parser=cloc_batch_parser, batch_size=32)


class TestEvaluate:
    def test_accuracy_over_keys(self, cloc_evaluator):
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=0)
        out = cloc_evaluator.evaluate({"m": model}, np.arange(60), ["Accuracy"])
        assert 0.0 <= out["m"]["Accuracy"] <= 1.0

    def test_matches_direct_computation(self, cloc_storage, cloc_evaluator):
        model = SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=1)
        keys = np.arange(100)
        out = cloc_evaluator.evaluate({"m": model}, keys, ["Accuracy"])
        buf = cloc_storage.get_samples(keys)
        X = np.stack([cloc_bytes_parser(p) for p in buf.payloads])
        direct = (model.predict(X) == buf.labels).mean()
        assert out["m"]["Accuracy"] == pytest.approx(direct)

    def test_batching_invariance(self, cloc_storage):
        models = {"m": SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=2)}
        keys = np.arange(150)
        small = Evaluator(cloc_storage, batch_bytes_parser=cloc_batch_parser, batch_size=7)
        big = Evaluator(cloc_storage, batch_bytes_parser=cloc_batch_parser, batch_size=1000)
        assert small.evaluate(models, keys, ["Accuracy"]) == big.evaluate(
            models, keys, ["Accuracy"]
        )

    def test_holistic_metric_binary(self, criteo_storage):
        ev = Evaluator(criteo_storage, batch_bytes_parser=criteo_batch_parser)
        out = ev.evaluate({"m": DlrmLite(seed=0)}, np.arange(500), ["RocAuc", "Accuracy"])
        assert 0.0 <= out["m"]["RocAuc"] <= 1.0
        assert 0.0 <= out["m"]["Accuracy"] <= 1.0

    def test_trained_model_beats_random_on_auc(self, criteo_storage):
        ev = Evaluator(criteo_storage, batch_bytes_parser=criteo_batch_parser)
        model = DlrmLite(seed=0)
        random_auc = ev.evaluate({"m": model}, np.arange(1000), ["RocAuc"])["m"]["RocAuc"]
        buf = criteo_storage.get_samples(np.arange(1000, 3000))
        X = np.concatenate([criteo_bytes_parser(p) for p in buf.payloads])
        for _ in range(15):
            model.sgd_step(X, buf.labels, lr=0.2)
        trained_auc = ev.evaluate({"m": model}, np.arange(1000), ["RocAuc"])["m"]["RocAuc"]
        assert trained_auc > max(random_auc, 0.55)

    def test_unknown_metric_rejected(self, cloc_evaluator):
        with pytest.raises(KeyError):
            cloc_evaluator.evaluate(
                {"m": SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES)},
                np.arange(5),
                ["NotAMetric"],
            )

    def test_empty_key_set_is_nan(self, criteo_storage):
        ev = Evaluator(criteo_storage, batch_bytes_parser=criteo_batch_parser)
        out = ev.evaluate(
            {"m": DlrmLite(seed=0)}, np.empty(0, np.int64), ["Accuracy", "RocAuc"]
        )
        assert set(out["m"]) == {"Accuracy", "RocAuc"}
        assert all(np.isnan(v) for v in out["m"].values())

    @pytest.mark.parametrize("batch_size", [7, 1000])
    def test_many_models_equal_one_model_at_a_time(self, criteo_storage, batch_size):
        """One read folded into every model gives each model exactly the
        values it gets evaluated alone."""
        ev = Evaluator(
            criteo_storage, batch_bytes_parser=criteo_batch_parser, batch_size=batch_size
        )
        models = {seed: DlrmLite(seed=seed) for seed in range(3)}
        keys = np.arange(100, 700)
        metrics = ["Accuracy", "RocAuc"]
        together = ev.evaluate(models, keys, metrics)
        alone = {k: ev.evaluate({k: m}, keys, metrics)[k] for k, m in models.items()}
        assert list(together) == list(models)
        assert together == alone
        assert len({v["RocAuc"] for v in together.values()}) == len(models)
