"""End-to-end pipeline tests (paper §3.4 data flow, §5.2 harness)."""
import os

import numpy as np
import pytest

from repro.batching import round_robin
from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.evaluator import Evaluator
from repro.experiments.selection import build_cloc_stream, run_one_pipeline, year_matrix
from repro.model_storage.model_storage import ModelStorage
from repro.storage.storage import Storage
from repro.synth_data import CLOC_YEARS
from repro.trainer import online_dataset
from tests.conftest import (
    CLOC_CLASSES,
    CLOC_DIM,
    CLOC_PER_YEAR,
    CLOC_YEARS_SMALL,
    CRITEO_N,
)


def _cloc_config(pipeline_id, **overrides):
    d = {
        "pipeline_id": pipeline_id,
        "model": {
            "id": "SoftmaxRegression",
            "config": {"dim": CLOC_DIM, "n_classes": CLOC_CLASSES, "seed": 0},
        },
        "data": {"bytes_parser_function": "cloc"},
        "trigger": {
            "id": "TimeTrigger",
            "trigger_config": {"every": 1, "start_timestamp": CLOC_YEARS_SMALL[0]},
        },
        "selection": {
            "name": "NewDataStrategy",
            "storage_backend": "local",
            "reset_after_trigger": True,
            "partition_size": 50,
        },
        "training": {
            "batch_size": 32,
            "epochs": 2,
            "lr": 0.05,
            "dataloader_workers": 2,
            "prefetched_partitions": 1,
        },
        "evaluation": {"metrics": ["Accuracy"], "matrix": True},
    }
    for k, v in overrides.items():
        d[k] = {**d.get(k, {}), **v} if isinstance(v, dict) else v
    return PipelineConfig.from_dict(d)


def _run_recording_evaluation(spark, storage, workdir, cfg):
    """Run ``cfg`` and record what its evaluation reads: the keys of each
    ``Storage.get_samples`` call, the trigger id of each
    ``ModelStorage.load`` and the model ids of each ``Evaluator.evaluate``."""
    reads = {"get_samples": [], "load": [], "evaluate": []}
    evaluating = False
    _evaluate, get_samples = Pipeline._evaluate, Storage.get_samples
    load, evaluate = ModelStorage.load, Evaluator.evaluate

    def in_evaluation(self, *args):
        nonlocal evaluating
        evaluating = True
        try:
            return _evaluate(self, *args)
        finally:
            evaluating = False

    def recording_get_samples(self, keys, **kwargs):
        if evaluating:
            reads["get_samples"].append(sorted(np.asarray(keys).tolist()))
        return get_samples(self, keys, **kwargs)

    def recording_load(self, trigger_id):
        if evaluating:
            reads["load"].append(trigger_id)
        return load(self, trigger_id)

    def recording_evaluate(self, models, keys, metric_names):
        reads["evaluate"].append(list(models))
        return evaluate(self, models, keys, metric_names)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Pipeline, "_evaluate", in_evaluation)
        m.setattr(Storage, "get_samples", recording_get_samples)
        m.setattr(ModelStorage, "load", recording_load)
        m.setattr(Evaluator, "evaluate", recording_evaluate)
        result = Pipeline(spark, cfg, storage, workdir).run_experiment(
            announce_batch_size=50
        )
    return result, reads


@pytest.fixture(scope="module")
def full_run_reads(spark, cloc_storage, tmp_path_factory):
    """One full-data pipeline run over the 3-year cloc_lite stream, with
    the reads its evaluation made."""
    return _run_recording_evaluation(
        spark, cloc_storage, str(tmp_path_factory.mktemp("wd")), _cloc_config("full")
    )


@pytest.fixture(scope="module")
def full_run(full_run_reads):
    return full_run_reads[0]


class TestFullDataPipeline:
    def test_one_trigger_per_year(self, full_run):
        assert full_run.num_triggers == len(CLOC_YEARS_SMALL)

    def test_trigger_sets_cover_each_year(self, full_run):
        for t, info in enumerate(full_run.trigger_infos):
            assert info.num_samples == CLOC_PER_YEAR
            expect = set(range(t * CLOC_PER_YEAR, (t + 1) * CLOC_PER_YEAR))
            assert set(full_run.seen_keys[info.trigger_id].tolist()) == expect

    def test_trigger_timestamps_are_years(self, full_run):
        assert [
            full_run.trigger_timestamps[i.trigger_id] for i in full_run.trigger_infos
        ] == list(CLOC_YEARS_SMALL)

    def test_models_stored_per_trigger(self, full_run):
        assert full_run.model_storage.stored_triggers == [0, 1, 2]

    def test_train_results_counts(self, full_run):
        for res in full_run.train_results:
            assert res.num_samples == 2 * CLOC_PER_YEAR  # 2 epochs

    def test_accuracy_matrix_shape(self, full_run):
        mat = full_run.accuracy_matrix
        assert mat.shape == (3, 3)
        assert ((mat >= 0) & (mat <= 1)).all().all()

    def test_models_learn_better_than_chance(self, full_run):
        # diagonal: model evaluated on the year it just trained on
        mat = full_run.accuracy_matrix
        diag = np.diag(mat.to_numpy())
        assert diag.mean() > 3.0 / CLOC_CLASSES  # >> 1/8 random guessing

    def test_evaluations_recorded(self, full_run):
        assert set(full_run.evaluations) == {0, 1, 2}
        for v in full_run.evaluations.values():
            assert "Accuracy" in v


class TestEvaluationReads:
    """Evaluation is data-major: each evaluation set is read once and
    every model is loaded once, however many (model, set) cells there are."""

    def test_one_read_per_evaluation_set(self, full_run_reads):
        result, reads = full_run_reads
        assert reads["get_samples"] == [
            sorted(result.seen_keys[t].tolist()) for t in sorted(result.seen_keys)
        ]
        assert reads["evaluate"] == [[0, 1, 2]] * 3

    def test_one_load_per_stored_model(self, full_run_reads):
        result, reads = full_run_reads
        assert sorted(reads["load"]) == result.model_storage.stored_triggers == [0, 1, 2]

    def test_without_matrix_each_set_is_evaluated_for_its_model(
        self, spark, cloc_storage, full_run, tmp_path
    ):
        cfg = _cloc_config("full", evaluation={"metrics": ["Accuracy"], "matrix": False})
        result, reads = _run_recording_evaluation(
            spark, cloc_storage, str(tmp_path / "wd"), cfg
        )
        assert result.accuracy_matrix is None
        mat = full_run.accuracy_matrix
        assert result.evaluations == {t: {"Accuracy": mat.loc[t, t]} for t in (0, 1, 2)}
        assert reads["evaluate"] == [[0], [1], [2]]
        assert len(reads["get_samples"]) == 3
        assert sorted(reads["load"]) == [0, 1, 2]


class TestPipelineVariants:
    def test_uniform_random_pipeline_halves_trigger_set(
        self, spark, cloc_storage, tmp_path
    ):
        cfg = _cloc_config(
            "uniform",
            selection={
                "name": "UniformRandomStrategy",
                "storage_backend": "spark",
                "reset_after_trigger": True,
                "partition_size": 50,
                "presampling_config": {"fraction": 0.5},
            },
            evaluation=None,
        )
        pipe = Pipeline(spark, cfg, cloc_storage, str(tmp_path / "wd"))
        result = pipe.run_experiment(announce_batch_size=50)
        assert result.num_triggers == 3
        for info in result.trigger_infos:
            assert info.num_samples == CLOC_PER_YEAR // 2

    def test_misspelt_presampling_setting_rejected(self, spark, cloc_storage, tmp_path):
        cfg = _cloc_config(
            "typo",
            selection={
                "name": "UniformRandomStrategy",
                "storage_backend": "spark",
                "presampling_config": {"fractoin": 0.5},
            },
            evaluation=None,
        )
        pipe = Pipeline(spark, cfg, cloc_storage, str(tmp_path / "wd"))
        with pytest.raises(TypeError, match="fractoin"):
            pipe.run_experiment(announce_batch_size=50)

    def test_empty_presampling_config_rejected_at_build(self, spark, cloc_storage, tmp_path):
        """Uniform sampling without a fraction or a sample count fails as
        the selector is built, before any data is replayed."""
        cfg = _cloc_config(
            "empty",
            selection={
                "name": "UniformRandomStrategy",
                "storage_backend": "spark",
                "presampling_config": {},
            },
            evaluation=None,
        )
        pipe = Pipeline(spark, cfg, cloc_storage, str(tmp_path / "wd"))
        with pytest.raises(ValueError, match="exactly one"):
            pipe.run_experiment(announce_batch_size=50)
        assert not os.path.exists(tmp_path / "wd" / "models")

    def test_gradnorm_stb_pipeline(self, spark, cloc_storage, tmp_path):
        cfg = _cloc_config(
            "gradnorm",
            selection={
                "name": "NewDataStrategy",
                "storage_backend": "local",
                "reset_after_trigger": True,
                "partition_size": 50,
                "downsampling_config": {
                    "name": "GradNormDownsampler",
                    "ratio": 0.5,
                    "mode": "StB",
                    "score_parallelism": 2,
                },
            },
            evaluation=None,
        )
        pipe = Pipeline(spark, cfg, cloc_storage, str(tmp_path / "wd"))
        result = pipe.run_experiment(announce_batch_size=50)
        assert result.num_triggers == 3
        for res in result.train_results:
            # scoring saw the full year; training stepped on half (x2 epochs)
            assert res.num_samples == CLOC_PER_YEAR
            assert res.num_trained_samples == 2 * (CLOC_PER_YEAR // 2)

    def test_from_scratch_vs_finetune_differ(self, spark, cloc_storage, tmp_path):
        runs = {}
        for name, prev in (("ft", True), ("scratch", False)):
            cfg = _cloc_config(
                name, training={"use_previous_model": prev, "batch_size": 32,
                                "epochs": 2, "lr": 0.05}, evaluation=None,
            )
            pipe = Pipeline(spark, cfg, cloc_storage, str(tmp_path / name))
            runs[name] = pipe.run_experiment(announce_batch_size=50)
        w_ft = runs["ft"].model_storage.load(2)["W"]
        w_scratch = runs["scratch"].model_storage.load(2)["W"]
        assert not np.allclose(w_ft, w_scratch)

    def test_incremental_model_storage_policy(self, spark, cloc_storage, tmp_path):
        cfg = _cloc_config("inc", model_storage={"full_every": 3}, evaluation=None)
        pipe = Pipeline(spark, cfg, cloc_storage, str(tmp_path / "wd"))
        result = pipe.run_experiment(announce_batch_size=50)
        kinds = [result.model_storage.info(t).kind for t in (0, 1, 2)]
        assert kinds == ["full", "delta", "delta"]

    def test_amount_trigger_pipeline(self, spark, cloc_storage, tmp_path):
        cfg = _cloc_config(
            "amount",
            trigger={"id": "DataAmountTrigger", "trigger_config": {"data_points_for_trigger": 45}},
            evaluation=None,
        )
        pipe = Pipeline(spark, cfg, cloc_storage, str(tmp_path / "wd"))
        result = pipe.run_experiment(announce_batch_size=50)
        # 180 samples / 45 per trigger = 4 triggers, nothing left over
        assert result.num_triggers == 4
        assert all(i.num_samples == 45 for i in result.trigger_infos)

    def test_one_dataloader_stream_per_training(
        self, spark, cloc_storage, tmp_path, monkeypatch
    ):
        # the workers of a 3-epoch training start once and stream every
        # epoch; a stream per epoch would pay their start-up each time
        streams = []

        def counting_round_robin(workers, depth):
            streams.append(len(workers))
            return round_robin(workers, depth)

        monkeypatch.setattr(online_dataset, "round_robin", counting_round_robin)
        cfg = _cloc_config("stream", training={"epochs": 3}, evaluation=None)
        pipe = Pipeline(spark, cfg, cloc_storage, str(tmp_path / "wd"))
        result = pipe.run_experiment(announce_batch_size=50)
        assert result.num_triggers == len(CLOC_YEARS_SMALL)
        assert all(r.num_samples == 3 * CLOC_PER_YEAR for r in result.train_results)
        assert streams == [2] * result.num_triggers

    def test_criteo_pipeline_with_dlrm(self, spark, criteo_storage, tmp_path):
        cfg = PipelineConfig.from_dict(
            {
                "pipeline_id": "criteo",
                "model": {"id": "DlrmLite", "config": {"seed": 0}},
                "data": {"bytes_parser_function": "criteo"},
                "trigger": {
                    "id": "DataAmountTrigger",
                    "trigger_config": {"data_points_for_trigger": 1500},
                },
                "selection": {
                    "name": "NewDataStrategy",
                    "storage_backend": "local",
                    "partition_size": 500,
                },
                "training": {"batch_size": 256, "lr": 0.1, "dataloader_workers": 2},
            }
        )
        pipe = Pipeline(spark, cfg, criteo_storage, str(tmp_path / "wd"))
        result = pipe.run_experiment(announce_batch_size=600)
        assert result.num_triggers == CRITEO_N // 1500
        assert result.train_results[0].num_samples == 1500


class TestSelectionStudy:
    """T4 (§5.2) at reduced scale: 11 yearly triggers over the 32-class
    cloc-lite stream, one pipeline per data-selection policy."""

    PER_YEAR = 150

    @pytest.fixture(scope="class")
    def stream(self, spark, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("t4"))
        return build_cloc_stream(spark, root, per_year=self.PER_YEAR), root

    @pytest.mark.parametrize("name", ["full", "uniform", "gradnorm"])
    def test_final_model_beats_chance_on_its_year(self, spark, stream, name):
        storage, root = stream
        result = run_one_pipeline(
            spark, storage, f"{root}/{name}", name, per_year=self.PER_YEAR
        )
        assert result.num_triggers == len(CLOC_YEARS)
        final = CLOC_YEARS[-1]
        assert year_matrix(result).loc[final, final] > 3 / 32
