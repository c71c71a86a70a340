"""Unit tests for pipeline configuration parsing (paper §3.5, Fig. 2)."""
import numpy as np
import pytest

from repro.core.config import (
    DataConfig,
    DownsamplingConfig,
    PipelineConfig,
    compile_bytes_parser,
)
from repro.models import DlrmLite
from repro.synth_data import (
    CRITEO_DTYPE,
    cloc_bytes_parser,
    criteo_bytes_parser,
    criteo_lite_array,
)


MINIMAL = {
    "pipeline_id": "p1",
    "model": {"id": "SoftmaxRegression", "config": {"dim": 4, "n_classes": 3}},
    "trigger": {"id": "DataAmountTrigger", "trigger_config": {"data_points_for_trigger": 10}},
}


class TestFromDict:
    def test_minimal(self):
        cfg = PipelineConfig.from_dict(MINIMAL)
        assert cfg.pipeline_id == "p1"
        assert cfg.model.id == "SoftmaxRegression"
        assert cfg.selection.name == "NewDataStrategy"  # defaults
        assert cfg.training.batch_size == 256
        assert cfg.evaluation is None

    def test_downsampling_config_parsed(self):
        d = dict(MINIMAL)
        d["selection"] = {
            "name": "NewDataStrategy",
            "downsampling_config": {"name": "GradNormDownsampler", "ratio": 0.5, "mode": "StB"},
        }
        cfg = PipelineConfig.from_dict(d)
        assert isinstance(cfg.selection.downsampling_config, DownsamplingConfig)
        assert cfg.selection.downsampling_config.mode == "StB"

    def test_bad_backend_rejected(self):
        d = dict(MINIMAL)
        d["selection"] = {"storage_backend": "postgres"}
        with pytest.raises(ValueError, match="storage_backend"):
            PipelineConfig.from_dict(d)

    def test_unknown_downsampler_mode_rejected(self):
        d = dict(MINIMAL)
        d["selection"] = {
            "downsampling_config": {"name": "LossDownsampler", "mode": "XXX"}
        }
        with pytest.raises(ValueError, match="mode"):
            PipelineConfig.from_dict(d)

    def test_bad_batch_size_rejected(self):
        d = dict(MINIMAL)
        d["training"] = {"batch_size": 0}
        with pytest.raises(ValueError, match="batch_size"):
            PipelineConfig.from_dict(d)

    @pytest.mark.parametrize(
        "training",
        [
            {"batch_size": 0},
            {"dataloader_workers": 0},
            {"prefetched_partitions": -1},
            {"parallel_prefetch_requests": 0},
            {"storage_threads": 0},
            {"epochs": 0},
        ],
    )
    def test_bad_training_settings_rejected_when_built(self, training):
        d = dict(MINIMAL)
        d["training"] = training
        (key,) = training  # the error names the pipeline's key, not a dataset field
        with pytest.raises(ValueError, match=rf"^training\.{key} must be >= "):
            PipelineConfig.from_dict(d)

    def test_pipeline_builds_its_dataset_config_from_training(self):
        d = dict(MINIMAL)
        d["training"] = {"batch_size": 64, "dataloader_workers": 3, "storage_threads": 2}
        got = PipelineConfig.from_dict(d).training.dataset_config()
        assert (got.batch_size, got.num_workers, got.storage_threads) == (64, 3, 2)

    def test_bad_partition_size_rejected(self):
        d = dict(MINIMAL)
        d["selection"] = {"partition_size": 0}
        with pytest.raises(ValueError, match="partition_size"):
            PipelineConfig.from_dict(d)


class TestFromYaml:
    def test_yaml_pipeline_like_paper_figure_2(self):
        cfg = PipelineConfig.from_yaml(
            """
pipeline_id: cloc_full
model:
  id: SoftmaxRegression
  config: {dim: 16, n_classes: 32}
data:
  bytes_parser_function: cloc
trigger:
  id: TimeTrigger
  trigger_config: {every: 1, start_timestamp: 2004}
selection:
  name: NewDataStrategy
  storage_backend: spark
  reset_after_trigger: true
  partition_size: 500
training:
  use_previous_model: true
  batch_size: 256
  lr: 0.025
  epochs: 3
model_storage:
  full_every: 3
evaluation:
  metrics: [Accuracy]
  matrix: true
"""
        )
        assert cfg.trigger.trigger_config == {"every": 1, "start_timestamp": 2004}
        assert cfg.training.epochs == 3
        assert cfg.model_storage.full_every == 3
        assert cfg.evaluation.metrics == ["Accuracy"]


class TestBytesParser:
    def test_named_parsers(self):
        cfg = PipelineConfig.from_dict({**MINIMAL, "data": {"bytes_parser_function": "criteo"}})
        rec = criteo_lite_array(1, seed=0)
        parsed = cfg.data.parser()([rec.tobytes()])
        assert parsed.dtype == rec.dtype

    def test_named_parsers_equal_stacked_references(self):
        recs = criteo_lite_array(5, seed=1)
        rows = [recs[i : i + 1].tobytes() for i in range(5)]
        criteo = DataConfig(bytes_parser_function="criteo").parser()(rows)
        assert np.array_equal(criteo, np.concatenate([criteo_bytes_parser(r) for r in rows]))
        feats = np.random.default_rng(0).standard_normal((4, 6)).astype("<f4")
        rows = [f.tobytes() for f in feats]
        cloc = DataConfig(bytes_parser_function="cloc").parser()(rows)
        ref = np.stack([cloc_bytes_parser(r) for r in rows])
        assert cloc.dtype == ref.dtype == np.float64 and cloc.flags.c_contiguous
        assert np.array_equal(cloc, ref)

    def test_user_parser_lifted_to_stacked_rows(self):
        src = (
            "def bytes_parser_function(data):\n"
            "    return np.frombuffer(data, dtype='<f4') * 2\n"
        )
        fn = compile_bytes_parser(src)
        rows = [np.arange(3 * i, 3 * i + 3, dtype="<f4").tobytes() for i in range(4)]
        lifted = DataConfig(bytes_parser_function=src).parser()
        assert np.array_equal(lifted(rows), np.stack([fn(r) for r in rows]))
        assert lifted(rows).shape == (4, 3)

    def test_user_record_parser_lifted_to_record_batch(self):
        """A per-sample parser returning one record (the §3.5 form of
        ``criteo_bytes_parser``) collates into the ``(n,)`` record batch
        the named parser gives, and the model trains on it the same."""
        src = (
            f"DTYPE = np.dtype({CRITEO_DTYPE.descr!r})\n"
            "def bytes_parser_function(data):\n"
            "    return np.frombuffer(data, dtype=DTYPE)\n"
        )
        recs = criteo_lite_array(6, seed=2)
        rows = [recs[i : i + 1].tobytes() for i in range(6)]
        lifted = DataConfig(bytes_parser_function=src).parser()(rows)
        named = DataConfig(bytes_parser_function="criteo").parser()(rows)
        assert lifted.shape == named.shape == (6,)
        assert np.array_equal(lifted, named)
        y = recs["label"]
        assert DlrmLite(seed=0).sgd_step(lifted, y, lr=0.1) == DlrmLite(seed=0).sgd_step(
            named, y, lr=0.1
        )

    def test_source_string_parser_compiled(self):
        src = (
            "def bytes_parser_function(data):\n"
            "    return np.frombuffer(data, dtype='<f4')\n"
        )
        fn = compile_bytes_parser(src)
        out = fn(np.arange(3, dtype="<f4").tobytes())
        assert np.allclose(out, [0, 1, 2])

    def test_source_without_function_rejected(self):
        with pytest.raises(ValueError, match="bytes_parser_function"):
            compile_bytes_parser("x = 3\n")

    def test_parser_from_config_source(self):
        d = dict(MINIMAL)
        d["data"] = {
            "bytes_parser_function": "def bytes_parser_function(data):\n    return np.frombuffer(data, dtype='<f8')\n"
        }
        cfg = PipelineConfig.from_dict(d)
        assert np.allclose(cfg.data.parser()([np.ones(2).tobytes()]), 1.0)
