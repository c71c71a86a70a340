"""Data-selection study (paper §5.2, Figures 9 & 10; T4).

Trains three pipelines over the drifting cloc-lite stream with yearly
triggers — (1) all new data, (2) uniform random 50 %, (3) DLIS GradNorm
50 % downsampling — and collects the accuracy matrix (every trained model
evaluated on every year). Also reports the §5.2 implementation-complexity
numbers (LOC per policy) measured on this codebase.
"""
from __future__ import annotations

import inspect
import os

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline, PipelineResult
from repro.selector.downsampling import GradNormDownsampler
from repro.selector.presampling import NewDataStrategy, UniformRandomStrategy
from repro.storage.file_wrappers import SingleSampleFileWrapper
from repro.storage.storage import Storage
from repro.synth_data import CLOC_YEARS, generate_cloc_files


#: The study's fixed settings: the cloc-lite stream's shape, the
#: training of every trigger, and the three pipelines in run order.
N_CLASSES = 32
DIM = 16
EPOCHS = 3
BATCH_SIZE = 256
LR = 0.025
PIPELINES = ("full", "uniform", "gradnorm")

#: each pipeline's selection section, without its partition size
_SELECTIONS = {
    "full": {"name": "NewDataStrategy", "storage_backend": "local"},
    # the paper's ~20-LOC SQL strategy needs the Spark (SQL) backend
    "uniform": {
        "name": "UniformRandomStrategy",
        "storage_backend": "spark",
        "presampling_config": {"fraction": 0.5},
    },
    "gradnorm": {
        "name": "NewDataStrategy",
        "storage_backend": "local",
        "downsampling_config": {
            "name": "GradNormDownsampler",
            "ratio": 0.5,
            "mode": "StB",
            "score_parallelism": 8,
        },
    },
}


def _pipeline_config(name: str, *, partition_size: int) -> PipelineConfig:
    return PipelineConfig.from_dict(
        {
            "pipeline_id": f"cloc_{name}",
            "model": {
                "id": "SoftmaxRegression",
                "config": {"dim": DIM, "n_classes": N_CLASSES, "seed": 0},
            },
            "data": {"bytes_parser_function": "cloc"},
            "trigger": {
                "id": "TimeTrigger",
                "trigger_config": {"every": 1, "start_timestamp": CLOC_YEARS[0]},
            },
            "selection": {
                **_SELECTIONS[name],
                "reset_after_trigger": True,
                "partition_size": partition_size,
            },
            "training": {
                "batch_size": BATCH_SIZE,
                "epochs": EPOCHS,
                "lr": LR,
                "use_previous_model": True,
                "dataloader_workers": 2,
                "prefetched_partitions": 1,
            },
            "evaluation": {"metrics": ["Accuracy"], "matrix": True},
        }
    )


def build_cloc_stream(spark: SparkSession, root: str, *, per_year: int) -> Storage:
    """Generate + ingest the drifting cloc-lite stream (all years)."""
    paths, stamps = generate_cloc_files(
        os.path.join(root, "data"), per_year=per_year, n_classes=N_CLASSES, dim=DIM
    )
    storage = Storage(spark, os.path.join(root, "storage"), SingleSampleFileWrapper())
    storage.ingest_files(paths, timestamps=stamps)
    return storage


def run_selection_study(
    spark: SparkSession, root: str, *, per_year: int = 1000
) -> dict[str, PipelineResult]:
    """Run the three §5.2 pipelines over one shared data stream.

    Returns pipeline name -> PipelineResult; each result carries the
    accuracy matrix with rows = trigger ids and columns = trigger ids,
    which map 1:1 to years (trigger_timestamps).
    """
    storage = build_cloc_stream(spark, root, per_year=per_year)
    return {
        name: run_one_pipeline(spark, storage, root, name, per_year=per_year)
        for name in PIPELINES
    }


def run_one_pipeline(
    spark: SparkSession, storage: Storage, root: str, name: str, *, per_year: int
) -> PipelineResult:
    """Run one of the three §5.2 pipelines over an ingested stream."""
    cfg = _pipeline_config(name, partition_size=max(200, per_year // 4))
    pipe = Pipeline(spark, cfg, storage, os.path.join(root, f"wd_{name}"))
    return pipe.run_experiment(announce_batch_size=per_year)


def year_matrix(result: PipelineResult) -> pd.DataFrame:
    """Re-label an accuracy matrix's trigger ids with their years."""
    mat = result.accuracy_matrix.copy()
    label = {t: y for t, y in result.trigger_timestamps.items()}
    mat.index = [label[t] for t in mat.index]
    mat.columns = [label[t] for t in mat.columns]
    return mat


def implementation_loc() -> pd.DataFrame:
    """§5.2 'complexity of implementation': LOC of each policy here.

    Paper: pipeline 1 = 1 line (strategy core), pipeline 2 = 20 LOC SQL,
    pipeline 3 = 90 LOC downsampler. We report the analogous counts for
    this codebase's implementations.
    """

    policies = (
        ("full (NewDataStrategy core)", NewDataStrategy._select_keys, 1),
        ("uniform random (SQL strategy)", UniformRandomStrategy._select_keys, 20),
        ("GradNorm downsampler (class)", GradNormDownsampler, 90),
    )
    return pd.DataFrame(
        [
            {"pipeline": name, "loc": len(inspect.getsource(obj).splitlines()), "paper_loc": paper}
            for name, obj, paper in policies
        ]
    )
