"""Pipeline configuration (paper §3.5, Figure 2).

A pipeline is a complete description of a training process on a dynamic
dataset: model, data/bytes-parser, triggering policy, selection strategy,
training hyperparameters, model-storage policy, and evaluation. Users
supply it as a YAML document or a plain dict; strategy/model/trigger
names resolve against the pluggable registries at run time, so new
policies need no platform changes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import yaml

from repro import synth_data
from repro.storage.payloads import Payloads

#: Built-in batch parsers selectable by name in the data section.
NAMED_PARSERS: dict[str, Callable[[Payloads], np.ndarray]] = {
    "criteo": synth_data.criteo_batch_parser,
    "cloc": synth_data.cloc_batch_parser,
}


def compile_bytes_parser(source: str) -> Callable[[bytes], np.ndarray]:
    """Compile the pipeline's ``bytes_parser_function`` source string.

    The paper's YAML embeds the parser as Python source defining
    ``bytes_parser_function(data)``; we execute it in a namespace with
    numpy available and return the function.
    """
    ns: dict[str, Any] = {"np": np, "numpy": np}
    exec(source, ns)  # noqa: S102 - user-authored pipeline code, as in the paper
    fn = ns.get("bytes_parser_function")
    if not callable(fn):
        raise ValueError("source must define bytes_parser_function(data)")
    return fn


@dataclass
class ModelConfig:
    id: str
    config: dict[str, Any] = field(default_factory=dict)


@dataclass
class DataConfig:
    #: name from NAMED_PARSERS, or Python source defining
    #: ``bytes_parser_function(data)``.
    bytes_parser_function: str = "cloc"

    def parser(self) -> Callable[[Payloads], np.ndarray]:
        """The data path's batch parser: a named one, or the compiled
        per-sample ``bytes_parser_function`` lifted once to stack its
        rows (the DataLoader's default collate); it still gets ``bytes``."""
        if self.bytes_parser_function in NAMED_PARSERS:
            return NAMED_PARSERS[self.bytes_parser_function]
        fn = compile_bytes_parser(self.bytes_parser_function)
        return lambda payloads: np.stack([fn(p) for p in payloads])


@dataclass
class TriggerConfig:
    id: str
    trigger_config: dict[str, Any] = field(default_factory=dict)


@dataclass
class DownsamplingConfig:
    name: str
    ratio: float = 0.5
    mode: str = "BtS"  # "BtS" | "StB"
    score_parallelism: int = 8  # StB: at most this many Spark scoring tasks


@dataclass
class SelectionConfig:
    name: str = "NewDataStrategy"
    storage_backend: str = "spark"  # "spark" | "local"
    reset_after_trigger: bool = True
    partition_size: int = 10_000
    presampling_config: dict[str, Any] = field(default_factory=dict)
    downsampling_config: DownsamplingConfig | None = None


@dataclass
class TrainingConfig:
    batch_size: int = 256
    epochs: int = 1
    lr: float = 0.025
    use_previous_model: bool = True
    dataloader_workers: int = 1
    prefetched_partitions: int = 1
    parallel_prefetch_requests: int = 1
    storage_threads: int = 1
    gpu_step_seconds: float = 0.0  # simulated accelerator time per batch
    seed: int = 0


@dataclass
class ModelStorageConfig:
    full_every: int = 1  # incremental (delta) models between full snapshots


@dataclass
class EvaluationConfig:
    metrics: list[str] = field(default_factory=lambda: ["Accuracy"])
    #: evaluate every model on every trigger's full data (accuracy matrix)
    matrix: bool = True


@dataclass
class PipelineConfig:
    """Top-level pipeline definition (one YAML document)."""

    pipeline_id: str
    model: ModelConfig
    trigger: TriggerConfig
    data: DataConfig = field(default_factory=DataConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    model_storage: ModelStorageConfig = field(default_factory=ModelStorageConfig)
    evaluation: EvaluationConfig | None = None

    def __post_init__(self) -> None:
        if self.selection.storage_backend not in ("spark", "local"):
            raise ValueError(
                f"unknown storage_backend {self.selection.storage_backend!r}"
            )
        ds = self.selection.downsampling_config
        if ds is not None and ds.mode not in ("BtS", "StB"):
            raise ValueError(f"unknown downsampling mode {ds.mode!r}")
        if self.training.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.selection.partition_size < 1:
            raise ValueError("partition_size must be >= 1")

    # -------------------------------------------------------- construction
    @staticmethod
    def from_dict(d: dict[str, Any]) -> "PipelineConfig":
        d = dict(d)
        sel = dict(d.get("selection", {}))
        if sel.get("downsampling_config"):
            sel["downsampling_config"] = DownsamplingConfig(
                **sel["downsampling_config"]
            )
        return PipelineConfig(
            pipeline_id=d["pipeline_id"],
            model=ModelConfig(**d["model"]),
            trigger=TriggerConfig(**d["trigger"]),
            data=DataConfig(**d.get("data", {})),
            selection=SelectionConfig(**sel),
            training=TrainingConfig(**d.get("training", {})),
            model_storage=ModelStorageConfig(**d.get("model_storage", {})),
            evaluation=(
                EvaluationConfig(**d["evaluation"]) if d.get("evaluation") else None
            ),
        )

    @staticmethod
    def from_yaml(text: str) -> "PipelineConfig":
        """Parse a pipeline from its YAML definition (the paper's CLI input)."""
        return PipelineConfig.from_dict(yaml.safe_load(text))
