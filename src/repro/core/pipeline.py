"""End-to-end pipeline execution (paper §3.4 data flow, experiment mode).

Wires storage -> supervisor (trigger policy) -> selector (selection
policy) -> trainer -> model storage -> evaluator for one pipeline config,
replaying the storage's registered data in timestamp order ("the data
storage simulates new data points streaming in by announcing existing
data points as new", §4.1.1). This is the harness behind the §5.2
data-selection study (T4).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.config import PipelineConfig
from repro.core.registry import DOWNSAMPLERS, MODELS, PRESAMPLING_STRATEGIES, TRIGGERS
from repro.evaluator.evaluator import Evaluator
from repro.model_storage.model_storage import ModelStorage
from repro.models.base import Model
from repro.selector.metadata_backend import LocalMetadataBackend, SparkMetadataBackend
from repro.selector.selector import Selector, TriggerSetInfo
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.storage.storage import Storage
from repro.supervisor.supervisor import Supervisor
from repro.trainer.online_dataset import OnlineDataset, OnlineDatasetConfig
from repro.trainer.trainer import Trainer, TrainResult

# Side-effect imports: populate the registries with the built-ins.
import repro.models  # noqa: F401
import repro.selector.presampling  # noqa: F401
import repro.selector.downsampling  # noqa: F401
import repro.supervisor.triggers  # noqa: F401
import repro.evaluator.metrics  # noqa: F401


@dataclass
class PipelineResult:
    """Everything a pipeline run produced."""

    config: PipelineConfig
    trigger_infos: list[TriggerSetInfo]
    train_results: list[TrainResult]
    model_storage: ModelStorage
    #: all samples announced within each trigger window (the "triggers
    #: containing all data" the paper evaluates on)
    seen_keys: dict[int, np.ndarray]
    #: trigger window id -> representative timestamp (e.g. the year)
    trigger_timestamps: dict[int, int]
    accuracy_matrix: pd.DataFrame | None = None
    evaluations: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def num_triggers(self) -> int:
        return len(self.trigger_infos)


class Pipeline:
    """Executable pipeline: config + storage + working directory."""

    def __init__(
        self,
        spark,
        config: PipelineConfig,
        storage: Storage,
        workdir: str,
    ) -> None:
        self.spark = spark
        self.config = config
        self.storage = storage
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    # ------------------------------------------------------------- plumbing
    def _build_backend(self):
        sel = self.config.selection
        root = os.path.join(self.workdir, "selector_meta")
        if sel.storage_backend == "spark":
            return SparkMetadataBackend(
                self.spark, root, pipeline_id=self.config.pipeline_id
            )
        return LocalMetadataBackend(root, pipeline_id=self.config.pipeline_id)

    def _build_selector(self) -> Selector:
        sel = self.config.selection
        strategy_cls = PRESAMPLING_STRATEGIES.get(sel.name)
        strategy = strategy_cls(
            self._build_backend(),
            reset_after_trigger=sel.reset_after_trigger,
            partition_size=sel.partition_size,
            seed=self.config.training.seed,
            **sel.presampling_config,
        )
        tss = TriggerSampleStorage(os.path.join(self.workdir, "tss"))
        return Selector(self.config.pipeline_id, strategy, tss)

    def _build_model(self) -> Model:
        m = self.config.model
        return MODELS.get(m.id)(**m.config)

    def _build_trainer(self, model: Model) -> Trainer:
        tr = self.config.training
        ds_cfg = self.config.selection.downsampling_config
        downsampler = None
        mode = "BtS"
        if ds_cfg is not None:
            downsampler = DOWNSAMPLERS.get(ds_cfg.name)(
                ratio=ds_cfg.ratio, seed=tr.seed
            )
            mode = ds_cfg.mode
        return Trainer(
            model,
            lr=tr.lr,
            epochs=tr.epochs,
            downsampler=downsampler,
            downsampling_mode=mode,
            gpu_step_seconds=tr.gpu_step_seconds,
            seed=tr.seed,
        )

    # ------------------------------------------------------------ execution
    def run_experiment(self, *, announce_batch_size: int = 1000) -> PipelineResult:
        """Replay the storage's data in time order and run the pipeline."""
        cfg = self.config
        tr = cfg.training
        selector = self._build_selector()
        model_storage = ModelStorage(
            os.path.join(self.workdir, "models"),
            full_every=cfg.model_storage.full_every,
        )
        parser = cfg.data.parser()
        seen_keys: dict[int, list[np.ndarray]] = {}
        trigger_timestamps: dict[int, int] = {}
        train_results: list[TrainResult] = []
        model = self._build_model()
        initial_state = model.get_state()

        def on_inform(trigger_id, keys, timestamps, labels) -> None:
            seen_keys.setdefault(trigger_id, []).append(np.asarray(keys, np.int64))
            if len(timestamps):
                trigger_timestamps[trigger_id] = int(timestamps[-1])

        def on_trigger(info: TriggerSetInfo) -> None:
            if tr.use_previous_model and model_storage.stored_triggers:
                model.set_state(model_storage.load(model_storage.stored_triggers[-1]))
            else:
                # train from scratch: reset to the initial random weights
                model.set_state(initial_state)
            trainer = self._build_trainer(model)
            ds_cfg = cfg.selection.downsampling_config
            if ds_cfg is not None and ds_cfg.mode == "StB":
                keys, weights = selector.get_all_samples(info.trigger_id)
                result = trainer.train_stb(
                    self.storage,
                    keys,
                    weights,
                    batch_size=tr.batch_size,
                    batch_bytes_parser=parser,
                    score_parallelism=ds_cfg.score_parallelism,
                    storage_threads=tr.storage_threads,
                )
            else:
                dataset = OnlineDataset(
                    self.storage,
                    selector,
                    info.trigger_id,
                    OnlineDatasetConfig(
                        batch_size=tr.batch_size,
                        num_workers=tr.dataloader_workers,
                        prefetched_partitions=tr.prefetched_partitions,
                        parallel_prefetch_requests=tr.parallel_prefetch_requests,
                        storage_threads=tr.storage_threads,
                    ),
                    batch_bytes_parser=parser,
                )
                result = trainer.train(dataset)
            train_results.append(result)
            model_storage.store(info.trigger_id, model.get_state())

        trigger = TRIGGERS.get(cfg.trigger.id)(**cfg.trigger.trigger_config)
        supervisor = Supervisor(
            trigger, selector, on_trigger, on_inform=on_inform
        )
        for keys, timestamps, labels in self.storage.new_data_batches(
            batch_size=announce_batch_size
        ):
            supervisor.process_batch(keys, timestamps, labels)
        supervisor.flush()

        result = PipelineResult(
            config=cfg,
            trigger_infos=supervisor.triggers_fired,
            train_results=train_results,
            model_storage=model_storage,
            seen_keys={
                t: np.concatenate(chunks) for t, chunks in seen_keys.items()
            },
            trigger_timestamps=trigger_timestamps,
        )
        if cfg.evaluation is not None:
            self._evaluate(result, parser)
        return result

    # ----------------------------------------------------------- evaluation
    def _load_model(self, result: PipelineResult, trigger_id: int) -> Model:
        model = self._build_model()
        model.set_state(result.model_storage.load(trigger_id))
        return model

    def _evaluate(self, result: PipelineResult, parser) -> None:
        ev_cfg = self.config.evaluation
        evaluator = Evaluator(self.storage, batch_bytes_parser=parser)
        for info in result.trigger_infos:
            model = self._load_model(result, info.trigger_id)
            result.evaluations[info.trigger_id] = evaluator.evaluate(
                model, result.seen_keys[info.trigger_id], ev_cfg.metrics
            )
        if ev_cfg.matrix:
            models = {
                info.trigger_id: self._load_model(result, info.trigger_id)
                for info in result.trigger_infos
            }
            eval_sets = {
                t: result.seen_keys[t] for t in sorted(result.seen_keys)
            }
            result.accuracy_matrix = evaluator.accuracy_matrix(models, eval_sets)
