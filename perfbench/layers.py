"""Per-layer metrics: which program functions the traced run wraps.

Layers are named after the modules of ``src/repro``; every metric is
``<layer>.<function>.<stat>``. ``install`` wraps the functions, and
``metrics`` turns the recorded spans and counts into the per-layer
numbers. A layer that a workload does not run reports zeros there.
"""
from __future__ import annotations

import numpy as np

from spans import Patches, Tracer

#: per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER: dict[str, str] = {}


def _fn(prefix: str, *extra: tuple[str, str]) -> None:
    for stat, unit in (("calls", "count"), ("busy_ms", "ms"), ("errors", "count"), *extra):
        PER_LAYER[f"{prefix}.{stat}"] = unit


_fn("storage.lookup", ("keys", "count"), ("modeled_db_ms", "ms"), ("overhead_ms", "ms"))
_fn("storage.retrieve_stream", ("buffers", "count"), ("first_buffer_ms_p50", "ms"))
_fn("storage.get_samples")
_fn("storage.ingest_files", ("samples", "count"))
_fn("storage.get_metadata", ("keys", "count"))
_fn("storage.new_data_batches")
_fn("storage.file_wrappers.get_samples", ("samples", "count"), ("bytes", "bytes"))
PER_LAYER["storage.local_dataset.samples_per_s"] = "1/s"
PER_LAYER["storage.local_dataset.modyn_pct_of_local"] = "%"
_fn("selector.get_worker_samples", ("keys", "count"))
_fn("selector.trigger")
_fn("selector.presampling.select")
PER_LAYER["selector.presampling.NewDataStrategy.select.busy_ms"] = "ms"
PER_LAYER["selector.presampling.UniformRandomStrategy.select.busy_ms"] = "ms"
_fn("selector.trigger_sample_storage.persist", ("self_ms", "ms"))
_fn("selector.downsampling.score_keys_spark", ("keys", "count"))
_fn("trainer.online_dataset.batches")
PER_LAYER["trainer.online_dataset.batch_wait_ms.p50"] = "ms"
PER_LAYER["trainer.online_dataset.batch_wait_ms.p90"] = "ms"
PER_LAYER["trainer.online_dataset.batch_wait.share"] = "ratio"
_fn("trainer.online_dataset.parse")
_fn("trainer.online_dataset.transform")
_fn("trainer.train", ("device_ms", "ms"))
_fn("trainer.train_stb")
_fn("models.sgd_step")
_fn("model_storage.store", ("bytes", "bytes"))
_fn("model_storage.load")
_fn("evaluator.evaluate", ("samples", "count"))
_fn("supervisor.process_batch", ("self_ms", "ms"))
_fn("core.pipeline.run_experiment")
for _policy in ("full", "uniform", "gradnorm"):
    PER_LAYER[f"core.pipeline.trigger_s_{_policy}"] = "s"
for _policy in ("full", "uniform", "gradnorm"):
    PER_LAYER[f"evaluator.mean_final_accuracy_{_policy}"] = "ratio"
PER_LAYER["trace.overhead_pct"] = "%"

_SELECT_CLASSES = ("NewDataStrategy", "UniformRandomStrategy")


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public functions of every layer (undone by ``patches``)."""
    import repro.trainer.trainer as trainer_mod
    from repro.core.pipeline import Pipeline
    from repro.evaluator.evaluator import Evaluator
    from repro.model_storage.model_storage import ModelStorage
    from repro.models import DlrmLite, SoftmaxRegression
    from repro.selector.presampling import PresamplingStrategy
    from repro.selector.selector import Selector
    from repro.selector.trigger_sample_storage import TriggerSampleStorage
    from repro.storage import storage as storage_mod
    from repro.storage.file_wrappers import (
        BinaryFileWrapper,
        CsvFileWrapper,
        SingleSampleFileWrapper,
    )
    from repro.supervisor.supervisor import Supervisor
    from repro.trainer.online_dataset import OnlineDataset

    Storage = storage_mod.Storage
    db_base_ms = storage_mod._DB_BASE_S * 1e3
    db_key_ms = storage_mod._DB_PER_KEY_S * 1e3
    t = tracer

    def method(owner, attr, name, on_result=None):
        patches.patch(owner, attr, t.wrap(name, getattr(owner, attr), on_result))

    def generator(owner, attr, name, on_item=None):
        patches.patch(owner, attr, t.wrap_generator(name, getattr(owner, attr), on_item))

    def on_lookup(name, args, result):
        n = len(args[1])
        t.count(f"{name}.keys", n)
        t.count(f"{name}.modeled_db_ms", db_base_ms + db_key_ms * n)

    def on_buffer(name, i, item, since_call):
        t.count(f"{name}.buffers")
        if i == 0:
            t.sample(f"{name}.first_buffer_ms", 1e3 * since_call)

    def on_file_samples(name, args, result):
        t.count(f"{name}.samples", len(result))
        t.count(f"{name}.bytes", sum(map(len, result)))

    method(Storage, "lookup", "storage.lookup", on_lookup)
    generator(Storage, "retrieve_stream", "storage.retrieve_stream", on_buffer)
    method(Storage, "get_samples", "storage.get_samples")
    method(
        Storage, "ingest_files", "storage.ingest_files",
        lambda n, a, r: t.count(f"{n}.samples", len(r)),
    )
    method(
        Storage, "get_metadata", "storage.get_metadata",
        lambda n, a, r: t.count(f"{n}.keys", len(a[1])),
    )
    generator(Storage, "new_data_batches", "storage.new_data_batches")
    for cls in (BinaryFileWrapper, CsvFileWrapper, SingleSampleFileWrapper):
        method(cls, "get_samples", "storage.file_wrappers.get_samples", on_file_samples)

    method(
        Selector, "get_worker_samples", "selector.get_worker_samples",
        lambda n, a, r: t.count(f"{n}.keys", len(r[0])),
    )
    method(Selector, "trigger", "selector.trigger")
    generator(
        PresamplingStrategy, "select",
        lambda self, *_: f"selector.presampling.{type(self).__name__}.select",
    )
    method(TriggerSampleStorage, "persist", "selector.trigger_sample_storage.persist")
    patches.patch(
        trainer_mod, "score_keys_spark",
        t.wrap(
            "selector.downsampling.score_keys_spark", trainer_mod.score_keys_spark,
            lambda n, a, r: t.count(f"{n}.keys", len(a[4])),
        ),
    )

    generator(OnlineDataset, "batches", "trainer.online_dataset.batches")
    method(
        trainer_mod.Trainer, "train", "trainer.train",
        lambda n, a, r: t.count(f"{n}.device_ms", 1e3 * r.num_batches * a[0].gpu_step_seconds),
    )
    method(trainer_mod.Trainer, "train_stb", "trainer.train_stb")
    for cls in (DlrmLite, SoftmaxRegression):
        method(cls, "sgd_step", "models.sgd_step")

    method(
        ModelStorage, "store", "model_storage.store",
        lambda n, a, r: t.count(f"{n}.bytes", r.nbytes),
    )
    method(ModelStorage, "load", "model_storage.load")
    method(
        Evaluator, "evaluate", "evaluator.evaluate",
        lambda n, a, r: t.count(f"{n}.samples", len(a[2])),
    )
    method(Supervisor, "process_batch", "supervisor.process_batch")
    method(Pipeline, "run_experiment", "core.pipeline.run_experiment")


def wrap_callable(tracer: Tracer, name: str, fn):
    """A parser or transform handed to ``OnlineDataset``, timed per call."""
    return None if fn is None else tracer.wrap(f"trainer.online_dataset.{name}", fn)


def metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric; the ones the workload measures itself
    (LocalDataset reference, per-policy trigger times and accuracies,
    ``trace.overhead_pct``) start at 0 and are overwritten there."""
    t = tracer
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            out.update(t.stats(name[: -len(".calls")]))
    for name in PER_LAYER:
        if name not in out and name in t.counters:
            out[name] = t.counters[name]

    total = dict.fromkeys(("calls", "busy_ms", "errors"), 0.0)
    for cls in _SELECT_CLASSES:
        prefix = f"selector.presampling.{cls}.select"
        stats = t.stats(prefix)
        out[f"{prefix}.busy_ms"] = stats[f"{prefix}.busy_ms"]
        for stat in total:
            total[stat] += stats[f"{prefix}.{stat}"]
    out.update({f"selector.presampling.select.{k}": v for k, v in total.items()})

    out["storage.lookup.overhead_ms"] = (
        out["storage.lookup.busy_ms"] - t.counters.get("storage.lookup.modeled_db_ms", 0.0)
    )
    first = t.samples.get("storage.retrieve_stream.first_buffer_ms", [])
    out["storage.retrieve_stream.first_buffer_ms_p50"] = _pct(first, 50)
    waits = [1e3 * (s[4] - s[3]) for s in t.named("trainer.online_dataset.batches")]
    out["trainer.online_dataset.batch_wait_ms.p50"] = _pct(waits, 50)
    out["trainer.online_dataset.batch_wait_ms.p90"] = _pct(waits, 90)
    train_ms = out["trainer.train.busy_ms"]
    out["trainer.online_dataset.batch_wait.share"] = sum(waits) / train_ms if train_ms else 0.0
    out["selector.trigger_sample_storage.persist.self_ms"] = t.self_ms(
        "selector.trigger_sample_storage.persist"
    )
    out["supervisor.process_batch.self_ms"] = t.self_ms("supervisor.process_batch")
    for name in PER_LAYER:
        out.setdefault(name, 0.0)
    return out


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0
