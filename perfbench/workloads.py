"""The three benchmark workloads and their end-to-end metrics.

``criteo_online``  memory-bound training over 160 B binary records (T2's
                   best config); the data path sets the pace.
``cloc_online``    compute-bound training over one-sample files with a
                   GIL-releasing decode; the simulated device sets the pace.
``selection_pipeline``  the §5.2 replay: year-by-year ingest, then the
                   full, uniform and gradnorm pipelines with evaluation;
                   Spark stages set the pace.

Every workload repeats Modyn's trigger cycle: ``Selector.trigger`` builds
the trigger training set, the ``Trainer`` trains on it and
``ModelStorage.store`` keeps the model. ``trigger_s`` is the mean time
from ``Selector.trigger`` entry to ``ModelStorage.store`` return; a mean,
not a median, because the selection workload mixes three policies whose
trigger times differ tenfold. A ``Probe`` times those calls and
records what each training delivered; after the timed phase every
training is checked. The workload seed reaches the program only through
``generate_criteo_files`` and ``generate_cloc_files``; the input files
are generated once per run and their generation is not part of
``setup_s``, which times the program's own set-up: Spark warm-up, and for
the training workloads ingest and trigger-set materialization.
"""
from __future__ import annotations

import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import layers
from spans import Patches, Tracer

#: end-to-end metric -> unit, as BENCHMARK.json lists them
END_TO_END = {
    "train_samples_per_s": "1/s",
    "epoch_loss": "loss",
    "trigger_s": "s",
    "setup_s": "s",
    "driver_peak_rss_mb": "MB",
}

POLICIES = ("full", "uniform", "gradnorm")


@dataclass(frozen=True)
class Sizes:
    criteo_samples: int = 120_000
    criteo_per_file: int = 20_000
    criteo_partition: int = 30_000
    cloc_samples: int = 2_000
    cloc_partition: int = 500
    per_year: int = 200
    setups: int = 3  # set-up repetitions; setup_s is their median


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    report: dict[str, float] = field(default_factory=dict)  # printed, not gated
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass
class Training:
    result: object  # TrainResult
    dataset: object
    epochs: int
    keys: list  # batch keys in delivery order (OnlineDataset trainings)
    stb_keys: np.ndarray | None = None
    ratio: float = 0.0


class Probe(Patches):
    """Light always-on hooks: trigger latency, ingest rate, delivered keys.

    A trigger's latency runs from ``Selector.trigger`` entry to the return
    of the next ``ModelStorage.store`` (trigger cycles run one at a time).
    """

    def __init__(self) -> None:
        super().__init__()
        self.triggers: list[tuple[str, float]] = []  # (pipeline id, s)
        self.ingests: list[tuple[int, float]] = []  # (samples, s)
        self.trainings: list[Training] = []
        self.evaluations = 0
        self._started: tuple[str, float] | None = None
        self._local = threading.local()

    def install(self) -> None:
        import repro.trainer.trainer as trainer_mod
        from repro.evaluator.evaluator import Evaluator
        from repro.model_storage.model_storage import ModelStorage
        from repro.selector.selector import Selector
        from repro.storage.storage import Storage
        from repro.trainer.online_dataset import OnlineDataset

        probe = self
        trigger, store = Selector.trigger, ModelStorage.store
        ingest, batches = Storage.ingest_files, OnlineDataset.batches
        train, train_stb = trainer_mod.Trainer.train, trainer_mod.Trainer.train_stb
        evaluate = Evaluator.evaluate

        def on_trigger(selector):
            probe._started = (selector.pipeline_id, time.perf_counter())
            return trigger(selector)

        def on_store(storage, *args, **kwargs):
            info = store(storage, *args, **kwargs)
            if probe._started is not None:
                pid, t0 = probe._started
                probe.triggers.append((pid, time.perf_counter() - t0))
                probe._started = None
            return info

        def on_ingest(storage, paths, **kwargs):
            t0 = time.perf_counter()
            keys = ingest(storage, paths, **kwargs)
            probe.ingests.append((len(keys), time.perf_counter() - t0))
            return keys

        def on_batches(dataset):
            sink = getattr(probe._local, "keys", None)
            for batch in batches(dataset):
                if sink is not None:
                    sink.append(batch.keys)
                yield batch

        def on_train(trainer, dataset):
            if getattr(probe._local, "in_stb", False):
                return train(trainer, dataset)
            probe._local.keys = keys = []
            try:
                result = train(trainer, dataset)
            finally:
                probe._local.keys = None
            probe.trainings.append(Training(result, dataset, trainer.epochs, keys))
            return result

        def on_train_stb(trainer, storage, keys, weights, **kwargs):
            probe._local.in_stb = True
            try:
                result = train_stb(trainer, storage, keys, weights, **kwargs)
            finally:
                probe._local.in_stb = False
            probe.trainings.append(
                Training(result, None, trainer.epochs, [], np.asarray(keys),
                         trainer.downsampler.ratio)
            )
            return result

        def on_evaluate(evaluator, *args, **kwargs):
            probe.evaluations += 1
            return evaluate(evaluator, *args, **kwargs)

        self.patch(Selector, "trigger", on_trigger)
        self.patch(ModelStorage, "store", on_store)
        self.patch(Storage, "ingest_files", on_ingest)
        self.patch(OnlineDataset, "batches", on_batches)
        self.patch(trainer_mod.Trainer, "train", on_train)
        self.patch(trainer_mod.Trainer, "train_stb", on_train_stb)
        self.patch(Evaluator, "evaluate", on_evaluate)

    def verify(self, out: Result, trainings: list[Training]) -> None:
        """Each OnlineDataset training delivered its trigger set exactly
        once per epoch; each StB training trained on its sampled share."""
        from repro.trainer.online_dataset import OnlineDataset

        for tr in trainings:
            res = tr.result
            if isinstance(tr.dataset, OnlineDataset):
                expected, _ = tr.dataset.selector.get_all_samples(tr.dataset.trigger_id)
                got = np.concatenate(tr.keys) if tr.keys else np.empty(0, np.int64)
                want = np.sort(np.tile(expected, tr.epochs))
                out.check(
                    res.num_samples == len(got) == len(want)
                    and np.array_equal(np.sort(got), want),
                    f"trigger {tr.dataset.trigger_id}: delivered keys differ from the trigger set",
                )
            elif tr.stb_keys is not None:
                n = len(tr.stb_keys)
                out.check(
                    res.num_samples == n
                    and res.num_trained_samples == tr.epochs * max(1, round(n * tr.ratio)),
                    f"StB training on {n} keys trained on {res.num_trained_samples}",
                )


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_fidelity(out: Result) -> dict:
    import env

    record = env.fidelity_record()
    bad = env.fidelity_violations(record)
    out.check(not bad, "fidelity contract overridden: " + ", ".join(bad))
    return record


# ------------------------------------------------------------- throughput
@dataclass
class _Online:
    storage: object
    selector: object
    files: list
    n_samples: int
    parser: object
    transform: object
    batch_size: int
    gpu_step_seconds: float
    config: object  # OnlineDatasetConfig
    make_model: object


def _generate_online(kind: str, root: str, seed: int, sizes: Sizes):
    """The workload's input files: (paths, timestamps)."""
    from repro.synth_data import generate_cloc_files, generate_criteo_files

    if kind == "criteo_online":
        return generate_criteo_files(
            root, n_samples=sizes.criteo_samples,
            samples_per_file=sizes.criteo_per_file, seed=seed,
        )
    return generate_cloc_files(
        root, per_year=sizes.cloc_samples, years=(2004,), n_classes=32, dim=16, seed=seed,
    )


def _setup_online(kind: str, spark, root: str, files, sizes: Sizes) -> _Online:
    """Warm Spark up, ingest the input files into a new storage, announce
    them and build one trigger set."""
    from repro.experiments import throughput as tp
    from repro.models import DlrmLite, SoftmaxRegression
    from repro.selector.metadata_backend import LocalMetadataBackend
    from repro.selector.presampling import NewDataStrategy
    from repro.selector.selector import Selector
    from repro.selector.trigger_sample_storage import TriggerSampleStorage
    from repro.storage.file_wrappers import BinaryFileWrapper, SingleSampleFileWrapper
    from repro.storage.storage import Storage
    from repro.synth_data import CRITEO_DTYPE, cloc_batch_parser, criteo_batch_parser
    from repro.trainer.online_dataset import OnlineDatasetConfig

    _warm_up_jvm(spark, root)
    paths, stamps = files
    if kind == "criteo_online":
        n, partition = sizes.criteo_samples, sizes.criteo_partition
        wrapper = BinaryFileWrapper(CRITEO_DTYPE)
        parser, transform = criteo_batch_parser, None
        batch_size, gpu = tp.CRITEO_BATCH, tp.CRITEO_GPU_SECONDS
        make_model = lambda: DlrmLite(seed=0)  # noqa: E731
        config = OnlineDatasetConfig(
            batch_size=batch_size, num_workers=4, prefetched_partitions=2,
            parallel_prefetch_requests=1, storage_threads=2,
        )
    else:
        n, partition = sizes.cloc_samples, sizes.cloc_partition
        wrapper = SingleSampleFileWrapper()
        parser = cloc_batch_parser
        transform = tp.make_decode_transform(tp.CLOC_DECODE_BYTES_PER_SAMPLE)
        batch_size, gpu = tp.CLOC_BATCH, tp.CLOC_GPU_SECONDS
        make_model = lambda: SoftmaxRegression(dim=16, n_classes=32, seed=0)  # noqa: E731
        config = OnlineDatasetConfig(
            batch_size=batch_size, num_workers=4, prefetched_partitions=2,
            parallel_prefetch_requests=1, storage_threads=1,
        )
    storage = Storage(spark, os.path.join(root, "storage"), wrapper)
    keys = storage.ingest_files(paths, timestamps=stamps)
    # reset_after_trigger=False: every trigger selects all data seen so
    # far, so each measured trigger rebuilds the same trigger set
    strategy = NewDataStrategy(
        LocalMetadataBackend(os.path.join(root, "meta")),
        reset_after_trigger=False, partition_size=partition,
    )
    selector = Selector(kind, strategy, TriggerSampleStorage(os.path.join(root, "tss")))
    selector.inform_data(keys, np.zeros(len(keys)), np.zeros(len(keys)))
    selector.trigger()
    return _Online(
        storage, selector, paths, n, parser, transform, batch_size, gpu, config, make_model
    )


def _trigger_cycle(w: _Online, models, tracer: Tracer | None):
    """One trigger: build the trigger set, train one epoch, store the model."""
    from repro.trainer.online_dataset import OnlineDataset
    from repro.trainer.trainer import Trainer

    info = w.selector.trigger()
    parser, transform = w.parser, w.transform
    if tracer is not None:
        parser = layers.wrap_callable(tracer, "parse", parser)
        transform = layers.wrap_callable(tracer, "transform", transform)
    dataset = OnlineDataset(
        w.storage, w.selector, info.trigger_id, w.config,
        batch_bytes_parser=parser, transform=transform,
    )
    model = w.make_model()
    result = Trainer(
        model, lr=0.05, epochs=1, gpu_step_seconds=w.gpu_step_seconds
    ).train(dataset)
    models.store(info.trigger_id, model.get_state())
    return result


def _local_reference(w: _Online) -> float:
    """Samples/s of the local sequential reader on the same files (Fig. 8)."""
    from repro.storage.local_dataset import LocalDataset
    from repro.trainer.online_dataset import Batch
    from repro.trainer.trainer import Trainer

    class _Adapter:
        def batches(self):
            inner = LocalDataset(
                w.files, w.storage.file_wrapper, batch_size=w.batch_size,
                num_workers=w.config.num_workers,
                batch_bytes_parser=w.parser, transform=w.transform,
            )
            for payloads, labels in inner.batches():
                n = len(labels)
                yield Batch(payloads, labels, np.ones(n), np.arange(n))

    result = Trainer(
        w.make_model(), lr=0.05, epochs=1, gpu_step_seconds=w.gpu_step_seconds
    ).train(_Adapter())
    return result.throughput


def run_online(kind, spark, seed, seconds, trace, sizes, work, probe) -> Result:
    from repro.model_storage.model_storage import ModelStorage

    out = Result()
    out.report["fidelity"] = _check_fidelity(out)
    t0 = time.perf_counter()
    files = _generate_online(kind, os.path.join(work, "data"), seed, sizes)
    out.report["generate_s"] = time.perf_counter() - t0
    setup_s = []
    for k in range(sizes.setups):
        t0 = time.perf_counter()
        w = _setup_online(kind, spark, os.path.join(work, f"setup{k}"), files, sizes)
        setup_s.append(time.perf_counter() - t0)
    ingested = sum(n for n, _ in probe.ingests) / sum(s for _, s in probe.ingests)

    models = ModelStorage(os.path.join(work, "models"))
    tracer = Tracer() if trace else None
    plain, traced = [], []  # (TrainResult, trigger seconds)
    t_start = time.perf_counter()
    deadline = t_start + seconds
    cycle = 0
    while cycle < 2 or time.perf_counter() < deadline:
        # traced runs alternate plain and traced cycles, so the tracing
        # overhead is measured under the same conditions
        use_tracer = tracer is not None and cycle % 2 == 1
        patches = Patches()
        if use_tracer:
            layers.install(tracer, patches)
        try:
            result = _trigger_cycle(w, models, tracer if use_tracer else None)
        finally:
            patches.restore()
        out.check(len(probe.triggers) == cycle + 1, f"trigger {cycle} was not timed")
        (traced if use_tracer else plain).append((result, probe.triggers[-1][1]))
        cycle += 1
    loop_s = time.perf_counter() - t_start
    probe.verify(out, probe.trainings)

    tput = [r.throughput for r, _ in plain]
    out.metrics = {
        "train_samples_per_s": _median(tput),
        "epoch_loss": _median([r.epoch_losses[-1] for r, _ in plain]),
        "trigger_s": float(np.mean([s for _, s in plain])),
        "setup_s": _median(setup_s),
        "driver_peak_rss_mb": _peak_rss_mb(),
    }
    out.report.update(
        trainings=len(plain) + len(traced),
        trigger_set_samples=w.n_samples,
        trigger_s_full=_median([s for _, s in plain]),
        wall_per_trigger_s=loop_s / cycle,
        ingest_samples_per_s=ingested,
    )
    if tracer is not None:
        per_layer = layers.metrics(tracer)
        per_layer["core.pipeline.trigger_s_full"] = out.report["trigger_s_full"]
        traced_tput = _median([r.throughput for r, _ in traced])
        per_layer["trace.overhead_pct"] = 100.0 * (1.0 - traced_tput / _median(tput))
        local = _local_reference(w)
        out.check(local > 0, "local reference trained on nothing")
        per_layer["storage.local_dataset.samples_per_s"] = local
        per_layer["storage.local_dataset.modyn_pct_of_local"] = (
            100.0 * _median(tput) / local if local else 0.0
        )
        out.metrics = per_layer
        out.tracer = tracer
    return out


# -------------------------------------------------------------- selection
def _warm_up_jvm(spark, root: str):
    """The JVM's first jobs: a Parquet append, a scan, a join and a sort."""
    import pandas as pd

    df = spark.createDataFrame(pd.DataFrame({"k": np.arange(1000), "v": np.arange(1000)}))
    df.coalesce(1).write.mode("append").parquet(os.path.join(root, "warm"))
    back = spark.read.parquet(os.path.join(root, "warm"))
    back.join(df.select("k"), "k").orderBy("v").toPandas()
    return df


def _warm_up(spark, root: str) -> None:
    """First JVM jobs and a start of Spark's Python workers."""

    def _identity(batches):
        yield from batches

    df = _warm_up_jvm(spark, root)
    n = len(os.sched_getaffinity(0))
    df.repartition(n).mapInPandas(_identity, "k long, v long").toPandas()


def _year_accuracy(model, paths, years) -> dict[int, float]:
    """Accuracy of ``model`` per year, read straight from the sample files."""
    out = {}
    paths = np.asarray(paths)
    years = np.asarray(years)
    for year in np.unique(years):
        chosen = paths[years == year]
        X = np.stack([np.fromfile(p, dtype="<f4") for p in chosen]).astype(np.float64)
        y = np.asarray([int(open(p + ".label").read()) for p in chosen])
        out[int(year)] = float(np.mean(np.argmax(model.forward(X), axis=1) == y))
    return out


def _selection_round(spark, root, files, sizes, probe, out, rnd):
    """Ingest year by year, then run the three pipelines. Returns
    (pipeline seconds, final accuracy per policy, the round's trainings)."""
    from repro.experiments.selection import run_one_pipeline, year_matrix
    from repro.models import SoftmaxRegression
    from repro.storage.file_wrappers import SingleSampleFileWrapper
    from repro.storage.storage import Storage

    paths, years = files
    storage = Storage(spark, os.path.join(root, f"storage{rnd}"), SingleSampleFileWrapper())
    by_year: dict[int, list[str]] = {}
    for p, y in zip(paths, years):
        by_year.setdefault(y, []).append(p)
    for year, chosen in sorted(by_year.items()):
        keys = storage.ingest_files(chosen, timestamps=[year] * len(chosen))
        out.check(len(keys) == len(chosen), f"ingest {year}: {len(keys)} keys")
    seconds, accuracy = 0.0, {}
    first_training = len(probe.trainings)
    for name in POLICIES:
        t0 = time.perf_counter()
        res = run_one_pipeline(
            spark, storage, os.path.join(root, f"round{rnd}"), name, per_year=sizes.per_year
        )
        seconds += time.perf_counter() - t0
        out.check(res.num_triggers == len(by_year), f"{name}: {res.num_triggers} triggers")
        for info in res.trigger_infos:
            seen = len(res.seen_keys[info.trigger_id])
            want = round(seen * 0.5) if name == "uniform" else seen
            out.check(info.num_samples == want,
                      f"{name} trigger {info.trigger_id}: {info.num_samples} of {seen} selected")
        final = year_matrix(res).loc[max(by_year)]
        accuracy[name] = float(np.mean(final))
        model = SoftmaxRegression(dim=16, n_classes=32, seed=0)
        model.set_state(res.model_storage.load(res.trigger_infos[-1].trigger_id))
        direct = _year_accuracy(model, paths, years)
        out.check(
            all(abs(direct[y] - final[y]) < 1e-12 for y in by_year),
            f"{name}: evaluator accuracy differs from a direct recount",
        )
    return seconds, accuracy, probe.trainings[first_training:]


def run_selection(spark, seed, seconds, trace, sizes, work, probe) -> Result:
    from repro.synth_data import generate_cloc_files

    out = Result()
    out.report["fidelity"] = _check_fidelity(out)
    t0 = time.perf_counter()
    files = generate_cloc_files(
        os.path.join(work, "data"), per_year=sizes.per_year, n_classes=32, dim=16, seed=seed,
    )
    out.report["generate_s"] = time.perf_counter() - t0
    setup_s = []
    for k in range(sizes.setups):
        t0 = time.perf_counter()
        _warm_up(spark, os.path.join(work, f"setup{k}"))
        setup_s.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    rounds = []  # (traced, seconds, accuracies, trainings, triggers, ingests)
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds or (
        tracer is not None and len(rounds) < 2
    ):
        use_tracer = tracer is not None and len(rounds) % 2 == 1
        n_trig, n_ing = len(probe.triggers), len(probe.ingests)
        patches = Patches()
        if use_tracer:
            layers.install(tracer, patches)
        try:
            secs, acc, trainings = _selection_round(
                spark, work, files, sizes, probe, out, len(rounds)
            )
        finally:
            patches.restore()
        probe.verify(out, trainings)
        rounds.append((use_tracer, secs, acc, trainings,
                       probe.triggers[n_trig:], probe.ingests[n_ing:]))
    for r in rounds[1:]:
        out.check(r[2] == rounds[0][2], "final accuracies differ between rounds")
    plain = [r for r in rounds if not r[0]] or rounds

    def tput(rs):
        # one OnlineDataset training lasts 40-100 ms here, too short for a
        # steady per-training median: pool them (the StB trainings are
        # left out, their time is Spark scoring)
        tr = [t.result for r in rs for t in r[3] if t.stb_keys is None]
        return sum(t.num_samples for t in tr) / sum(t.wall_time_s for t in tr)

    triggers = [s for r in plain for _, s in r[4]]
    ingests = [i for r in plain for i in r[5]]
    out.metrics = {
        "train_samples_per_s": tput(plain),
        "epoch_loss": float(np.mean([t.result.epoch_losses[-1] for r in plain for t in r[3]])),
        "trigger_s": float(np.mean(triggers)),
        "setup_s": _median(setup_s),
        "driver_peak_rss_mb": _peak_rss_mb(),
    }
    out.report["pipeline_wall_s"] = _median([r[1] for r in plain])
    out.report["wall_per_trigger_s"] = sum(r[1] for r in plain) / len(triggers)
    out.report["ingest_samples_per_s"] = (
        sum(n for n, _ in ingests) / sum(s for _, s in ingests)
    )
    out.report["triggers_per_pipeline"] = len(triggers) // (len(plain) * len(POLICIES))
    for name in POLICIES:
        pid = f"cloc_{name}"
        out.report[f"trigger_s_{name}"] = _median(
            [s for r in plain for p, s in r[4] if p == pid]
        )
        out.report[f"mean_final_accuracy_{name}"] = plain[0][2][name]
    out.report["evaluations"] = probe.evaluations
    if tracer is not None:
        per_layer = layers.metrics(tracer)
        for name in POLICIES:
            per_layer[f"core.pipeline.trigger_s_{name}"] = out.report[f"trigger_s_{name}"]
            per_layer[f"evaluator.mean_final_accuracy_{name}"] = (
                out.report[f"mean_final_accuracy_{name}"]
            )
        traced_rounds = [r for r in rounds if r[0]]
        per_layer["trace.overhead_pct"] = 100.0 * (1.0 - tput(traced_rounds) / tput(plain))
        out.metrics = per_layer
        out.tracer = tracer
    return out


WORKLOADS = ("criteo_online", "cloc_online", "selection_pipeline")


def run(name, spark, seed, seconds, trace, sizes, work) -> Result:
    probe = Probe()
    probe.install()
    try:
        if name == "selection_pipeline":
            return run_selection(spark, seed, seconds, trace, sizes, work, probe)
        return run_online(name, spark, seed, seconds, trace, sizes, work, probe)
    finally:
        probe.restore()
