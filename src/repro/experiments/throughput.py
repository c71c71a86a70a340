"""Training-throughput experiments (paper §5.1, Figures 7 & 8; T1-T3).

Measures end-to-end training throughput of the Modyn data path
(selector -> TriggerSampleStorage -> storage -> OnlineDataset -> trainer)
while sweeping the five §5.1 knobs, and compares against the local
sequential-read baseline that has no sample-level selection.

Each workload is described once, in ``WORKLOADS``: how its files are
generated, stored, parsed and trained on, and its T2/T3 settings.
``build_workload`` generates and ingests one; ``WorkloadSetup.trigger_set``
materializes the trigger set a measurement trains on.

The "GPU" is simulated by a fixed per-batch device time
(``gpu_step_seconds``) on top of the real numpy model update; the paper
does not synchronize CUDA, so device time overlaps data fetching there —
here the sleep provides the same overlap target for the prefetchers.
Criteo-lite uses a small device time (memory-bound workload); cloc-lite
a large one (compute-bound), which is what makes its throughput saturate
with ≥4 workers as in Figure 8b.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.models import DlrmLite, SoftmaxRegression
from repro.selector.metadata_backend import LocalMetadataBackend
from repro.selector.presampling import NewDataStrategy
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.storage.file_wrappers import BinaryFileWrapper, FileWrapper, SingleSampleFileWrapper
from repro.storage.local_dataset import LocalDataset
from repro.storage.storage import Storage
from repro.synth_data import (
    CRITEO_DTYPE,
    cloc_batch_parser,
    criteo_batch_parser,
    generate_cloc_files,
    generate_criteo_files,
)
from repro.trainer.online_dataset import Batch, OnlineDataset, OnlineDatasetConfig
from repro.trainer.trainer import Trainer

# The throughput experiments run ~40 threads (workers, prefetchers,
# storage pool, consumer); CPython's default 5 ms GIL switch interval
# makes every thread wake-up pay up to 5 ms of convoy latency, which
# would swamp the millisecond-scale effects being measured. 0.5 ms keeps
# handoffs cheap without measurable single-thread cost.
sys.setswitchinterval(0.0005)

# Device-time defaults, calibrated so criteo-lite is memory-bound (fetch
# is the bottleneck) and cloc-lite is compute-bound (the device is).
CRITEO_BATCH = 4096
CRITEO_GPU_SECONDS = 0.020
CLOC_BATCH = 256
CLOC_GPU_SECONDS = 0.12
#: simulated per-sample decode+augmentation CPU cost for cloc-lite; the
#: paper's CLOC workers JPEG-decode and augment each image (~ms each),
#: which is why its throughput rises until ~4 workers then stagnates.
CLOC_DECODE_BYTES_PER_SAMPLE = 1_800_000

# Hash a 1 MB chunk repeatedly: long enough that each call releases the
# GIL for ~1 ms (few handoffs), small enough to stay cache-friendly —
# measured to scale ~9x across 16 threads on this box.
_DECODE_CHUNK = b"\xa5" * 1_048_576


def make_decode_transform(bytes_per_sample: int):
    """A batch transform burning real, GIL-releasing CPU per sample.

    ``hashlib.sha256`` releases the GIL for large buffers, so this cost
    parallelizes across dataloader workers exactly like the paper's
    image decode + augmentations do across DataLoader processes.
    """
    import hashlib

    repeats = max(1, round(bytes_per_sample / len(_DECODE_CHUNK)))

    def transform(arr: np.ndarray) -> np.ndarray:
        for _ in range(len(arr) * repeats):
            hashlib.sha256(_DECODE_CHUNK).digest()
        return arr

    return transform


@dataclasses.dataclass(frozen=True)
class Workload:
    """How one workload's samples are stored, read and trained on."""

    wrapper: FileWrapper
    #: (directory, n_samples) -> (payload files, their timestamps)
    generate: Callable[[str, int], tuple[list[str], list[int]]]
    batch_parser: Callable  # vectorized buffer-level parser (hot path)
    transform: Callable | None  # per-batch worker-side transform (decode sim)
    batch_size: int
    gpu_step_seconds: float
    make_model: Callable
    #: T2/T3 (Fig. 8): the trigger set's partition size and the best
    #: Modyn config, as ``measure_modyn`` keywords
    partition_size: int
    modyn_config: dict


WORKLOADS = {
    "criteo": Workload(
        BinaryFileWrapper(CRITEO_DTYPE),
        lambda d, n: generate_criteo_files(d, n_samples=n, samples_per_file=20_000),
        criteo_batch_parser,
        None,
        CRITEO_BATCH,
        CRITEO_GPU_SECONDS,
        functools.partial(DlrmLite, seed=0),
        partition_size=30_000,
        modyn_config=dict(prefetched_partitions=2, parallel_prefetch=1, storage_threads=2),
    ),
    # one sample per file (+ label sidecar)
    "cloc": Workload(
        SingleSampleFileWrapper(),
        lambda d, n: generate_cloc_files(d, per_year=n, years=(2004,), n_classes=32, dim=16),
        cloc_batch_parser,
        make_decode_transform(CLOC_DECODE_BYTES_PER_SAMPLE),
        CLOC_BATCH,
        CLOC_GPU_SECONDS,
        functools.partial(SoftmaxRegression, dim=16, n_classes=32, seed=0),
        partition_size=1500,
        modyn_config=dict(prefetched_partitions=2, parallel_prefetch=1, storage_threads=1),
    ),
}


@dataclasses.dataclass(frozen=True)
class WorkloadSetup:
    """One ingested workload and, once ``trigger_set`` made it, the
    selector holding its one trigger set (trigger 0)."""

    workload: Workload
    root: str
    storage: Storage
    files: list[str]  # payload files, for the local baseline
    keys: np.ndarray
    selector: Selector | None = None

    def trigger_set(self, partition_size: int) -> WorkloadSetup:
        """This setup with a trigger set over all of its samples, in
        partitions of ``partition_size``; the storage is shared."""
        tag = f"p{partition_size}"
        strategy = NewDataStrategy(
            LocalMetadataBackend(os.path.join(self.root, f"meta_{tag}")),
            reset_after_trigger=False,
            partition_size=partition_size,
        )
        selector = Selector(
            f"bench_{tag}", strategy, TriggerSampleStorage(os.path.join(self.root, f"tss_{tag}"))
        )
        n = len(self.keys)
        selector.inform_data(self.keys, np.zeros(n), np.zeros(n))
        selector.trigger()
        return dataclasses.replace(self, selector=selector)


def build_workload(spark: SparkSession, root: str, name: str, *, n_samples: int) -> WorkloadSetup:
    """Generate ``n_samples`` of workload ``name`` under the fresh
    directory ``root`` and ingest them into a new storage."""
    workload = WORKLOADS[name]
    paths, stamps = workload.generate(os.path.join(root, "data"), n_samples)
    storage = Storage(spark, os.path.join(root, "storage"), workload.wrapper)
    keys = storage.ingest_files(paths, timestamps=stamps)
    return WorkloadSetup(workload, root, storage, paths, keys)


# ------------------------------------------------------------ measurements
def _train(setup: WorkloadSetup, dataset) -> float:
    """Train a fresh model for one epoch over ``dataset``; samples/s."""
    trainer = Trainer(
        setup.workload.make_model(), lr=0.05, epochs=1,
        gpu_step_seconds=setup.workload.gpu_step_seconds,
    )
    result = trainer.train(dataset)
    assert result.num_samples == len(setup.keys)
    return result.throughput


def measure_modyn(
    setup: WorkloadSetup,
    *,
    workers: int,
    prefetched_partitions: int,
    parallel_prefetch: int,
    storage_threads: int,
) -> float:
    """End-to-end Modyn training throughput (samples/s) for one config."""
    workload = setup.workload
    dataset = OnlineDataset(
        setup.storage,
        setup.selector,
        0,
        OnlineDatasetConfig(
            batch_size=workload.batch_size,
            num_workers=workers,
            prefetched_partitions=prefetched_partitions,
            parallel_prefetch_requests=parallel_prefetch,
            storage_threads=storage_threads,
        ),
        batch_bytes_parser=workload.batch_parser,
        transform=workload.transform,
    )
    return _train(setup, dataset)


def measure_local(setup: WorkloadSetup, *, workers: int) -> float:
    """Baseline throughput: sequential whole-file reads, no selection."""
    workload = setup.workload

    class _Adapter:
        """LocalDataset -> trainer Batch adapter (same training loop)."""

        def batches(self):
            inner = LocalDataset(
                setup.files,
                workload.wrapper,
                batch_size=workload.batch_size,
                num_workers=workers,
                batch_bytes_parser=workload.batch_parser,
                transform=workload.transform,
            )
            for payloads, labels in inner.batches():
                n = len(labels)
                yield Batch(payloads, labels, np.ones(n), np.arange(n))

    return _train(setup, _Adapter())


# -------------------------------------------------------------- the tables
#: (prefetched partitions, parallel prefetch requests) columns of Fig. 7;
#: (0, -) is "no prefetching".
PREFETCH_CONFIGS = ((0, 1), (1, 1), (2, 1), (6, 1), (6, 2))


def criteo_grid(
    spark: SparkSession,
    root: str,
    *,
    n_samples: int = 120_000,
    partition_sizes: tuple[int, ...] = (6_000, 30_000),
    workers: tuple[int, ...] = (1, 4, 8, 16),
    storage_threads: tuple[int, ...] = (1, 2, 8),
    prefetch_configs=PREFETCH_CONFIGS,
) -> pd.DataFrame:
    """T1 (Fig. 7): the full Criteo throughput sweep as a tidy table."""
    base = build_workload(spark, root, "criteo", n_samples=n_samples)
    rows = []
    for ps in partition_sizes:
        setup = base.trigger_set(ps)
        for st, w, (pf, par) in itertools.product(storage_threads, workers, prefetch_configs):
            tput = measure_modyn(
                setup, workers=w, prefetched_partitions=pf, parallel_prefetch=par,
                storage_threads=st,
            )
            rows.append(
                {
                    "partition_size": ps,
                    "storage_threads": st,
                    "workers": w,
                    "prefetched_partitions": pf,
                    "parallel_prefetch": par,
                    "throughput": tput,
                }
            )
    return pd.DataFrame(rows)


def local_vs_modyn(
    spark: SparkSession,
    root: str,
    *,
    workload: str = "criteo",
    n_samples: int = 120_000,
    workers: tuple[int, ...] = (1, 4, 8, 16),
) -> pd.DataFrame:
    """T2/T3 (Fig. 8): best Modyn config vs the local baseline per worker count."""
    setup = build_workload(spark, root, workload, n_samples=n_samples)
    setup = setup.trigger_set(setup.workload.partition_size)
    rows = []
    for w in workers:
        modyn = measure_modyn(setup, workers=w, **setup.workload.modyn_config)
        local = measure_local(setup, workers=w)
        rows.append(
            {
                "workers": w,
                "modyn_throughput": modyn,
                "local_throughput": local,
                "pct_of_local": 100.0 * modyn / local,
            }
        )
    return pd.DataFrame(rows)
