"""Downsampling policies (paper §4.1.2 "Presampling and downsampling").

Downsamplers need the model forward pass: they score every candidate
sample with an importance proxy (loss, or last-layer gradient norm as in
DLIS [Katharopoulos & Fleuret '18]) and then sample a subset with
probability proportional to the score, attaching importance weights
``1/(m * p_i)`` so the weighted gradient stays unbiased.

Two execution modes, as in the paper (§4.1.2):

- *sample-then-batch* (StB): score the whole trigger training set first
  (here: one Spark job, a registry scan feeding a ``mapInPandas`` stage
  that keeps the requested keys and reads payloads on executors), then
  train on the downsampled set;
- *batch-then-sample* (BtS): score each incoming batch and keep a
  fraction of it.

The policy implements only ``scores``; both modes reuse it — the paper's
"engineers just have to implement one version".
"""
from __future__ import annotations

import os
import sys
import zipimport
from abc import ABC, abstractmethod

import numpy as np
import pandas as pd

from repro.core.registry import DOWNSAMPLERS
from repro.models.base import Model
from repro.storage.file_wrappers import file_runs
from repro.storage.storage import Storage


class Downsampler(ABC):
    """Scores samples for importance sampling; ``ratio`` is kept fraction."""

    def __init__(self, *, ratio: float = 0.5) -> None:
        if not 0 < ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = float(ratio)

    @abstractmethod
    def scores(self, model: Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Non-negative importance score per sample."""

    def sample(
        self, scores: np.ndarray, *, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(indices, importance weights) of the kept subset.

        Samples *with* replacement with probability proportional to the
        scores (as DLIS / PyTorch's WeightedRandomSampler do); the weight
        ``1/(N * p_i)`` makes the subset mean an unbiased estimator of
        the full-set mean, so the weighted gradient is unbiased too.
        """
        n = len(scores)
        if n == 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        m = max(1, int(round(n * self.ratio)))
        s = np.clip(np.asarray(scores, np.float64), 0, None) + 1e-12
        p = s / s.sum()
        idx = rng.choice(n, size=m, replace=True, p=p)
        weights = 1.0 / (n * p[idx])
        return idx, weights


@DOWNSAMPLERS.register("GradNormDownsampler")
class GradNormDownsampler(Downsampler):
    """DLIS: importance = last-layer gradient norm."""

    def scores(self, model, X, y):
        return model.per_sample_grad_norm(X, y)


@DOWNSAMPLERS.register("LossDownsampler")
class LossDownsampler(Downsampler):
    """Importance = per-sample loss."""

    def scores(self, model, X, y):
        return model.per_sample_loss(X, y)


@DOWNSAMPLERS.register("UniformDownsampler")
class UniformDownsampler(Downsampler):
    """Uniform scores — random downsampling through the same machinery."""

    def scores(self, model, X, y):
        return np.ones(len(y))


def _archive_stamp(archive: str) -> tuple[int, int] | None:
    """``(st_mtime_ns, st_size)`` of ``archive``, or None if it is gone."""
    try:
        st = os.stat(archive)
    except OSError:
        return None
    return st.st_mtime_ns, st.st_size


class _SettledZipImporter(zipimport.zipimporter):
    """A ``zipimporter`` that re-reads its archive's directory in
    ``invalidate_caches()`` only when the archive's ``(st_mtime_ns,
    st_size)`` changed since the last read (a missing archive counts as
    changed, so a deleted or re-added one behaves as with the plain
    importer). It starts from the directory it is built with."""

    def __init__(self, path):
        super().__init__(path)
        self._stamp = _archive_stamp(self.archive)

    def invalidate_caches(self):
        stamp = _archive_stamp(self.archive)  # before the read: a racing write re-reads next time
        if stamp is None or stamp != self._stamp:
            super().invalidate_caches()
            self._stamp = stamp


def settle_zip_importers() -> None:
    """Make ``importlib.invalidate_caches()`` skip unchanged zip archives.

    Spark's Python worker calls ``importlib.invalidate_caches()`` before
    every task, and on Python 3.10–3.12 each ``zipimporter`` re-reads its
    archive's whole central directory there: a worker importing from
    ``pyspark.zip``, the py4j zip and the spark-core jar holds 16 of them,
    140–260 ms per task on a 4-core machine. This swaps every plain
    ``zipimporter`` in ``sys.path_importer_cache`` for one that re-reads
    only a changed archive (each keeps the directory already cached,
    which the worker re-read at the start of the running task), and
    installs that class in ``sys.path_hooks`` so zip entries added later
    behave the same. Idempotent and cheap once done; call it inside a
    Spark task.
    """
    sys.path_hooks[:] = [
        _SettledZipImporter if hook is zipimport.zipimporter else hook
        for hook in sys.path_hooks
    ]
    for entry, finder in list(sys.path_importer_cache.items()):
        if type(finder) is zipimport.zipimporter:
            try:
                sys.path_importer_cache[entry] = _SettledZipImporter(entry)
            except zipimport.ZipImportError:
                pass  # archive gone: the plain importer keeps behaving as before


def score_keys_spark(
    storage: Storage,
    model: Model,
    downsampler: Downsampler,
    batch_bytes_parser,
    keys: np.ndarray,
    *,
    parallelism: int = 8,
) -> pd.DataFrame:
    """Distributed StB scoring pass: (sample_key, score) per distinct key.

    One Spark plan, one Spark job: a scan of just the registry files of
    the ingests holding the keys (``Storage.registry_df(keys)``; no key
    filter in the plan, so its generated code is compiled once, not once
    per trigger), coalesced to at most
    ``parallelism`` tasks (narrow, no shuffle), then the model forward
    pass inside ``mapInPandas`` on the executors, collected once — no
    metadata round trip through the driver. The sorted distinct keys
    and the ``file_id -> path`` map of just their files travel in the
    task closure, so it grows with the trigger set, not with the
    storage (Spark broadcasts large closures itself); each Arrow batch
    keeps only the requested rows (``searchsorted``) before reading any
    payload, reads them with one ``get_samples_of_files`` call, parses
    them with one ``batch_bytes_parser`` call and scores them with one
    ``scores`` call. This reproduces "the training loop continuously
    informs the downsampler about the forward pass" at trigger-set
    scale, expressed as a Spark dataflow stage.

    Each task first runs ``settle_zip_importers``: Spark's Python worker
    re-reads 16 zip directories before every task (140–260 ms on Python
    3.11), and after it a reused worker skips them, so only a worker's
    first scoring task pays them.

    Traffic: a key set that is whole ingests (every trigger set the
    benchmarks build: one year's ingest) sends exactly the requested
    rows to Python. Otherwise the other rows of the ingests it touches
    travel too, as 32-byte metadata rows, small next to the payload
    reads.

    Returns one row per distinct key, in no particular order. Raises
    ``KeyError`` for keys the storage does not hold, before any Spark
    job runs.
    """
    want = np.unique(np.asarray(keys, np.int64))  # sorted, distinct
    if len(want) == 0:
        return pd.DataFrame({"sample_key": pd.Series(dtype="int64"), "score": pd.Series(dtype="float64")})
    paths = storage.file_paths(want)  # raises KeyError before any Spark job
    rows = (
        storage.registry_df(want)
        .select("sample_key", "file_id", "idx", "label")
        .coalesce(parallelism)
    )
    wrapper = storage.file_wrapper

    def _score(batches):
        settle_zip_importers()  # this worker's later tasks skip the zip re-reads
        for pdf in batches:
            k = pdf["sample_key"].to_numpy(np.int64)
            at = np.minimum(np.searchsorted(want, k), len(want) - 1)
            pdf = pdf[want[at] == k]
            if pdf.empty:
                continue
            pdf = pdf.sort_values(["file_id", "idx"], kind="stable")
            run_files, run_positions = file_runs(
                pdf["file_id"].to_numpy(np.int64), pdf["idx"].to_numpy(np.int64)
            )
            payloads = wrapper.get_samples_of_files(
                [paths[f] for f in run_files], run_positions
            )
            X = batch_bytes_parser(payloads)
            y = pdf["label"].to_numpy(np.int64)
            yield pd.DataFrame(
                {
                    "sample_key": pdf["sample_key"].to_numpy(np.int64),
                    "score": downsampler.scores(model, X, y).astype(np.float64),
                }
            )

    scored = rows.mapInPandas(_score, "sample_key long, score double").toPandas()
    if len(scored) != len(want):
        missing = set(want.tolist()) - set(scored["sample_key"].tolist())
        raise KeyError(f"unknown sample keys (first few): {sorted(missing)[:5]}")
    return scored
