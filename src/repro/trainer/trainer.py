"""The training loop (paper §4.1.3).

Generic over any dataset exposing ``.batches()`` (OnlineDataset,
LocalDataset via an adapter, or InMemoryDataset), so the loop is unaware
of the data path — the paper's core abstraction claim. Supports:

- weighted SGD steps (selection weights multiply gradients, §3.1),
- batch-then-sample downsampling inline in the loop,
- sample-then-batch downsampling via a scoring phase (the distributed
  Spark stage in ``selector.downsampling``) before training,
- a simulated accelerator cost per batch (``gpu_step_seconds``): the
  paper does not synchronize CUDA, the GPU works while the next batch is
  fetched — a sleep is the faithful host-side analog of that device time
  and is what makes a workload compute- vs memory-bound here.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.models.base import Model
from repro.selector.downsampling import Downsampler, score_keys_spark
from repro.storage.storage import Storage
from repro.trainer.online_dataset import Batch, InMemoryDataset


@dataclass
class TrainResult:
    """Outcome + throughput accounting of one training (one trigger)."""

    num_samples: int  # samples consumed from the data path
    num_trained_samples: int  # samples actually stepped on (post-downsampling)
    num_batches: int
    wall_time_s: float
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """End-to-end samples/second, as measured in §5.1 (samples in the
        trigger divided by training wall time)."""
        return self.num_samples / self.wall_time_s if self.wall_time_s > 0 else 0.0


class Trainer:
    """Executes trainings on request (one instance per training)."""

    def __init__(
        self,
        model: Model,
        *,
        lr: float,
        epochs: int = 1,
        downsampler: Downsampler | None = None,
        downsampling_mode: str = "BtS",
        gpu_step_seconds: float = 0.0,
        seed: int = 0,
    ) -> None:
        if downsampling_mode not in ("BtS", "StB"):
            raise ValueError("downsampling_mode must be 'BtS' or 'StB'")
        self.model = model
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.downsampler = downsampler
        self.downsampling_mode = downsampling_mode
        self.gpu_step_seconds = float(gpu_step_seconds)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------ core loop
    def _step(self, batch: Batch) -> tuple[float, int]:
        X = self.model.stack_batch(batch.payloads)
        y = batch.labels
        w = batch.weights
        if self.downsampler is not None and self.downsampling_mode == "BtS":
            # batch-then-sample: forward on the batch, train on a subset.
            scores = self.downsampler.scores(self.model, X, y)
            idx, imp = self.downsampler.sample(scores, rng=self._rng)
            X, y, w = X[idx], y[idx], w[idx] * imp
        loss = self.model.sgd_step(X, y, lr=self.lr, sample_weights=w)
        if self.gpu_step_seconds:
            time.sleep(self.gpu_step_seconds)
        return loss, len(y)

    def train(self, dataset) -> TrainResult:
        """Train ``epochs`` passes over ``dataset.batches()``."""
        t0 = time.perf_counter()
        n_samples = n_trained = n_batches = 0
        epoch_losses: list[float] = []
        for _ in range(self.epochs):
            losses = []
            for batch in dataset.batches():
                loss, trained = self._step(batch)
                losses.append(loss)
                n_samples += len(batch)
                n_trained += trained
                n_batches += 1
            epoch_losses.append(float(np.mean(losses)) if losses else float("nan"))
        return TrainResult(
            n_samples, n_trained, n_batches, time.perf_counter() - t0, epoch_losses
        )

    # ----------------------------------------------------- sample-then-batch
    def train_stb(
        self,
        storage: Storage,
        keys: np.ndarray,
        weights: np.ndarray,
        *,
        batch_size: int,
        batch_bytes_parser,
        transform=None,
        score_parallelism: int = 8,
        storage_threads: int = 1,
    ) -> TrainResult:
        """Sample-then-batch: distributed scoring pass over the whole
        trigger training set, then train on the downsampled subset.

        The scoring runs as a Spark ``mapInPandas`` stage (§4.1.2 StB:
        "the training loop starts with a sampling phase ... once this
        state is complete, it generates the downsampled data set").
        """
        if self.downsampler is None:
            raise ValueError("train_stb requires a downsampler")
        t0 = time.perf_counter()
        keys = np.asarray(keys, np.int64)
        scored = score_keys_spark(
            storage,
            self.model,
            self.downsampler,
            batch_bytes_parser,
            keys,
            parallelism=score_parallelism,
        )
        # Align the per-distinct-key scores to the request (a key listed
        # twice gets its score twice), then importance-sample the subset.
        scored = scored.set_index("sample_key").loc[keys]
        idx, imp = self.downsampler.sample(
            scored["score"].to_numpy(), rng=self._rng
        )
        sel_keys = keys[idx]
        sel_weights = np.asarray(weights, np.float64)[idx] * imp
        buffer = storage.get_samples(sel_keys, storage_threads=storage_threads)
        # the buffer's order is not the request's: align weights by key
        # (a key drawn twice carries the same weight both times)
        order = np.argsort(sel_keys)
        at = np.searchsorted(sel_keys[order], buffer.keys)
        dataset = InMemoryDataset(
            buffer,
            sel_weights[order][at],
            batch_size=batch_size,
            batch_bytes_parser=batch_bytes_parser,
            transform=transform,
            shuffle_seed=int(self._rng.integers(2**31)),
        )
        # Train without re-downsampling (scores were already consumed).
        saved, self.downsampler = self.downsampler, None
        try:
            result = self.train(dataset)
        finally:
            self.downsampler = saved
        return TrainResult(
            len(keys),  # the data path saw the whole trigger set (scoring)
            result.num_trained_samples,
            result.num_batches,
            time.perf_counter() - t0,
            result.epoch_losses,
        )
