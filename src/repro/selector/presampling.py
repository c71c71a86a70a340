"""Presampling strategies (paper §4.1.2).

A presampling strategy decides, on trigger, which of the seen samples
form the trigger training set — *before* any forward pass. Strategies
run as Spark DataFrame stages over the metadata backend. As in the
paper:

- ``NewDataStrategy``       — train on everything in scope (1-line core)
- ``UniformRandomStrategy`` — SQL ``ORDER BY rand() LIMIT m``
- ``LabelBalancedStrategy`` / ``TriggerBalancedStrategy`` — inherit from
  ``AbstractBalancedStrategy`` and just name the column to balance on
- ``GDumbStrategy``         — *online* class-balanced reservoir
- ``PolicySchedulerStrategy`` — switch strategies across triggers (e.g.
  "start by training on all data, sample on later triggers")

``select`` yields fixed-size partitions of ``(keys, weights)``, which the
TriggerSampleStorage writes one by one (§4.2.2). They are cut from the
whole trigger training set, which ``_select_keys`` returns on the driver:
the set is materialized at once there, and streaming it from the Spark
stages is still open.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.core.registry import PRESAMPLING_STRATEGIES
from repro.selector.metadata_backend import MetadataBackend, SparkMetadataBackend

Partition = tuple[np.ndarray, np.ndarray]


def partitioned(
    keys: np.ndarray, weights: np.ndarray, partition_size: int
) -> Iterator[Partition]:
    """Chop a selection into fixed-size partitions (last may be short)."""
    for start in range(0, len(keys), partition_size):
        yield keys[start : start + partition_size], weights[start : start + partition_size]


class PresamplingStrategy(ABC):
    """Base class; subclasses implement ``_select_keys``.

    ``reset_after_trigger`` controls the scope: if True, only samples
    seen since the previous trigger are eligible; otherwise everything
    seen so far is ("the trigger training set is a subset of all data
    points seen so far", §3.1).
    """

    requires_spark_backend = False

    def __init__(
        self,
        backend: MetadataBackend,
        *,
        reset_after_trigger: bool = True,
        partition_size: int = 10_000,
        seed: int = 0,
        **config,
    ) -> None:
        if self.requires_spark_backend and not isinstance(
            backend, SparkMetadataBackend
        ):
            raise TypeError(
                f"{type(self).__name__} needs the Spark metadata backend "
                "(it is expressed as a SQL query)"
            )
        self.backend = backend
        self.reset_after_trigger = reset_after_trigger
        self.partition_size = int(partition_size)
        self.seed = int(seed)
        self.config = config

    # ------------------------------------------------------------ informs
    def inform(
        self,
        trigger_id: int,
        keys: np.ndarray,
        labels: np.ndarray,
        timestamps: np.ndarray,
    ) -> None:
        """Offline default: persist everything; online strategies override."""
        self.backend.persist(trigger_id, keys, labels, timestamps)

    def scope(self, trigger_id: int) -> list[int]:
        return [trigger_id] if self.reset_after_trigger else list(range(trigger_id + 1))

    # ------------------------------------------------------------- select
    @abstractmethod
    def _select_keys(self, trigger_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(keys, weights) of the trigger training set."""

    def select(self, trigger_id: int) -> Iterator[Partition]:
        keys, weights = self._select_keys(trigger_id)
        yield from partitioned(
            np.asarray(keys, np.int64),
            np.asarray(weights, np.float64),
            self.partition_size,
        )

    def post_trigger(self, trigger_id: int) -> None:
        """State reset hook, called after the trigger training set is built."""
        if self.reset_after_trigger:
            self.backend.reset(trigger_id)


@PRESAMPLING_STRATEGIES.register("NewDataStrategy")
class NewDataStrategy(PresamplingStrategy):
    """Train on all data in scope — the paper's 1-line strategy."""

    def _select_keys(self, trigger_id: int):
        pdf = self.backend.get(self.scope(trigger_id))
        return pdf["sample_key"].to_numpy(np.int64), np.ones(len(pdf))


@PRESAMPLING_STRATEGIES.register("UniformRandomStrategy")
class UniformRandomStrategy(PresamplingStrategy):
    """Uniform random subset: ``fraction`` of in-scope data or ``max_samples``.

    On the Spark backend this is the paper's ~20-LOC SQL statement
    (ORDER BY rand LIMIT m); on the local backend it is an rng.choice.
    """

    def _select_keys(self, trigger_id: int):
        fraction = self.config.get("fraction")
        max_samples = self.config.get("max_samples")
        if (fraction is None) == (max_samples is None):
            raise ValueError("set exactly one of fraction / max_samples")
        scope = self.scope(trigger_id)
        total = self.backend.count(scope)
        m = (
            int(round(total * float(fraction)))
            if fraction is not None
            else min(int(max_samples), total)
        )
        if isinstance(self.backend, SparkMetadataBackend):
            pdf = (
                self.backend.df(scope)
                .orderBy(F.rand(self.seed + trigger_id))
                .limit(m)
                .select("sample_key")
                .toPandas()
            )
            keys = pdf["sample_key"].to_numpy(np.int64)
        else:
            g = np.random.default_rng(self.seed + trigger_id)
            keys = g.choice(
                self.backend.get(scope)["sample_key"].to_numpy(np.int64),
                size=m, replace=False,
            )
        return keys, np.ones(len(keys))


class AbstractBalancedStrategy(PresamplingStrategy):
    """Random sampling balanced across a column (paper's inheritance hook).

    Subclasses set ``balance_column``. Picks ``per_group`` samples per
    distinct value (default: the smallest group size, i.e. a fully
    balanced selection) uniformly at random, via a window SQL query.
    """

    requires_spark_backend = True
    balance_column: str = ""

    def _select_keys(self, trigger_id: int):
        if not self.balance_column:
            raise NotImplementedError("subclass must set balance_column")
        df = self.backend.df(self.scope(trigger_id))
        per_group = self.config.get("per_group")
        if per_group is None:
            counts = df.groupBy(self.balance_column).count().collect()
            if not counts:
                return np.empty(0, np.int64), np.empty(0)
            per_group = min(r["count"] for r in counts)
        w = Window.partitionBy(self.balance_column).orderBy(
            F.rand(self.seed + trigger_id)
        )
        pdf = (
            df.withColumn("rn", F.row_number().over(w))
            .where(F.col("rn") <= int(per_group))
            .select("sample_key")
            .toPandas()
        )
        keys = pdf["sample_key"].to_numpy(np.int64)
        return keys, np.ones(len(keys))


@PRESAMPLING_STRATEGIES.register("LabelBalancedStrategy")
class LabelBalancedStrategy(AbstractBalancedStrategy):
    """Equal random share per label."""

    balance_column = "label"


@PRESAMPLING_STRATEGIES.register("TriggerBalancedStrategy")
class TriggerBalancedStrategy(AbstractBalancedStrategy):
    """Equal random share per trigger bucket (needs reset_after_trigger=False)."""

    balance_column = "trigger_id"


@PRESAMPLING_STRATEGIES.register("GDumbStrategy")
class GDumbStrategy(PresamplingStrategy):
    """GDumb (Prabhu et al., ECCV'20): online class-balanced memory.

    Keeps at most ``memory_size`` samples; an arriving sample is admitted
    if memory has room or its class is smaller than the largest class, in
    which case a random sample of (one of) the largest classes is
    evicted. Selection simply returns the memory.
    """

    def __init__(self, backend, *, memory_size: int = 1000, **kw) -> None:
        super().__init__(backend, **kw)
        self.memory_size = int(memory_size)
        self._memory: dict[int, list[int]] = {}  # label -> keys
        self._n = 0
        self._g = np.random.default_rng(self.seed)

    def inform(self, trigger_id, keys, labels, timestamps) -> None:
        # Online: sampling happens as data is received; nothing persisted.
        for key, label in zip(
            np.asarray(keys, np.int64), np.asarray(labels, np.int64)
        ):
            label = int(label)
            bucket = self._memory.setdefault(label, [])
            if self._n < self.memory_size:
                bucket.append(int(key))
                self._n += 1
                continue
            largest = max(self._memory, key=lambda c: len(self._memory[c]))
            if len(bucket) < len(self._memory[largest]):
                victims = self._memory[largest]
                victims.pop(int(self._g.integers(len(victims))))
                bucket.append(int(key))

    def _select_keys(self, trigger_id: int):
        keys = np.asarray(
            [k for bucket in self._memory.values() for k in bucket], np.int64
        )
        return keys, np.ones(len(keys))

    def post_trigger(self, trigger_id: int) -> None:
        if self.reset_after_trigger:
            self._memory.clear()
            self._n = 0

    @property
    def class_counts(self) -> dict[int, int]:
        return {c: len(b) for c, b in self._memory.items()}


class PolicySchedulerStrategy(PresamplingStrategy):
    """Switches between strategies by trigger index (paper's scheduler).

    ``schedule`` is a list of ``(from_trigger, strategy)`` sorted by
    ``from_trigger``; the strategy with the largest ``from_trigger`` not
    exceeding the current trigger id handles it. All strategies are
    informed about all data so each has complete state when activated.
    """

    def __init__(
        self,
        backend: MetadataBackend,
        schedule: Sequence[tuple[int, PresamplingStrategy]],
        **kw,
    ) -> None:
        super().__init__(backend, **kw)
        if not schedule or schedule[0][0] != 0:
            raise ValueError("schedule must start at trigger 0")
        starts = [s for s, _ in schedule]
        if starts != sorted(starts):
            raise ValueError("schedule must be sorted by from_trigger")
        self.schedule = list(schedule)

    def active(self, trigger_id: int) -> PresamplingStrategy:
        chosen = self.schedule[0][1]
        for start, strat in self.schedule:
            if start <= trigger_id:
                chosen = strat
        return chosen

    def inform(self, trigger_id, keys, labels, timestamps) -> None:
        seen_backends = set()
        for _, strat in self.schedule:
            # Offline strategies sharing one backend would double-persist.
            if isinstance(strat, GDumbStrategy) or id(strat.backend) not in seen_backends:
                strat.inform(trigger_id, keys, labels, timestamps)
            if not isinstance(strat, GDumbStrategy):
                seen_backends.add(id(strat.backend))

    def _select_keys(self, trigger_id: int):
        raise NotImplementedError  # select() is overridden instead

    def select(self, trigger_id: int):
        yield from self.active(trigger_id).select(trigger_id)

    def post_trigger(self, trigger_id: int) -> None:
        for _, strat in self.schedule:
            strat.post_trigger(trigger_id)
