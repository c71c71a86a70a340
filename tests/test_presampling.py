"""Tests for presampling strategies (paper §4.1.2, §5.2).

SQL-expressible selections are cross-checked against DuckDB via the
oracle; randomized selections are checked for exact sizes, determinism,
and statistical balance.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.registry import PRESAMPLING_STRATEGIES
from repro.oracle import assert_equivalent
from repro.selector.metadata_backend import LocalMetadataBackend, SparkMetadataBackend
from repro.selector.presampling import (
    GDumbStrategy,
    LabelBalancedStrategy,
    NewDataStrategy,
    PolicySchedulerStrategy,
    TriggerBalancedStrategy,
    UniformRandomStrategy,
    partitioned,
)


@pytest.fixture(params=["spark", "local"])
def backend(request, spark, tmp_path):
    if request.param == "spark":
        return SparkMetadataBackend(spark, str(tmp_path / "meta"))
    return LocalMetadataBackend(str(tmp_path / "meta"))


@pytest.fixture()
def spark_backend(spark, tmp_path):
    return SparkMetadataBackend(spark, str(tmp_path / "meta"))


def _seed_two_triggers(backend):
    """trigger 0: keys 0..99 (labels k%4); trigger 1: keys 100..139."""
    backend.persist(0, np.arange(100), np.arange(100) % 4, np.zeros(100))
    backend.persist(1, np.arange(100, 140), np.arange(40) % 4, np.ones(40))


def _select_all(strategy, trigger_id):
    keys, weights = [], []
    for k, w in strategy.select(trigger_id):
        keys.append(k)
        weights.append(w)
    return (
        (np.concatenate(keys), np.concatenate(weights))
        if keys
        else (np.empty(0, np.int64), np.empty(0))
    )


class TestPartitioning:
    def test_fixed_size_partitions_last_short(self):
        parts = list(partitioned(np.arange(25), np.ones(25), 10))
        assert [len(k) for k, _ in parts] == [10, 10, 5]

    def test_exact_multiple(self):
        parts = list(partitioned(np.arange(20), np.ones(20), 10))
        assert [len(k) for k, _ in parts] == [10, 10]

    def test_empty_selection(self):
        assert list(partitioned(np.empty(0), np.empty(0), 10)) == []


class TestNewDataStrategy:
    def test_selects_all_in_current_trigger(self, backend):
        _seed_two_triggers(backend)
        s = NewDataStrategy(backend, reset_after_trigger=True, partition_size=30)
        keys, w = _select_all(s, 1)
        assert sorted(keys.tolist()) == list(range(100, 140))
        assert np.allclose(w, 1.0)

    def test_no_reset_selects_everything_seen(self, backend):
        _seed_two_triggers(backend)
        s = NewDataStrategy(backend, reset_after_trigger=False)
        keys, _ = _select_all(s, 1)
        assert sorted(keys.tolist()) == list(range(140))

    def test_partition_sizes(self, backend):
        _seed_two_triggers(backend)
        s = NewDataStrategy(backend, reset_after_trigger=False, partition_size=60)
        sizes = [len(k) for k, _ in s.select(1)]
        assert sizes == [60, 60, 20]

    def test_matches_sql_filter(self, spark, tmp_path):
        b = SparkMetadataBackend(spark, str(tmp_path / "m"))
        _seed_two_triggers(b)
        s = NewDataStrategy(b, reset_after_trigger=True)
        keys, _ = _select_all(s, 0)
        got = spark.createDataFrame([(int(k),) for k in sorted(keys)], "sample_key long")
        assert_equivalent(
            got,
            "SELECT sample_key FROM seen WHERE trigger_id = 0",
            seen=b.df([0, 1]),
        )

    def test_post_trigger_resets_bucket(self, backend):
        _seed_two_triggers(backend)
        s = NewDataStrategy(backend, reset_after_trigger=True)
        _select_all(s, 0)
        s.post_trigger(0)
        assert backend.count([0]) == 0
        assert backend.count([1]) == 40

    def test_no_reset_keeps_state(self, backend):
        _seed_two_triggers(backend)
        s = NewDataStrategy(backend, reset_after_trigger=False)
        s.post_trigger(0)
        assert backend.count([0]) == 100


class TestUniformRandom:
    @pytest.fixture()
    def backend(self, spark_backend):
        return spark_backend  # a SQL strategy: Spark only

    def test_fraction_size_exact(self, backend):
        _seed_two_triggers(backend)
        s = UniformRandomStrategy(backend, reset_after_trigger=True, fraction=0.5)
        keys, w = _select_all(s, 0)
        assert len(keys) == 50
        assert len(np.unique(keys)) == 50  # subset, no duplicates
        assert set(keys.tolist()) <= set(range(100))
        assert np.allclose(w, 1.0)

    def test_max_samples(self, backend):
        _seed_two_triggers(backend)
        s = UniformRandomStrategy(backend, reset_after_trigger=True, max_samples=7)
        keys, _ = _select_all(s, 0)
        assert len(keys) == 7

    def test_max_samples_capped_by_population(self, backend):
        _seed_two_triggers(backend)
        s = UniformRandomStrategy(backend, reset_after_trigger=True, max_samples=10_000)
        keys, _ = _select_all(s, 0)
        assert len(keys) == 100

    def test_deterministic_in_seed(self, spark, tmp_path):
        b = SparkMetadataBackend(spark, str(tmp_path / "m"))
        _seed_two_triggers(b)
        k1, _ = _select_all(UniformRandomStrategy(b, fraction=0.3, seed=5), 0)
        k2, _ = _select_all(UniformRandomStrategy(b, fraction=0.3, seed=5), 0)
        assert np.array_equal(np.sort(k1), np.sort(k2))

    def test_different_triggers_different_draws(self, backend):
        _seed_two_triggers(backend)
        s = UniformRandomStrategy(backend, reset_after_trigger=False, fraction=0.3, seed=5)
        k0, _ = _select_all(s, 0)
        k1, _ = _select_all(s, 1)
        assert not np.array_equal(np.sort(k0), np.sort(k1))

    def test_config_validation(self, backend):
        with pytest.raises(ValueError, match="exactly one"):
            UniformRandomStrategy(backend, fraction=0.5, max_samples=5)
        with pytest.raises(ValueError, match="exactly one"):
            UniformRandomStrategy(backend)

    def test_scope_spans_triggers_without_reset(self, backend):
        _seed_two_triggers(backend)
        s = UniformRandomStrategy(backend, reset_after_trigger=False, fraction=0.5)
        keys, _ = _select_all(s, 1)
        assert len(keys) == 70  # 50% of 140


class TestBalancedStrategies:
    def test_label_balanced_equal_counts(self, spark, tmp_path):
        b = SparkMetadataBackend(spark, str(tmp_path / "m"))
        # imbalanced labels: 60 of label 0, 30 of label 1, 10 of label 2
        labels = np.array([0] * 60 + [1] * 30 + [2] * 10)
        b.persist(0, np.arange(100), labels, np.zeros(100))
        s = LabelBalancedStrategy(b, reset_after_trigger=True)
        keys, _ = _select_all(s, 0)
        sel_labels = labels[keys]  # keys are 0..99 == indices
        counts = np.bincount(sel_labels)
        assert counts.tolist() == [10, 10, 10]  # min group size each

    def test_label_balanced_per_group_cap(self, spark, tmp_path):
        b = SparkMetadataBackend(spark, str(tmp_path / "m"))
        labels = np.array([0] * 60 + [1] * 30 + [2] * 10)
        b.persist(0, np.arange(100), labels, np.zeros(100))
        s = LabelBalancedStrategy(b, reset_after_trigger=True, per_group=20)
        keys, _ = _select_all(s, 0)
        counts = np.bincount(labels[keys])
        assert counts.tolist() == [20, 20, 10]  # capped at group size

    def test_label_balanced_counts_match_oracle(self, spark, tmp_path):
        b = SparkMetadataBackend(spark, str(tmp_path / "m"))
        labels = np.arange(100) % 4
        b.persist(0, np.arange(100), labels, np.zeros(100))
        s = LabelBalancedStrategy(b, reset_after_trigger=True)
        keys, _ = _select_all(s, 0)
        got = spark.createDataFrame(
            [(int(labels[k]), ) for k in keys], "label long"
        ).groupBy("label").agg(F.count("*").alias("n"))
        # every label group contributes exactly min-group-size = 25 rows
        assert_equivalent(
            got,
            "SELECT label, 25::BIGINT AS n FROM seen GROUP BY label",
            seen=b.df([0]),
        )

    def test_trigger_balanced(self, spark, tmp_path):
        b = SparkMetadataBackend(spark, str(tmp_path / "m"))
        _seed_two_triggers(b)  # 100 in trigger 0, 40 in trigger 1
        s = TriggerBalancedStrategy(b, reset_after_trigger=False)
        keys, _ = _select_all(s, 1)
        n_t0 = (keys < 100).sum()
        n_t1 = (keys >= 100).sum()
        assert n_t0 == n_t1 == 40  # balanced across triggers

    @pytest.mark.parametrize(
        "cls, settings",
        [(LabelBalancedStrategy, {}), (UniformRandomStrategy, {"fraction": 0.5})],
    )
    def test_requires_spark_backend(self, tmp_path, cls, settings):
        local = LocalMetadataBackend(str(tmp_path / "m"))
        with pytest.raises(TypeError, match="Spark metadata backend"):
            cls(local, **settings)

    def test_random_within_groups_varies_by_seed(self, spark, tmp_path):
        b = SparkMetadataBackend(spark, str(tmp_path / "m"))
        labels = np.arange(100) % 2
        b.persist(0, np.arange(100), labels, np.zeros(100))
        k1, _ = _select_all(LabelBalancedStrategy(b, per_group=10, seed=1), 0)
        k2, _ = _select_all(LabelBalancedStrategy(b, per_group=10, seed=2), 0)
        assert not np.array_equal(np.sort(k1), np.sort(k2))


class TestGDumb:
    def _inform(self, s, keys, labels):
        s.inform(0, np.asarray(keys), np.asarray(labels), np.zeros(len(keys)))

    def test_memory_never_exceeds_budget(self, backend):
        s = GDumbStrategy(backend, memory_size=20)
        self._inform(s, np.arange(200), np.arange(200) % 5)
        keys, _ = _select_all(s, 0)
        assert len(keys) == 20

    def test_class_balanced_memory(self, backend):
        s = GDumbStrategy(backend, memory_size=20)
        # heavily imbalanced stream: 180 of class 0, 20 of class 1..4
        labels = np.array([0] * 180 + [1, 2, 3, 4] * 5)
        self._inform(s, np.arange(200), labels)
        counts = s.class_counts
        assert sum(counts.values()) == 20
        assert max(counts.values()) - min(counts.values()) <= 2

    def test_under_capacity_keeps_everything(self, backend):
        s = GDumbStrategy(backend, memory_size=100)
        self._inform(s, np.arange(30), np.arange(30) % 3)
        keys, _ = _select_all(s, 0)
        assert sorted(keys.tolist()) == list(range(30))

    def test_online_nothing_persisted_to_backend(self, backend):
        s = GDumbStrategy(backend, memory_size=10)
        self._inform(s, np.arange(50), np.arange(50) % 2)
        assert backend.count([0]) == 0  # online policy: state in memory

    def test_reset_after_trigger_clears_memory(self, backend):
        s = GDumbStrategy(backend, memory_size=10, reset_after_trigger=True)
        self._inform(s, np.arange(50), np.arange(50) % 2)
        s.post_trigger(0)
        keys, _ = _select_all(s, 1)
        assert len(keys) == 0

    def test_no_reset_keeps_memory(self, backend):
        s = GDumbStrategy(backend, memory_size=10, reset_after_trigger=False)
        self._inform(s, np.arange(50), np.arange(50) % 2)
        s.post_trigger(0)
        keys, _ = _select_all(s, 1)
        assert len(keys) == 10


class TestPolicyScheduler:
    def test_switches_strategy_by_trigger(self, spark_backend):
        backend = spark_backend
        _seed_two_triggers(backend)
        all_data = NewDataStrategy(backend, reset_after_trigger=False)
        sampled = UniformRandomStrategy(
            backend, reset_after_trigger=False, fraction=0.1, seed=0
        )
        sched = PolicySchedulerStrategy(backend, [(0, all_data), (1, sampled)])
        k0, _ = _select_all(sched, 0)
        k1, _ = _select_all(sched, 1)
        assert len(k0) == 100  # trigger 0: all data
        assert len(k1) == 14  # trigger 1: 10% of 140

    def test_switches_scope_by_trigger(self, backend):
        _seed_two_triggers(backend)
        everything = NewDataStrategy(backend, reset_after_trigger=False)
        new_only = NewDataStrategy(backend, reset_after_trigger=True)
        sched = PolicySchedulerStrategy(backend, [(0, everything), (1, new_only)])
        k0, _ = _select_all(sched, 0)
        k1, _ = _select_all(sched, 1)
        assert sorted(k0.tolist()) == list(range(100))  # trigger 0: all seen
        assert sorted(k1.tolist()) == list(range(100, 140))  # trigger 1: new only

    def test_inform_feeds_all_strategies_once(self, spark, tmp_path):
        b = SparkMetadataBackend(spark, str(tmp_path / "m"))
        s1 = NewDataStrategy(b, reset_after_trigger=False)
        s2 = UniformRandomStrategy(b, reset_after_trigger=False, fraction=0.5)
        sched = PolicySchedulerStrategy(b, [(0, s1), (1, s2)])
        sched.inform(0, np.arange(10), np.zeros(10), np.zeros(10))
        assert b.count([0]) == 10  # shared backend: persisted once, not twice

    def test_schedule_validation(self, backend):
        s = NewDataStrategy(backend)
        with pytest.raises(ValueError, match="start at trigger 0"):
            PolicySchedulerStrategy(backend, [(1, s)])
        with pytest.raises(ValueError, match="sorted"):
            PolicySchedulerStrategy(backend, [(0, s), (5, s), (2, s)])


class TestRegistry:
    @pytest.mark.parametrize(
        "name",
        [
            "NewDataStrategy",
            "UniformRandomStrategy",
            "LabelBalancedStrategy",
            "TriggerBalancedStrategy",
            "GDumbStrategy",
        ],
    )
    def test_builtins_registered(self, name):
        assert name in PRESAMPLING_STRATEGIES


class TestSettings:
    """Strategy settings are keyword parameters: a misspelt one in a
    pipeline's ``presampling_config`` fails when the strategy is built
    instead of being ignored."""

    @pytest.mark.parametrize(
        "cls, settings",
        [
            (NewDataStrategy, {"fractoin": 0.5}),
            (UniformRandomStrategy, {"fraction": 0.5, "max_sample": 3}),
            (LabelBalancedStrategy, {"per_grup": 3}),
            (GDumbStrategy, {"memory": 10}),
        ],
    )
    def test_unknown_setting_rejected(self, spark, tmp_path, cls, settings):
        backend = SparkMetadataBackend(spark, str(tmp_path / "meta"))
        (typo,) = set(settings) - {"fraction"}
        with pytest.raises(TypeError, match=typo):
            cls(backend, reset_after_trigger=True, **settings)
