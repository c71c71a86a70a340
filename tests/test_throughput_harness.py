"""Smoke test of the T1–T3 throughput harness (paper §5.1, Figures 7 & 8).

The jobs under ``jobs/`` run ``criteo_grid`` and ``local_vs_modyn`` at
full size only; here both run on small inputs so a change that breaks
their setup, their cells or their tables fails tier-1.
"""
import numpy as np

from repro.experiments.throughput import criteo_grid, local_vs_modyn


def test_criteo_grid_fills_every_cell(spark, tmp_path):
    df = criteo_grid(
        spark,
        str(tmp_path),
        n_samples=4000,
        partition_sizes=(1000, 4000),
        workers=(1, 2),
        storage_threads=(1, 2),
        prefetch_configs=[(0, 1), (2, 1)],
    )
    assert len(df) == 2 * 2 * 2 * 2
    assert sorted(set(df["partition_size"])) == [1000, 4000]
    assert (df["throughput"] > 0).all()


def test_local_vs_modyn_both_workloads(spark, tmp_path):
    for workload, n in (("criteo", 4000), ("cloc", 300)):
        df = local_vs_modyn(
            spark, str(tmp_path / workload), workload=workload, n_samples=n,
            workers=(1, 2),
        )
        assert df["workers"].tolist() == [1, 2]
        assert (df[["modyn_throughput", "local_throughput"]] > 0).all().all()
        assert np.allclose(
            df["pct_of_local"], 100.0 * df["modyn_throughput"] / df["local_throughput"]
        )
