"""T2 (paper Fig. 8a): best Modyn config vs local sequential baseline.

Prints, per dataloader-worker count, the Modyn throughput, the local
baseline throughput (whole-file sequential reads, no sample-level
selection), and Modyn as a percentage of local. Paper: 92 / 87.2 /
82.6 / 87 % for 1 / 4 / 8 / 16 workers.

Run: ``python jobs/table_local_vs_modyn.py``.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _session import make_spark, workdir  # noqa: E402

from repro.experiments.throughput import local_vs_modyn  # noqa: E402


def main(spark, *, n_samples=120_000):
    df = local_vs_modyn(
        spark, workdir("local_vs_modyn"), workload="criteo", n_samples=n_samples
    )
    print("\n=== T2 (Fig. 8a): Modyn vs local, criteo-lite ===")
    print(f"{'workers':>8} {'modyn/s':>12} {'local/s':>12} {'% of local':>11}")
    for _, r in df.iterrows():
        print(
            f"{r.workers:>8.0f} {r.modyn_throughput:>12,.0f} "
            f"{r.local_throughput:>12,.0f} {r.pct_of_local:>10.1f}%"
        )
    return df


if __name__ == "__main__":
    spark = make_spark("table_local_vs_modyn")
    main(spark).to_csv("local_vs_modyn.csv", index=False)
    print("\nwrote local_vs_modyn.csv")
    spark.stop()
