"""T3 (paper Fig. 8b): CLOC-lite compute-bound throughput.

Prints Modyn and local throughput per worker count. Paper: throughput
stagnates from 4 workers (~485 samples/s on their testbed) because the
workload is compute-bound, and Modyn reaches 98-100 % of local.

Run: ``python jobs/table_cloc_throughput.py``.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _session import make_spark, workdir  # noqa: E402

from repro.experiments.throughput import local_vs_modyn  # noqa: E402


def main(spark, *, n_samples=12_000):
    df = local_vs_modyn(
        spark,
        workdir("cloc_tput"),
        workload="cloc",
        n_samples=n_samples,
        workers=(1, 2, 4, 8, 16),
    )
    print("\n=== T3 (Fig. 8b): Modyn vs local, cloc-lite (compute-bound) ===")
    print(f"{'workers':>8} {'modyn/s':>12} {'local/s':>12} {'% of local':>11}")
    for _, r in df.iterrows():
        print(
            f"{r.workers:>8.0f} {r.modyn_throughput:>12,.0f} "
            f"{r.local_throughput:>12,.0f} {r.pct_of_local:>10.1f}%"
        )
    return df


if __name__ == "__main__":
    spark = make_spark("table_cloc_throughput")
    main(spark).to_csv("cloc_throughput.csv", index=False)
    print("\nwrote cloc_throughput.csv")
    spark.stop()
