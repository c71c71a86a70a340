"""T1 (paper Fig. 7): Criteo-lite training-throughput sweep.

Prints the throughput (samples/s) for every (partition size, storage
threads, workers, prefetched partitions, parallel prefetch requests)
cell, in the same w/pf/par layout the paper's figure uses.

Run: ``python jobs/table_criteo_throughput.py`` (or via spark-submit).
"""
import sys

sys.path.insert(0, "jobs")
from _session import make_spark, workdir  # noqa: E402

from repro.experiments.throughput import criteo_grid  # noqa: E402


def main(spark, *, n_samples=120_000):
    df = criteo_grid(spark, workdir("criteo_grid"), n_samples=n_samples)
    print("\n=== T1 (Fig. 7): Criteo-lite throughput (samples/s) ===")
    for (ps, st), grp in df.groupby(["partition_size", "storage_threads"]):
        print(f"\n-- partition_size={ps:,}  storage_threads={st} --")
        print(f"{'w/pf/par':>12}  {'throughput':>12}")
        # itertuples keeps each column's dtype (iterrows upcasts the
        # whole row to float, printing "4.0/6.0/2.0")
        for r in grp.itertuples(index=False):
            w, pf, par = int(r.workers), int(r.prefetched_partitions), int(r.parallel_prefetch)
            cell = f"{pf}/-" if pf == 0 else f"{pf}/{par}"
            print(f"{w:>6}/{cell:<6}  {r.throughput:>12,.0f}")
    return df


if __name__ == "__main__":
    spark = make_spark("table_criteo_throughput")
    df = main(spark)
    df.to_csv("criteo_throughput_grid.csv", index=False)
    print("\nwrote criteo_throughput_grid.csv")
    spark.stop()
