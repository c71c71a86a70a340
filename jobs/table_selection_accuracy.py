"""T4 (paper Figs. 9 & 10 + §5.2 LOC): the data-selection study.

Trains three pipelines on the drifting cloc-lite stream with yearly
triggers (2004-2014, 11 triggers): all data, uniform random 50 %, and
DLIS GradNorm 50 % (sample-then-batch). Prints:

- the accuracy matrix of the full-data pipeline for the models trained
  up to 2008 / 2010 / 2012 (Fig. 9),
- the final-2014 models of all three strategies evaluated on every year
  (Fig. 10),
- the implementation-complexity (LOC) comparison of §5.2.

Run: ``python jobs/table_selection_accuracy.py``.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _session import make_spark, workdir  # noqa: E402

from repro.experiments.selection import (  # noqa: E402
    implementation_loc,
    run_selection_study,
    year_matrix,
)


def main(spark, *, per_year=1500):
    results = run_selection_study(spark, workdir("selection"), per_year=per_year)
    full = year_matrix(results["full"])

    print("\n=== T4a (Fig. 9): full-data pipeline accuracy matrix ===")
    print("(rows = model trained up to year; columns = evaluation year)\n")
    print((full.loc[[2008, 2010, 2012]] * 100).round(1).to_string())

    print("\n=== T4b (Fig. 10): final 2014 models across strategies ===")
    rows = {}
    for name, res in results.items():
        rows[name] = year_matrix(res).loc[2014]
    import pandas as pd

    fig10 = pd.DataFrame(rows).T
    print((fig10 * 100).round(1).to_string())
    print(
        "\nmean accuracy over all years: "
        + ", ".join(f"{n}={fig10.loc[n].mean() * 100:.1f}%" for n in fig10.index)
    )

    print("\n=== T4c (§5.2): implementation complexity ===")
    print(implementation_loc().to_string(index=False))
    return results, full, fig10


if __name__ == "__main__":
    spark = make_spark("table_selection_accuracy")
    results, full, fig10 = main(spark)
    full.to_csv("selection_full_matrix.csv")
    fig10.to_csv("selection_final_models.csv")
    print("\nwrote selection_full_matrix.csv, selection_final_models.csv")
    spark.stop()
