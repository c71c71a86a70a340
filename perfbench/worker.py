"""One benchmark run, in the process group that ``run.py`` supervises.

Prints a human-readable report, then the result as one JSON line.
"""
from __future__ import annotations

import argparse
import json
import math
import os

import env


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    run_dir = os.path.join(env.WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    env.prepare(run_dir)
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    spark = env.make_spark()
    try:
        res = workloads.run(
            args.workload, spark, args.seed, args.seconds, bool(args.trace),
            workloads.Sizes(), run_dir,
        )
    finally:
        env.stop_spark(spark)
    if res.tracer is not None:
        res.tracer.write(os.path.join(run_dir, "spans.csv.gz"))

    units = layers.PER_LAYER if args.trace else workloads.END_TO_END
    res.check(set(res.metrics) == set(units), "metric names differ from the benchmark's list")
    res.check(all(map(math.isfinite, res.metrics.values())), "a metric is not finite")
    fidelity = res.report.pop("fidelity")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("fidelity " + json.dumps(fidelity, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:58s} {res.metrics.get(name, float('nan')):>14.6g} {unit}")
    for name, value in res.report.items():
        print(f"  {name:58s} {value:>14.6g}")
    print(f"  {'ops_failed_frac':58s} {res.failed / max(1, res.attempted):>14.6g} "
          f"({res.failed} of {res.attempted})")
    for problem in res.problems:
        print(f"  FAILED: {problem}")
    metrics = {
        name: {"value": float(res.metrics[name]) if math.isfinite(res.metrics[name]) else 0.0,
               "unit": unit}
        for name, unit in units.items() if name in res.metrics
    }
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
