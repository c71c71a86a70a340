"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree and the parent
links of real nested and threaded calls. Then runs every workload once
untraced and once traced at tiny sizes, and asserts that each run passes
its own correctness checks and emits exactly the metric names that
``BENCHMARK.json`` lists. Takes a few minutes; it is not a measurement.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import threading

import env
from spans import ROOT, Patches, Tracer, covered, self_times


def check_self_time() -> None:
    # a [0, 10] has children b [1, 4] and c [3, 6], which overlap, and
    # d [8, 12], which outlives it: a's self time is 10 - (5 + 2) = 3.
    # b has the child e [2, 3]: its self time is 3 - 1 = 2.
    spans = [
        (1, ROOT, "a", 0.0, 10.0, False),
        (2, 1, "b", 1.0, 4.0, False),
        (3, 1, "c", 3.0, 6.0, False),
        (4, 1, "d", 8.0, 12.0, False),
        (5, 2, "e", 2.0, 3.0, False),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}, own
    assert covered([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)], 0.0, 10.0) == 4.0
    assert covered([], 0.0, 1.0) == 0.0


def check_parents() -> None:
    class Owner:
        def outer(self):
            self.inner()
            worker = threading.Thread(target=self.inner)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        def inner(self):
            return 1

        def items(self):
            yield from (self.inner(), self.inner())

    tracer, patches = Tracer(), Patches()
    originals = dict(vars(Owner))
    for attr in ("outer", "inner"):
        patches.patch(Owner, attr, tracer.wrap(attr, getattr(Owner, attr)))
    patches.patch(Owner, "items", tracer.wrap_generator("items", Owner.items))
    owner = Owner()
    owner.outer()
    assert list(owner.items()) == [1, 1]
    patches.restore()
    assert all(vars(Owner)[k] is v for k, v in originals.items())

    (outer,) = tracer.named("outer")
    parents = sorted(s[1] for s in tracer.named("inner"))
    item_ids = {s[0] for s in tracer.named("items")}
    # one inner call on the caller's thread, one on a thread with no open
    # span (attached to the root), two inside the generator's next()
    assert parents[0] == ROOT and parents[1] == outer[0], parents
    assert set(parents[2:]) <= item_ids, parents
    stats = tracer.stats("items")
    assert stats["items.calls"] == 1 and stats["items.errors"] == 0, stats
    assert tracer.self_ms("outer") <= 1e3 * (outer[4] - outer[3])


def check_workloads() -> None:
    work = os.path.join(env.WORK, f"selftest-{os.getpid()}")
    env.prepare(work)
    import layers
    import workloads

    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER

    tiny = workloads.Sizes(
        criteo_samples=8_000, criteo_per_file=2_000, criteo_partition=2_000,
        cloc_samples=400, cloc_partition=100, per_year=40, setups=2,
    )
    spark = env.make_spark()
    try:
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                res = workloads.run(
                    name, spark, 3, 0.1, trace, tiny, os.path.join(work, f"{name}-{trace}")
                )
                expected = layers.PER_LAYER if trace else workloads.END_TO_END
                assert set(res.metrics) == set(expected), (name, trace)
                assert res.attempted > 0 and res.failed == 0, (name, trace, res.problems)
                assert all(map(math.isfinite, res.metrics.values())), (name, trace)
                if not trace:
                    assert all(v > 0 for v in res.metrics.values()), (name, res.metrics)
                else:
                    assert res.metrics["trainer.train.calls"] > 0, name
                print(f"selftest: {name} trace={int(trace)} ok ({res.attempted} checks)")
    finally:
        env.stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    check_self_time()
    check_parents()
    check_workloads()
    print("selftest passed")
