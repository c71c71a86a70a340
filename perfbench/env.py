"""Process set-up for one benchmark run: paths, Spark, fidelity contract.

Everything here must run before ``pyspark`` or ``repro`` is imported:
``PYSPARK_SUBMIT_ARGS`` is read when the JVM launches, and Spark's Python
workers inherit ``PYTHONPATH`` from the driver environment, which is how
the StB scoring stage (``mapInPandas``) finds the ``repro`` package.
"""
from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Every file a run writes lives below here (listed in .gitignore), one
#: directory per run. Runs do not delete their data: removing thousands
#: of small files on a filesystem mounted with online discard slows file
#: creation for tens of seconds, which would leak into the next run.
WORK = os.path.join(ROOT, ".bench_work")

#: The workload model the benchmark pins (ROADMAP "fidelity contract").
#: A run whose program reads other values counts as failed.
FIDELITY = {
    "REPRO_DB_BASE_MS": 2.0,
    "REPRO_DB_PER_KEY_US": 20.0,
    "REPRO_STORAGE_POOL": 16,
    "switch_interval_s": 0.0005,
    "criteo_gpu_step_seconds": 0.020,
    "cloc_gpu_step_seconds": 0.12,
    "cloc_decode_bytes_per_sample": 1_800_000,
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to [2, 8] (the tier-1 sizing)."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    gib = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, gib))}g"
    except OSError:
        pass
    return "2g"


def prepare(run_dir: str) -> None:
    """Point imports, temp files and the Spark launch at this checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    tmp = os.path.join(run_dir, "tmp")
    spark_local = os.path.join(run_dir, "spark")
    for d in (tmp, spark_local):
        os.makedirs(d, exist_ok=True)
    prior = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + prior if prior else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = spark_local
    import tempfile

    tempfile.tempdir = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{nproc()}]",
            f"--driver-memory {driver_memory()}",
            # no hsperfdata files under /tmp; C1-only JIT, so the
            # short-lived JVM reaches its steady speed during set-up
            # instead of speeding up through the measured phase
            f"--driver-java-options '-XX:-UsePerfData -XX:TieredStopAtLevel=1"
            f" -Djava.io.tmpdir={tmp}'",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            f"--conf spark.sql.warehouse.dir={os.path.join(run_dir, 'warehouse')}",
            "pyspark-shell",
        ]
    )


def make_spark():
    """A local SparkSession with the settings of ``jobs/_session.py``,
    except one shuffle partition per core."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(nproc()))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the gateway JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except Exception:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def fidelity_record() -> dict:
    """The contract values the imported program actually runs with."""
    from repro.storage import storage as st
    from repro.experiments import throughput as tp

    return {
        "REPRO_DB_BASE_MS": st._DB_BASE_S * 1e3,
        "REPRO_DB_PER_KEY_US": st._DB_PER_KEY_S * 1e6,
        "REPRO_STORAGE_POOL": st._IO_POOL_SIZE,
        "switch_interval_s": sys.getswitchinterval(),
        "criteo_gpu_step_seconds": tp.CRITEO_GPU_SECONDS,
        "cloc_gpu_step_seconds": tp.CLOC_GPU_SECONDS,
        "cloc_decode_bytes_per_sample": tp.CLOC_DECODE_BYTES_PER_SAMPLE,
        "spark_master": f"local[{nproc()}]",
        "driver_memory": driver_memory(),
        "nproc": nproc(),
    }


def fidelity_violations(record: dict) -> list[str]:
    return [
        f"{k}={record[k]!r} (pinned {v!r})"
        for k, v in FIDELITY.items()
        if abs(float(record[k]) - float(v)) > 1e-9 * max(1.0, abs(float(v)))
    ]
