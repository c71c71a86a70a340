"""Shared SparkSession builder for the spark-submit job entrypoints.

Jobs run outside pytest, from a checkout: importing this module puts the
checkout's ``src`` on ``sys.path`` and at the front of ``PYTHONPATH``,
which Spark's Python workers inherit (StB scoring's ``mapInPandas``
imports ``repro`` there), and ``PYSPARK_SUBMIT_ARGS`` is set for the JVM
launch. The root ``conftest.py`` imports this module for the same launch
settings; the local session has the settings of its test fixture, but
16 shuffle partitions. The driver gets ``driver_memory()``, as perfbench
sizes it.
"""
import os
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
_prior = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = SRC + (os.pathsep + _prior if _prior else "")


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM``, else half of MemTotal clamped to 2-8 GiB: the
    rule of the tier-1 command and perfbench, shared by the test session."""
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return f"{min(8, max(2, int(line.split()[1]) // 2097152))}g"
    except OSError:
        pass
    return "2g"


os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {driver_memory()} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def make_spark(app: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def workdir(tag: str) -> str:
    return tempfile.mkdtemp(prefix=f"repro_{tag}_")
