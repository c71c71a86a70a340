import os
import sys

# spark.driver.memory is read at JVM launch, not from SparkConf, so
# PYSPARK_SUBMIT_ARGS must be set before pyspark is imported anywhere:
# importing the jobs' session module here (pytest loads this file before
# any test module) sets it, with the driver memory rule of the tier-1
# command and perfbench (``_session.driver_memory``).
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "jobs"))
from _session import driver_memory  # noqa: E402

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set at
    import of ``_session``, pre-JVM-launch). Per-session configs that
    *are* honoured post-launch (shuffle partitions, Arrow, broadcast
    threshold) are set here.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    # One line in the test output with the launch settings the session got.
    print(
        f"[conftest] SPARK_DRIVER_MEM={driver_memory()} "
        f"(src={'env' if os.environ.get('SPARK_DRIVER_MEM') else 'meminfo'}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
