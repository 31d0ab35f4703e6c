"""SparkSession factory for spark-submit jobs (tests use conftest's
``spark`` fixture instead — jobs are standalone entrypoints)."""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str = "repro-job") -> SparkSession:
    """A local session for the jobs and the benchmark.

    No join is left on the engine path, so the broadcast-join threshold
    does not affect it. ``spark.sql.shuffle.partitions`` does: EPIC orders its
    welfare sums by it (``epic._loop_order``), so changing it moves welfare
    in the last bits."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
