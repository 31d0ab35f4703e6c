"""The one SparkSession builder: the jobs, the benchmark and the tests'
``spark`` fixture all call ``get_spark``."""
from __future__ import annotations

import os
from importlib.util import find_spec

from pyspark.sql import SparkSession


def driver_memory() -> tuple[str, str]:
    """The driver heap and its source: ``SPARK_DRIVER_MEM``, else 75% of the
    cgroup v2/v1 memory limit (one outside 1 GiB..1 TiB, like v1's
    "unlimited", counts as none), else 8g."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m, "env"
    for p in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            with open(p) as f:
                raw = f.read().strip()
            gib = int(raw) / (1 << 30)
        except (OSError, ValueError):  # no such file, or "max"
            continue
        if 1 <= gib <= 1024:
            return f"{max(1, int(gib * 0.75))}g", f"cgroup:{p}={raw}"
    return "8g", "fallback"


def get_spark(app: str = "repro-job") -> SparkSession:
    """A local session. The JVM reads master and driver memory at launch,
    from ``PYSPARK_SUBMIT_ARGS``. The Python workers run through
    ``pyspark_repro_worker`` (DESIGN.md), whose directory reaches them
    through the executor environment, also when the JVM is already up."""
    worker = "pyspark_repro_worker"
    here = os.path.dirname(find_spec(worker).origin)
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()[0]} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.python.worker.module", worker)
        .config("spark.executorEnv.PYTHONPATH", here)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
