"""The one SparkSession builder: the jobs, the benchmark and the tests'
``spark`` fixture all call ``get_spark``."""
from __future__ import annotations

import atexit
import functools
import os
import shutil
import tempfile
import uuid
from importlib.util import find_spec

from pyspark.sql import SparkSession

SUN_PATH_MAX = 107  # bytes in a Linux AF_UNIX socket path, without its NUL
SOCKET_DIR_MAX = 61  # characters Spark allows in spark.python.unix.domain.socket.dir


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


@functools.cache
def socket_dir() -> str:
    """A private (0700) directory for the session's Unix-domain sockets,
    removed when the driver exits: under ``TMPDIR`` if the directory is
    within Spark's length limit and a socket's path there fits ``sun_path``,
    else under ``/tmp``. Spark names them ``<dir>/.<uuid>.sock``."""
    d = tempfile.mkdtemp(prefix="repro-sock-")
    sock = os.path.join(d, f".{uuid.uuid4()}.sock")
    if len(d) > SOCKET_DIR_MAX or len(os.fsencode(sock)) > SUN_PATH_MAX:
        os.rmdir(d)
        d = tempfile.mkdtemp(prefix="repro-sock-", dir="/tmp")
    atexit.register(shutil.rmtree, d, ignore_errors=True)
    return d


def get_spark(app: str) -> SparkSession:
    """A local session. The JVM reads master and driver memory at launch,
    from ``PYSPARK_SUBMIT_ARGS``. The Python workers run through
    ``pyspark_repro_worker`` (DESIGN.md), whose directory reaches them
    through the executor environment, also when the JVM is already up.
    The driver, the JVM and the workers talk over Unix-domain sockets in
    ``socket_dir()``, not loopback TCP (DESIGN.md). The driver JVM compiles
    with C1 only (DESIGN.md, "Driver JVM"); like every JVM option, this
    takes effect only when this call launches the JVM."""
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
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.python.worker.module", worker)
        .config("spark.executorEnv.PYTHONPATH", here)
        .config("spark.python.unix.domain.socket.enabled", "true")
        .config("spark.python.unix.domain.socket.dir", socket_dir())
        .config("spark.driver.defaultJavaOptions", "-XX:TieredStopAtLevel=1")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
