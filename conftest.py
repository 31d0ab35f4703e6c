import sys

import pytest

from repro.experiments.session import driver_memory, get_spark


@pytest.fixture(scope="session")
def spark():
    """One local SparkSession for the whole test session, from ``get_spark``."""
    s = get_spark("repro")
    # One line in test_output.txt that tells whether the driver memory
    # came from the environment, the cgroup limit or the fallback.
    mem, src = driver_memory()
    print(
        f"[conftest] SPARK_DRIVER_MEM={mem} (src={src}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
