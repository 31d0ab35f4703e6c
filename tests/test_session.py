"""The session ``get_spark`` builds serves its Python workers through
``pyspark_repro_worker``, whose ``importlib.invalidate_caches`` skips the
workers' zipimporters but still invalidates every other finder, and talks
to them over Unix-domain sockets in a private directory."""
import json
import os
import subprocess
import sys
import uuid
from pathlib import Path

from pyspark import SparkFiles

import repro


def _on_every_task(spark, fn) -> list:
    sc = spark.sparkContext
    n = sc.defaultParallelism
    return sc.parallelize(range(n), n).map(lambda _: fn()).collect()


def test_workers_run_through_the_worker_module(spark):
    def probe():
        import importlib
        import sys

        mod = sys.modules.get("pyspark_repro_worker")
        return mod is not None and importlib.invalidate_caches is mod.invalidate_caches

    assert _on_every_task(spark, probe) == [True] * spark.sparkContext.defaultParallelism


def test_py_file_added_to_warm_workers_imports(spark, tmp_path):
    """Warm workers have listed the Spark files directory; a ``.py`` added
    there afterwards still imports, because the directory finders are
    invalidated before each task. The directory's mtime is put back after
    the file lands, so only that invalidation can reveal the new file."""
    name = f"fresh_{uuid.uuid4().hex}"

    def look():
        import importlib.util

        return os.getpid(), SparkFiles.getRootDirectory(), importlib.util.find_spec(name)

    warm = _on_every_task(spark, look)
    root = SparkFiles.getRootDirectory()
    assert {r for _, r, _ in warm} == {root} and all(s is None for *_, s in warm)

    before = os.stat(root)
    path = tmp_path / f"{name}.py"
    path.write_text("ANSWER = 42\n")
    spark.sparkContext.addPyFile(str(path))
    os.utime(root, ns=(before.st_atime_ns, before.st_mtime_ns))

    def load():
        import importlib

        return os.getpid(), importlib.import_module(name).ANSWER

    got = _on_every_task(spark, load)
    assert [a for _, a in got] == [42] * len(got)
    assert {p for p, _ in got} & {p for p, *_ in warm}, "no task ran in a warm worker"


def test_workers_talk_over_unix_domain_sockets(spark):
    def mode():
        return os.environ.get("PYTHON_UNIX_DOMAIN_ENABLED", "").lower()

    assert _on_every_task(spark, mode) == ["true"] * spark.sparkContext.defaultParallelism


def test_long_temp_paths_start_and_leave_no_sockets(tmp_path):
    """Sockets under a 120-character ``TMPDIR`` or ``java.io.tmpdir`` would
    overflow ``sun_path``: a fresh driver still starts, collects an RDD and
    round-trips a pandas frame through Arrow, and once it exits no socket
    file or socket directory is left."""
    deep = tmp_path / ("d" * max(1, 120 - len(str(tmp_path))))
    tmp, jtmp, conf = deep / "tmp", deep / "java-tmp", tmp_path / "conf"
    for d in (tmp, jtmp, conf):
        d.mkdir(parents=True)
    assert min(len(str(tmp)), len(str(jtmp))) >= 120
    (conf / "spark-defaults.conf").write_text(
        f"spark.driver.extraJavaOptions -Djava.io.tmpdir={jtmp}\n")
    env = {k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"}
    env.update(TMPDIR=str(tmp), SPARK_CONF_DIR=str(conf), SPARK_DRIVER_MEM="1g",
               SPARK_MASTER="local[2]", PYTHONPATH=os.pathsep.join(
                   [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]))
    code = (
        "import json, pandas as pd\n"
        "from repro.experiments.session import get_spark, socket_dir\n"
        "s = get_spark('long-paths')\n"
        "rdd = s.sparkContext.parallelize(range(6), 2).map(lambda x: x * x).collect()\n"
        "df = s.createDataFrame(pd.DataFrame({'x': [3, 1, 2]})).toPandas()['x'].tolist()\n"
        "print(json.dumps([socket_dir(), rdd, df]))\n"
    )
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-3000:]
    where, rdd, df = json.loads(child.stdout.splitlines()[-1])
    assert rdd == [0, 1, 4, 9, 16, 25] and df == [3, 1, 2]
    assert not os.path.exists(where)
    assert not [p for p in deep.rglob("*") if p.is_socket() or p.suffix == ".sock"]
