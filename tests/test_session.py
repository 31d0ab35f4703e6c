"""The session ``get_spark`` builds serves its Python workers through
``pyspark_repro_worker``, whose ``importlib.invalidate_caches`` skips the
workers' zipimporters but still invalidates every other finder."""
import os
import uuid

from pyspark import SparkFiles


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
