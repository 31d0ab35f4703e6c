"""The Python worker module ``get_spark`` sets as ``spark.python.worker.module``.

Before each task, PySpark's ``worker_util.setup_spark_files`` calls
``importlib.invalidate_caches()``. On CPython 3.11 that makes every
``zipimporter`` in ``sys.path_importer_cache`` re-read its archive's central
directory: in a reused worker, 16 importers over ``pyspark.zip``, the py4j
zip and Spark's core jar read 26,672 entries, about 110 ms a task. The
archives on a worker's path do not change during a run, so this module's
``invalidate_caches`` leaves them out and invalidates every other finder as
before: a ``.py`` shipped with ``addPyFile`` still imports.

``pyspark.daemon`` imports a worker module only if its name starts with
``pyspark``, once, when it starts, so this file lives outside the ``repro``
package and imports nothing from it.

Its ``main`` is ``pyspark.worker.main``, except when a reused worker finds
its socket closed before a task, as ``spark.stop()`` leaves every idle
worker: ``pyspark.worker.main`` would then write an error report that the
daemon's flush to the closed socket fails on, printing a ``BrokenPipeError``
traceback to the job's stderr.
"""
import importlib
import sys
import zipimport

_invalidate_all = importlib.invalidate_caches


def invalidate_caches() -> None:
    """``importlib.invalidate_caches`` for every finder but the zipimporters."""
    zips = {k: f for k, f in sys.path_importer_cache.items()
            if isinstance(f, zipimport.zipimporter)}
    for k in zips:
        del sys.path_importer_cache[k]
    try:
        _invalidate_all()
    finally:
        sys.path_importer_cache.update(zips)


importlib.invalidate_caches = invalidate_caches


def main(infile, outfile) -> None:
    """What ``pyspark.daemon`` calls for each task: ``pyspark.worker.main``,
    or, with no task left to read, a non-zero exit that writes nothing."""
    if not infile.peek(1):
        sys.exit(-1)
    _task_main(infile, outfile)


from pyspark.worker import main as _task_main
