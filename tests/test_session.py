"""The session ``get_spark`` builds serves its Python workers through
``pyspark_repro_worker``, whose ``importlib.invalidate_caches`` skips the
workers' zipimporters but still invalidates every other finder and whose
``main`` leaves a closed socket quietly, and talks to them over
Unix-domain sockets in a private directory; its driver JVM compiles with
C1 only. On a ``local-cluster`` master it computes the same bits."""
import hashlib
import importlib
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import uuid
from pathlib import Path

import pytest
from pyspark import SparkFiles

import repro
from repro.alloc.greedy_wm import greedy_wm
from repro.core import configs
from repro.diffusion.epic import simulate_welfare_multi
from repro.experiments.session import SOCKET_DIR_MAX, socket_dir
from repro.graphs.generator import load_network
from repro.im.rrsets import sample_rr_sets


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


def test_driver_jvm_compiles_with_c1_only(spark):
    bean = spark.sparkContext._jvm.java.lang.management.ManagementFactory.getRuntimeMXBean()
    assert "-XX:TieredStopAtLevel=1" in list(bean.getInputArguments())


def test_workers_talk_over_unix_domain_sockets(spark):
    def mode():
        return os.environ.get("PYTHON_UNIX_DOMAIN_ENABLED", "").lower()

    assert _on_every_task(spark, mode) == ["true"] * spark.sparkContext.defaultParallelism


def _daemon_files(sock: socket.socket) -> tuple:
    """A worker's input and output streams over ``sock``, as ``pyspark.daemon`` opens them."""
    return (os.fdopen(os.dup(sock.fileno()), "rb", 65536),
            os.fdopen(os.dup(sock.fileno()), "wb", 65536))


def test_idle_worker_leaves_a_closed_socket_quietly(monkeypatch):
    """An idle reused worker whose socket the JVM has closed, as
    ``spark.stop()`` closes them, exits non-zero and leaves nothing for the
    daemon's flush: ``pyspark.worker.main`` left an error report there, and
    the flush to the closed socket raised ``BrokenPipeError``. A task's
    bytes all still reach ``pyspark.worker.main``."""
    monkeypatch.setattr(importlib, "invalidate_caches", importlib.invalidate_caches)
    import pyspark_repro_worker as w

    ours, jvm = socket.socketpair()
    jvm.close()
    infile, outfile = _daemon_files(ours)
    with ours, infile, outfile:
        with pytest.raises(SystemExit) as exit_:
            w.main(infile, outfile)
        assert exit_.value.code
        outfile.flush()

    got = []
    monkeypatch.setattr(w, "_task_main", lambda i, o: got.append(i.read()))
    ours, jvm = socket.socketpair()
    with jvm:
        jvm.sendall(b"\x00\x00\x00\x03task")
    infile, outfile = _daemon_files(ours)
    with ours, infile, outfile:
        w.main(infile, outfile)
    assert got == [b"\x00\x00\x00\x03task"]


def _child(code: str, **env: str) -> list:
    """Run ``code`` in a fresh Python process, with the repository root and
    ``repro`` importable, a 1g driver and ``env`` set, and return its last
    line of output read as JSON."""
    full = {k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"}
    full.update(SPARK_DRIVER_MEM="1g", **env, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1]), str(Path(repro.__file__).parents[1]),
         full.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", code], env=full, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-3000:]
    return json.loads(child.stdout.splitlines()[-1])


def _fresh_driver(tmp: Path, conf: Path) -> tuple[str, list[str]]:
    """Start a driver under ``TMPDIR=tmp`` and ``SPARK_CONF_DIR=conf`` in a
    child process, collect an RDD and round-trip a pandas frame through
    Arrow; check both results and that the socket directory is gone once
    the child exits, and return that directory and the JVM's input
    arguments."""
    code = (
        "import json, pandas as pd\n"
        "from repro.experiments.session import get_spark, socket_dir\n"
        "s = get_spark('long-paths')\n"
        "rdd = s.sparkContext.parallelize(range(6), 2).map(lambda x: x * x).collect()\n"
        "df = s.createDataFrame(pd.DataFrame({'x': [3, 1, 2]})).toPandas()['x'].tolist()\n"
        "jvm = s.sparkContext._jvm.java.lang.management.ManagementFactory\n"
        "args = list(jvm.getRuntimeMXBean().getInputArguments())\n"
        "print(json.dumps([socket_dir(), rdd, df, args]))\n"
    )
    where, rdd, df, args = _child(code, TMPDIR=str(tmp), SPARK_CONF_DIR=str(conf),
                                  SPARK_MASTER="local[2]")
    assert rdd == [0, 1, 4, 9, 16, 25] and df == [3, 1, 2]
    assert not os.path.exists(where)
    return where, args


def test_long_temp_paths_start_and_leave_no_sockets(tmp_path):
    """Sockets under a 120-character ``TMPDIR`` or ``java.io.tmpdir`` would
    overflow ``sun_path``: a fresh driver still starts, collects an RDD and
    round-trips a pandas frame through Arrow, and once it exits no socket
    file or socket directory is left. Its JVM holds both the C1 flag that
    ``get_spark`` sets and the ``extraJavaOptions`` of ``spark-defaults.conf``."""
    deep = tmp_path / ("d" * max(1, 120 - len(str(tmp_path))))
    tmp, jtmp, conf = deep / "tmp", deep / "java-tmp", tmp_path / "conf"
    for d in (tmp, jtmp, conf):
        d.mkdir(parents=True)
    assert min(len(str(tmp)), len(str(jtmp))) >= 120
    (conf / "spark-defaults.conf").write_text(
        f"spark.driver.extraJavaOptions -Djava.io.tmpdir={jtmp}\n")
    _, args = _fresh_driver(tmp, conf)
    assert {"-XX:TieredStopAtLevel=1", f"-Djava.io.tmpdir={jtmp}"} <= set(args)
    assert not [p for p in deep.rglob("*") if p.is_socket() or p.suffix == ".sock"]


def _tmpdir_for_socket_dir(base: Path, n: int) -> Path:
    """A directory under ``base`` in which ``mkdtemp(prefix="repro-sock-")``
    makes an ``n``-character path (the prefix and 8 random characters)."""
    d = base / ("d" * (n - len("/repro-sock-") - 8 - len(str(base)) - 1))
    d.mkdir()
    return d


def test_socket_dir_stays_within_sparks_length_limit(monkeypatch):
    """Spark rejects a ``spark.python.unix.domain.socket.dir`` over 61
    characters, although a socket path there still fits ``sun_path``: a
    ``TMPDIR`` whose socket directory would be longer falls back to
    ``/tmp``, and a shorter one is kept."""
    base = Path(tempfile.mkdtemp(dir="/tmp"))
    try:
        for n in range(55, 71):
            tmp = _tmpdir_for_socket_dir(base, n)
            monkeypatch.setattr(tempfile, "tempdir", str(tmp))
            got = socket_dir.__wrapped__()
            shutil.rmtree(got)
            assert len(got) <= SOCKET_DIR_MAX, (n, got)
            assert Path(got).parent == (tmp if n <= SOCKET_DIR_MAX else Path("/tmp")), (n, got)
    finally:
        shutil.rmtree(base)


def test_driver_starts_where_the_socket_dir_would_be_63_characters(tmp_path):
    """A ``TMPDIR`` where the socket directory would be 63 characters, which
    fits ``sun_path`` but not Spark's limit: a fresh driver starts and
    collects, from a socket directory Spark accepts."""
    base = Path(tempfile.mkdtemp(dir="/tmp"))
    try:
        tmp = _tmpdir_for_socket_dir(base, 63)
        conf = tmp_path / "conf"
        conf.mkdir()
        where, _ = _fresh_driver(tmp, conf)
        assert len(where) <= SOCKET_DIR_MAX
    finally:
        shutil.rmtree(base)


def _sampling_allocation_and_welfare(spark) -> list:
    """On douban-movie-lite: a digest of 2,000 RR sets, greedyWM's seeds and
    ``n_rr`` at ``[10, 10]``, and that allocation's per-world welfare
    (``float.hex``) over 8 worlds of config 3."""
    g = load_network(spark, "douban-movie-lite")
    sets = sample_rr_sets(g, 2000, seed=3)
    res = greedy_wm(g, [10, 10], seed=0)
    w = simulate_welfare_multi(g, configs.two_item_model(3), {"wm": res.allocation},
                               n_worlds=8, seed=0)["wm"]
    return [hashlib.sha256(sets.nodes.tobytes() + sets.ptr.tobytes()).hexdigest(),
            {str(j): s for j, s in res.seeds_per_item.items()}, res.n_rr,
            [float(x).hex() for x in w.per_world_welfare]]


def test_cluster_topology_keeps_every_bit(spark):
    """Two executor JVMs (``local-cluster``), which reach the worker module
    and ``repro`` only through the executor environment and each fetch the
    broadcast CSR, sample the same RR sets, allocate the same seeds and
    evaluate the same per-world welfare as the session's local master."""
    code = (
        "import json\n"
        "from repro.experiments.session import get_spark\n"
        "from tests.test_session import _sampling_allocation_and_welfare\n"
        "s = get_spark('cluster')\n"
        "print(json.dumps([s.sparkContext.master, *_sampling_allocation_and_welfare(s)]))\n"
    )
    master, *got = _child(code, SPARK_MASTER="local-cluster[2,2,1024]")
    assert master == "local-cluster[2,2,1024]"
    assert got == _sampling_allocation_and_welfare(spark)
