"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload alloc-douban-movie --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout: it imports the program from ``src/``
and keeps everything it writes under ``perfbench/out/``. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` prints the per-layer metrics
and writes the spans to ``perfbench/out/``. ``--record-reference``
rewrites the workload's exact-output reference (seed 0). See README.md.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"
MAX_ROUNDS = 6          # rounds per run at most; the reference covers all of them
SETUP_BUILDS = 3        # graph builds per run; setup_s takes their median
WARMUP_SEED = 10**6     # offsets the warm-up seed away from every timed seed


def spark_env() -> None:
    """Point Spark's config, scratch and temp dirs inside ``perfbench/out``.

    The session itself comes from the program's ``get_spark``; the config
    file only pins the core count, keeps every job in the status store
    (job counts) and turns the console progress bar off.
    """
    cores = min(4, len(os.sched_getaffinity(0)))
    conf, local, tmp = OUT / "spark-conf", OUT / "spark-local", OUT / "tmp"
    for d in (conf, local, tmp):
        d.mkdir(parents=True, exist_ok=True)
    (conf / "spark-defaults.conf").write_text(
        "spark.ui.showConsoleProgress false\n"
        "spark.ui.retainedJobs 1000000\n"
        "spark.ui.retainedStages 1000000\n"
        f"spark.driver.extraJavaOptions -XX:ActiveProcessorCount={cores} "
        f"-Djava.io.tmpdir={tmp}\n"
    )
    os.environ["SPARK_CONF_DIR"] = str(conf)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)


def run_round(wl, calls, seed: int, r: int, ref: dict | None) -> dict:
    """Run ``calls`` once each; every call is timed, checked and summarised."""
    rec = {"seconds": 0.0, "calls": {}, "outputs": {}, "failed": 0}
    t_round = time.perf_counter()
    for call in calls:
        t = time.perf_counter()
        try:
            res = call.fn()
            dt = time.perf_counter() - t
            errors = call.check(res, call.budgets)
            out = json.loads(json.dumps(call.summary(res)))
        except Exception:  # a failed call is counted, not fatal
            dt = time.perf_counter() - t
            errors, out = [traceback.format_exc()], None
        if ref is not None and out != ref.get(call.name):
            errors.append(f"output differs from perfbench/reference/{wl.name}.json")
        for e in errors:
            print(f"FAILED {wl.name} seed {seed} round {r} {call.name}: {e}", file=sys.stderr)
        rec["calls"][call.name] = dt
        rec["outputs"][call.name] = out
        rec["failed"] += bool(errors)
    rec["seconds"] = time.perf_counter() - t_round
    print(f"round {r}: {rec['seconds']:.3f} s ("
          + ", ".join(f"{k} {v:.3f}" for k, v in rec["calls"].items()) + ")", file=sys.stderr)
    return rec


def reference_rounds(wl, seed: int, record: bool) -> list | None:
    if record or seed != 0:
        return None
    path = REFERENCE / f"{wl.name}.json"
    if not path.exists():
        raise SystemExit(f"missing exact-output reference {path}")
    return json.loads(path.read_text())["rounds"]


def jvm_pid(sc) -> int:
    return int(sc._jvm.java.lang.ProcessHandle.current().pid())


def _hwm_mb(pid: int) -> float:
    """Peak RSS of a live process; 0 if it has exited meanwhile."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            kids = [int(k) for task in Path(f"/proc/{p}/task").iterdir()
                    for k in (task / "children").read_text().split()]
        except OSError:          # exited while being listed
            continue
        out += kids
        todo += kids
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "repro").rglob("*.py"))


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def traced_metrics(wl, spark, inp, seed, ref) -> tuple[dict, list, list]:
    """Trace one graph build, the first timed round and the workload's
    traced-only calls; then run the probes untraced."""
    from tracing import Tracer, layer_metrics
    from workloads import build_inputs

    tracer = Tracer(spark.sparkContext)
    tracer.install(extra_modules=[sys.modules["workloads"]])
    try:
        with tracer.region("build") as build:
            built = build_inputs(spark, wl.shape, seed)
        with tracer.region("round") as rnd:
            recs = [run_round(wl, wl.calls(inp, seed, 0), seed, 0, ref[0] if ref else None)]
        with tracer.region("traced-calls") as extra:
            if calls := wl.traced_calls(inp, seed):
                recs.append(run_round(wl, calls, seed, 0, ref[0] if ref else None))
    finally:
        tracer.uninstall()
    tracer.count_jobs()
    graphs = [s for s in tracer.spans if s.parent == build.id and s.layer == "graphs"]
    metrics = {
        "graphs.build_s": sum(s.dur for s in graphs),
        "graphs.edges": built.graph.m,
        "graphs.spark_jobs": sum(s.jobs for s in graphs),
        **layer_metrics(tracer, [rnd, extra]),
    }
    built.graph.edges.unpersist()
    seen = {s.layer for s in tracer.spans}
    missing = [layer for layer in wl.required if layer not in seen]
    if missing:
        raise SystemExit(f"traced layers recorded no call on {wl.name}: {missing}")
    probes = {"rrsets.s_2k": 0.0, "rrsets.s_20k": 0.0, "epic.s_1alloc": 0.0, "epic.s_8alloc": 0.0}
    probes.update(wl.probes(spark, seed))
    metrics.update(probes)
    pid = jvm_pid(spark.sparkContext)
    metrics["mem.jvm_hwm_mb"] = _hwm_mb(pid)
    metrics["mem.py_workers_hwm_mb"] = sum(_hwm_mb(p) for p in _descendants(pid))
    metrics["code.src_lines"] = src_lines()
    metrics["trace.overhead_s"] = tracer.overhead
    return metrics, recs, tracer.to_json()


def stop(spark) -> None:
    """Stop Spark and wait for its JVM (and with it the Python workers)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        proc = gateway.proc
        gateway.shutdown()
        proc.stdin.close()
        proc.wait(timeout=60)


def set_up(spark, wl, seed: int) -> tuple:
    """Warm up on a graph made from another seed, so that it shares no
    input with the timed body; then build the workload's graph
    ``SETUP_BUILDS`` times."""
    from workloads import WARM_SHAPE, build_inputs

    t_session = time.perf_counter() - T0
    warm = build_inputs(spark, WARM_SHAPE, WARMUP_SEED + seed)
    wl.warm_up(warm, WARMUP_SEED + seed)
    warm.graph.edges.unpersist()
    t_warm = time.perf_counter() - T0
    builds = []
    for i in range(SETUP_BUILDS):
        t = time.perf_counter()
        inp = build_inputs(spark, wl.shape, seed)
        builds.append(time.perf_counter() - t)
        if i + 1 < SETUP_BUILDS:
            inp.graph.edges.unpersist()
    print(f"set-up: session {t_session:.2f} s, warm-up {t_warm - t_session:.2f} s, "
          f"builds {' '.join(f'{b:.2f}' for b in builds)} s", file=sys.stderr)
    return inp, t_warm + statistics.median(builds)


def timed_rounds(wl, inp, seed: int, seconds: float, ref, record: bool) -> list[dict]:
    """At least ``wl.min_rounds`` rounds, then more until ``seconds`` have
    passed; up to round ``MAX_ROUNDS - 1`` always when recording."""
    rounds: list[dict] = []
    t_body = time.perf_counter()
    for r in range(MAX_ROUNDS):
        done = len(rounds) >= wl.min_rounds and time.perf_counter() - t_body >= seconds
        if done and not record:
            break
        rounds.append(run_round(wl, wl.calls(inp, seed, r), seed, r, ref[r] if ref else None))
    return rounds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.record_reference and (args.seed != 0 or args.trace):
        print("perfbench: references are recorded with --seed 0 --trace 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spark_env()

    from repro.experiments.session import get_spark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl, seed = WORKLOADS[args.workload], args.seed
    ref = reference_rounds(wl, seed, args.record_reference)

    spark = get_spark("perfbench")
    try:
        inp, setup_s = set_up(spark, wl, seed)
        untimed, timed, layer, spans = [], [], {}, None
        if args.trace:
            layer, untimed, spans = traced_metrics(wl, spark, inp, seed, ref)
        else:
            timed = timed_rounds(wl, inp, seed, args.seconds, ref, args.record_reference)
            if args.record_reference and (calls := wl.traced_calls(inp, seed)):
                untimed.append(run_round(wl, calls, seed, 0, None))
    finally:
        stop(spark)
    return report(args, wl, untimed, timed, setup_s, layer, spans)


def report(args, wl, untimed, timed, setup_s, layer, spans) -> int:
    """Print per-call times and the metrics; write the reference or spans.
    ``untimed`` are the traced run's rounds, or the traced-only calls of a
    recording run."""
    rounds = untimed + timed
    attempted = sum(len(r["calls"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"{wl.name} seed {args.seed}: {len(rounds)} round(s), {attempted} calls, {failed} failed")
    times: dict[str, list[float]] = {}
    for r in rounds:
        for name, t in r["calls"].items():
            times.setdefault(name, []).append(t)
    for name, xs in times.items():
        print(f"  {name}_s {statistics.median(xs):.3f} s (median of {len(xs)})")
    print(f"  fail_rate {failed / attempted:.3f} fraction")
    if args.record_reference:
        if failed:
            raise SystemExit("a reference is recorded only from a run with no failed call")
        REFERENCE.mkdir(exist_ok=True)
        outputs = [r["outputs"] for r in timed]
        for extra in untimed:
            outputs[0].update(extra["outputs"])
        (REFERENCE / f"{wl.name}.json").write_text(
            json.dumps({"seed": 0, "rounds": outputs}, indent=1) + "\n"
        )
    if args.trace:
        metrics = layer
        path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"metrics": metrics, "spans": spans}, indent=1))
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(r["seconds"] for r in timed),
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = metric_units(bool(args.trace))
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for k, v in metrics.items():
        print(f"  {k} {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
