"""Layer-boundary tracing for the benchmark: spans, counters, Spark jobs.

Each traced layer function is replaced by a wrapper that records a span
(name, start, end, parent) and the layer's work counters, and runs the
call under its own Spark job group so that the jobs it launches can be
counted afterwards with ``statusTracker().getJobIdsForGroup``. Jobs are
attributed to the innermost open span; a span's job count includes its
descendants'.

``from … import`` copies a function into the importing module, so a
wrapper installed only where the function is defined would miss most
callers. ``Tracer.install`` therefore replaces every attribute of every
loaded ``repro.*`` module, of the benchmark's own modules, and of every
class defined there, that *is* the original function object;
``uninstall`` puts the originals back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: layer key -> (module, qualified name) of each function traced for it.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "graphs": [("repro.graphs.generator", "from_edge_pairs")],
    "rrsets": [("repro.im.rrsets", "sample_rr_sets")],
    "nodesel": [("repro.im.rrsets", "RRCollection.node_selection")],
    "coverage": [("repro.im.rrsets", "RRCollection.coverage_of")],
    "primm": [("repro.im.primm", "primm"), ("repro.im.imm", "imm")],
    "alloc.greedy_wm": [("repro.alloc.greedy_wm", "greedy_wm")],
    "alloc.item_disj": [("repro.alloc.baselines", "item_disj")],
    "alloc.bundle_disj": [("repro.alloc.baselines", "bundle_disj")],
    "alloc.rr_sim_plus": [("repro.alloc.comic_baselines", "rr_sim_plus")],
    "alloc.rr_cim": [("repro.alloc.comic_baselines", "rr_cim")],
    "adofreq": [("repro.alloc.comic_baselines", "adoption_frequency")],
    "epic": [
        ("repro.diffusion.epic", "simulate_welfare_multi"),
        ("repro.diffusion.epic", "final_adoptions"),
    ],
    "utility": [("repro.core.utility", "adoption_tables_for_worlds")],
}

ALGOS = ("greedy_wm", "item_disj", "bundle_disj", "rr_sim_plus", "rr_cim")


@dataclass
class Span:
    id: int
    layer: str
    name: str
    parent: int | None
    group: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    jobs: int = 0          # own + descendants, filled by Tracer.count_jobs

    @property
    def dur(self) -> float:
        return self.end - self.start


def _counters(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Work counters of one layer call, read from its arguments and result."""
    a = bound.arguments
    if name == "sample_rr_sets":
        return {
            "sets": len(result),
            "set_nodes": int(sum(len(s) for s in result)),
            "weighted": int(a["node_probs"] is not None),
        }
    if name == "node_selection":
        return {"input_nodes": int(sum(len(s) for s in a["self"].sets))}
    if name == "primm":
        return {"n_rr": int(result.n_rr)}
    if name in ALGOS:
        return {"n_rr": int(result.n_rr)}
    if name == "simulate_welfare_multi":
        w = int(a["n_worlds"])
        return {
            "scenarios": len(a["allocations"]) * w,
            "item_adoptions": int(round(sum(r.adoptions for r in result.values()) * w)),
        }
    if name == "final_adoptions":
        bits = sum(bin(int(x)).count("1") for x in result["adopt"])
        return {"scenarios": int(a["n_worlds"]), "item_adoptions": bits}
    return {}


class Tracer:
    """Records spans around the traced layer calls of one process."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self.overhead = 0.0     # seconds the wrappers spend outside the traced calls

    # ---- spans ------------------------------------------------------------
    def _open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), layer, name, parent, f"perfbench-span-{len(self.spans)}",
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        self.sc.setJobGroup(span.group, f"{layer}:{name}")
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self.sc.setJobGroup(self._stack[-1].group, self._stack[-1].name)
        else:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)

    @contextmanager
    def region(self, name: str):
        """A span that is not a layer call: a graph build, a round."""
        span = self._open("region", name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, layer: str, original):
        sig = inspect.signature(original)
        name = original.__name__

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            span = self._open(layer, name)
            t1 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                self._close(span)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counters = _counters(name, bound, result)
            self.overhead += (t1 - t0) + (time.perf_counter() - t2)
            return result

        return wrapper

    # ---- installation -----------------------------------------------------
    def install(self, extra_modules=()) -> None:
        """Wrap every reference to each traced function in ``repro.*`` and
        in ``extra_modules`` (the benchmark's own callers)."""
        extra = {m.__name__ for m in extra_modules}
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "repro" or name.startswith("repro.") or name in extra)
        ]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                obj = importlib.import_module(module_name)
                try:
                    for part in qualname.split("."):
                        obj = getattr(obj, part)
                except AttributeError:
                    raise RuntimeError(
                        f"traced layer function {module_name}.{qualname} is missing"
                    ) from None
                wrapper = self._wrap(layer, obj)
                hits = self._replace_everywhere(modules, obj, wrapper)
                if not hits:
                    raise RuntimeError(f"no reference to {module_name}.{qualname} found")

    def _replace_everywhere(self, modules, original, wrapper) -> int:
        hits = 0
        for mod in modules:
            holders = [mod] + [
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__.startswith("repro")
            ]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
                        hits += 1
        return hits

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # ---- job counts -------------------------------------------------------
    def count_jobs(self) -> None:
        """Fill ``Span.jobs`` once the listener bus has seen every job."""
        bus = self.sc._jsc.sc().listenerBus()
        bus.waitUntilEmpty()
        tracker = self.sc.statusTracker()
        own = [len(tracker.getJobIdsForGroup(s.group)) for s in self.spans]
        for s in reversed(self.spans):      # children always follow parents
            s.jobs += own[s.id]
            if s.parent is not None:
                self.spans[s.parent].jobs += s.jobs

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        return span.dur - sum(c.dur for c in self.children(span))

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "layer": s.layer, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, "self_s": self.self_time(s),
             "jobs": s.jobs, **s.counters}
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer, within: list[Span]) -> dict[str, float]:
    """Per-layer metrics of every traced span below the ``within`` regions."""
    below: set[int] = {w.id for w in within}
    spans = []
    for s in tracer.spans:
        if s.parent in below:
            below.add(s.id)
            spans.append(s)

    def of(layer: str) -> list[Span]:
        return [s for s in spans if s.layer == layer]

    def total(xs, key) -> float:
        return float(sum(s.counters.get(key, 0) for s in xs))

    def dur(xs) -> float:
        return float(sum(s.dur for s in xs))

    def jobs(xs) -> int:
        return int(sum(s.jobs for s in xs))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    rr = of("rrsets")
    rr_s, rr_sets, rr_jobs = dur(rr), total(rr, "sets"), jobs(rr)
    m.update({
        "rrsets.calls": len(rr),
        "rrsets.weighted_calls": total(rr, "weighted"),
        "rrsets.s": rr_s,
        "rrsets.sets": rr_sets,
        "rrsets.set_nodes": total(rr, "set_nodes"),
        "rrsets.spark_jobs": rr_jobs,
        "rrsets.ms_per_1k_sets": ratio(rr_s * 1e3, rr_sets / 1e3),
        "rrsets.ms_per_job": ratio(rr_s * 1e3, rr_jobs),
        "rrsets.bytes_to_driver": total(rr, "set_nodes") * 16,
    })
    ns, cov = of("nodesel"), of("coverage")
    m.update({
        "nodesel.calls": len(ns),
        "nodesel.s": dur(ns),
        "nodesel.input_nodes": total(ns, "input_nodes"),
        "coverage.calls": len(cov),
        "coverage.s": dur(cov),
    })
    pr = of("primm")
    outer = [s for s in pr if tracer.spans[s.parent].layer != "primm"]
    m.update({
        "primm.calls": len(outer),
        "primm.s": dur(outer),
        "primm.self_s": float(sum(tracer.self_time(s) for s in pr)),
        "primm.n_rr": total([s for s in pr if s.name == "primm"], "n_rr"),
        "primm.sampling_calls": sum(
            1 for s in rr if tracer.spans[s.parent].layer == "primm"
        ),
    })
    for algo in ALGOS:
        calls = of(f"alloc.{algo}")
        ids = {s.id for s in calls}
        inside: set[int] = set(ids)
        counted = 0.0
        primm_calls = 0
        for s in spans:
            if s.parent in inside:
                inside.add(s.id)
                if s.layer == "rrsets":
                    counted += s.counters.get("sets", 0)
                if s.layer == "primm" and tracer.spans[s.parent].layer != "primm":
                    primm_calls += 1
        m.update({
            f"alloc.{algo}.calls": len(calls),
            f"alloc.{algo}.s": dur(calls),
            f"alloc.{algo}.self_s": float(sum(tracer.self_time(s) for s in calls)),
            f"alloc.{algo}.imm_calls": primm_calls,
            f"alloc.{algo}.rr_sets_counted": counted,
            f"alloc.{algo}.rr_reported_over_counted": ratio(total(calls, "n_rr"), counted),
        })
    af = of("adofreq")
    m.update({"adofreq.calls": len(af), "adofreq.s": dur(af), "adofreq.spark_jobs": jobs(af)})
    ep = of("epic")
    ep_s, ep_jobs, scen = dur(ep), jobs(ep), total(ep, "scenarios")
    m.update({
        "epic.calls": len(ep),
        "epic.s": ep_s,
        "epic.scenarios": scen,
        "epic.item_adoptions": total(ep, "item_adoptions"),
        "epic.spark_jobs": ep_jobs,
        "epic.ms_per_scenario": ratio(ep_s * 1e3, scen),
        "epic.ms_per_job": ratio(ep_s * 1e3, ep_jobs),
    })
    m["utility.tables_s"] = dur(of("utility"))
    m["spark.jobs_total"] = sum(w.jobs for w in within)
    return m
