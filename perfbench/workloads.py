"""The benchmark's workloads: inputs made from a seed, rounds of layer
calls, and the invariants every output must satisfy.

Graphs are *layered* stand-ins with the node count, edge count and
power-law degree tails of the named networks, but every edge runs from one
layer to the next (``GRAPH_LAYERS`` layers). A reverse BFS or a forward cascade
therefore ends within ``GRAPH_LAYERS - 1`` steps, so every layer call runs the
same number of Spark supersteps whatever the seed. On the power-law
stand-ins the superstep count is the deepest cascade among thousands of
samples, and one ``greedy_wm`` call took 19 s on one seed and 38 s on
another. The power-law stand-ins are still timed, by the traced-run probes.

A round is one pass, in a closed loop with one client, through a
workload's calls. Round ``r`` of seed ``s`` uses the algorithm seed
``1000 * s + r``, so no two rounds of a run share an input.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.alloc.baselines import bundle_disj, item_disj
from repro.alloc.comic_baselines import rr_cim, rr_sim_plus
from repro.alloc.greedy_wm import greedy_wm
from repro.core import configs
from repro.diffusion.epic import allocation_from_pairs, simulate_welfare_multi
from repro.graphs.generator import from_edge_pairs, load_network
from repro.im.rrsets import sample_rr_sets
from tracing import ALGOS

GRAPH_LAYERS = 4
N_WORLDS = 8
POOL = 200          # allocations draw their seeds from the top out-degree nodes


@dataclass(frozen=True)
class Shape:
    name: str
    n: int
    m: int


DOUBAN_MOVIE = Shape("douban-movie-layered", 3500, 27650)
TWITTER = Shape("twitter-layered", 5000, 352500)
#: the graph every warm-up runs on (made from another seed than the body's)
WARM_SHAPE = DOUBAN_MOVIE


def layered_pairs(shape: Shape, seed: int) -> np.ndarray:
    """(m, 2) distinct edges between consecutive layers of a random
    partition of the nodes; both endpoints of each layer pair are drawn
    from Zipf-like rank weights, as in ``power_law_graph``."""
    rng = np.random.default_rng(seed)
    groups = np.array_split(rng.permutation(shape.n), GRAPH_LAYERS)
    draws = int(shape.m / (GRAPH_LAYERS - 1) * 1.6)
    chunks = []
    for src, dst in zip(groups, groups[1:]):
        chunks.append(np.column_stack([
            src[rng.choice(len(src), size=draws, p=_zipf(len(src)))],
            dst[rng.choice(len(dst), size=draws, p=_zipf(len(dst)))],
        ]))
    pairs = np.unique(np.concatenate(chunks), axis=0)
    if len(pairs) > shape.m:
        pairs = pairs[np.sort(rng.choice(len(pairs), size=shape.m, replace=False))]
    return pairs


def _zipf(k: int, alpha: float = 0.8) -> np.ndarray:
    w = np.arange(1, k + 1, dtype=float) ** -alpha
    return w / w.sum()


@dataclass
class Inputs:
    """A workload's generated inputs for one seed."""

    graph: object
    pool: np.ndarray            # top out-degree nodes, best first


def build_inputs(spark, shape: Shape, seed: int) -> Inputs:
    pairs = layered_pairs(shape, seed)
    graph = from_edge_pairs(spark, pairs, name=shape.name, n=shape.n)
    outdeg = np.bincount(pairs[:, 0], minlength=shape.n)
    pool = np.lexsort((np.arange(shape.n), -outdeg))[:POOL]
    return Inputs(graph, pool)


# ---- output summaries and invariants --------------------------------------

def _seed_lists(res) -> dict[str, list[int]]:
    return {str(j): [int(v) for v in s] for j, s in sorted(res.seeds_per_item.items())}


def _counts(res, budgets) -> list[str]:
    got = [len(res.seeds_per_item.get(j, [])) for j in range(len(budgets))]
    return [] if got == list(budgets) else [f"seed counts {got} != budgets {list(budgets)}"]


def _prefixes(res, budgets) -> list[str]:
    lists = sorted(res.seeds_per_item.values(), key=len)
    longest = lists[-1]
    ok = all(list(s) == list(longest[: len(s)]) for s in lists)
    return _counts(res, budgets) + ([] if ok else ["per-item seeds are not prefixes of one list"])


def _disjoint(res, budgets) -> list[str]:
    flat = [v for s in res.seeds_per_item.values() for v in s]
    ok = len(flat) == len(set(flat))
    return _counts(res, budgets) + ([] if ok else ["item seed sets overlap"])


def _welfare_out(res) -> dict:
    return {k: [float(x).hex() for x in r.per_world_welfare] for k, r in res.items()}


def _welfare_ok(res, _budgets) -> list[str]:
    """One finite entry per world, and not 0 in every world: an allocation
    nobody adopts does no cascade work, so its exact gate would hold even
    with EPIC broken."""
    errors = []
    for k, r in res.items():
        w = r.per_world_welfare
        if len(w) != N_WORLDS or not all(math.isfinite(x) for x in w):
            errors.append(f"{k}: per_world_welfare is not {N_WORLDS} finite values")
        elif not any(w):
            errors.append(f"{k}: per_world_welfare is 0 in every world")
    return errors


@dataclass
class Call:
    """One timed layer call of a round."""

    name: str
    fn: Callable[[], object]
    summary: Callable[[object], dict]
    check: Callable[[object, list[int]], list[str]]
    budgets: list[int] = field(default_factory=list)


# ---- workloads -------------------------------------------------------------

class Workload:
    name: str
    shape: Shape
    #: layers a traced run must record at least one call of
    required: tuple[str, ...]
    #: timed rounds a run makes even when ``--seconds`` have passed
    min_rounds = 1

    def warm_up(self, inp: Inputs, seed: int) -> None:
        """Make round 0's calls once on ``inp``, a ``WARM_SHAPE`` graph made
        from another seed. Warming single layers is not enough: the first
        greedyWM call then still read 2-3 s slower than the second."""
        for call in self.calls(inp, seed, 0):
            call.fn()

    def calls(self, inp: Inputs, seed: int, r: int) -> list[Call]:
        """The timed calls of round ``r``."""
        raise NotImplementedError

    def traced_calls(self, inp: Inputs, seed: int) -> list[Call]:
        """Calls made once, traced, in the traced run only."""
        return []

    def probes(self, spark, seed: int) -> dict[str, float]:
        """Traced-run-only timings on the power-law stand-in networks."""
        return {}


class AllocDoubanMovie(Workload):
    """Fig. 4 under config 1: greedyWM, item-disj and bundle-disj at budgets
    ``[10, 10]`` are timed; RR-SIM+ and RR-CIM (``b1 = b2 = 10``) run in the
    traced run only."""

    name = "alloc-douban-movie"
    shape = DOUBAN_MOVIE
    # PRIMM's sampling-call count, and with it a round's time, varies by a
    # fifth from one algorithm seed to the next: average two per run.
    min_rounds = 2
    required = ("graphs", "rrsets", "nodesel", "coverage", "primm", "adofreq", "epic",
                "utility", *(f"alloc.{a}" for a in ALGOS))

    def calls(self, inp, seed, r):
        g, model, s, b = inp.graph, configs.two_item_model(1), 1000 * seed + r, [10, 10]
        out = lambda res: {"seeds": _seed_lists(res), "n_rr": int(res.n_rr)}  # noqa: E731
        return [
            Call("greedyWM", lambda: greedy_wm(g, b, seed=s), out, _prefixes, b),
            Call("item-disj", lambda: item_disj(g, b, seed=s), out, _disjoint, b),
            Call("bundle-disj", lambda: bundle_disj(g, model, b, seed=s), out, _counts, b),
        ]

    def traced_calls(self, inp, seed):
        """Round 0's Com-IC baselines. Their n_rr is an inferred 2x/3x, so
        only their seeds are gated."""
        g, model, s, b = inp.graph, configs.two_item_model(1), 1000 * seed, [10, 10]
        out = lambda res: {"seeds": _seed_lists(res)}  # noqa: E731
        return [
            Call("rr-sim-plus", lambda: rr_sim_plus(g, model, *b, seed=s), out, _counts, b),
            Call("rr-cim", lambda: rr_cim(g, model, *b, seed=s), out, _counts, b),
        ]

    def probes(self, spark, seed):
        """ROADMAP's baseline: RR sampling at 2k and 20k sets, douban-movie-lite."""
        g = load_network(spark, "douban-movie-lite")
        out = {}
        for key, n_rr, off in (("rrsets.s_2k", 2000, 90), ("rrsets.s_20k", 20000, 91)):
            t = time.perf_counter()
            sets = sample_rr_sets(g, n_rr, seed=1000 * seed + off)
            out[key] = time.perf_counter() - t
            if len(sets) != n_rr:
                raise RuntimeError(f"sample_rr_sets returned {len(sets)} of {n_rr} sets")
        g.edges.unpersist()
        return out


def _cfg3_allocations(pool: np.ndarray, rng, k: int) -> dict[str, dict[int, int]]:
    """Six two-item allocations of ``k`` seeds per item whose item seed sets
    overlap in 0..k nodes: from fully disjoint to fully bundled."""
    picks = rng.choice(pool, size=2 * k, replace=False)
    out = {}
    for i, o in enumerate(np.linspace(0, k, 6).round().astype(int)):
        pairs = [(v, 0) for v in picks[:k]] + [(v, 1) for v in picks[k - o: 2 * k - o]]
        out[f"cfg3-{i}"] = allocation_from_pairs(pairs)
    return out


def _real_allocations(pool: np.ndarray, rng, budgets: list[int]) -> dict[str, dict[int, int]]:
    """Two five-item allocations (items ps, c, g1, g2, g3) over one ranked
    seed list.

    ``real-nested`` gives item ``j`` the first ``budgets[j]`` nodes
    (greedyWM's shape). ``real-rotated`` gives every node ps and c and two
    of the three games in rotation, so no seed holds the whole bundle and
    the full bundle forms only where cascades from different seeds meet.
    Under Table 5 only itemsets with ps, c and at least two games have
    positive utility, so an item-disj-shaped allocation (one item per node)
    is never adopted.
    """
    rank = {int(v): i for i, v in enumerate(pool)}
    ranked = sorted(rng.choice(pool, size=sum(budgets), replace=False).tolist(), key=rank.get)
    nested = [(v, j) for j, b in enumerate(budgets) for v in ranked[:b]]
    rotated = [(v, j) for i, v in enumerate(ranked)
               for j in (0, 1, 2 + i % 3, 2 + (i + 1) % 3)]
    return {"real-nested": allocation_from_pairs(nested),
            "real-rotated": allocation_from_pairs(rotated)}


class WelfareTwitter(Workload):
    """EPIC welfare of fixed allocations: config 3 (g-table path) and the
    learned Table 5 model (pair-table path)."""

    name = "welfare-twitter"
    shape = TWITTER
    required = ("graphs", "epic", "utility")

    def calls(self, inp, seed, r):
        g, s = inp.graph, 1000 * seed + r
        rng = np.random.default_rng((seed, r))
        cfg3 = _cfg3_allocations(inp.pool, rng, 10)
        real = _real_allocations(inp.pool, rng, [6, 6, 4, 2, 2])
        m3, mr = configs.two_item_model(3), configs.real_model()
        return [
            Call("welfare-cfg3",
                 lambda: simulate_welfare_multi(g, m3, cfg3, n_worlds=N_WORLDS, seed=s),
                 _welfare_out, _welfare_ok),
            Call("welfare-real",
                 lambda: simulate_welfare_multi(g, mr, real, n_worlds=N_WORLDS, seed=s),
                 _welfare_out, _welfare_ok),
        ]

    def probes(self, spark, seed):
        """ROADMAP's baseline: EPIC on douban-movie-lite, one vs eight
        allocations."""
        g = load_network(spark, "douban-movie-lite")
        deg = g.edges.groupBy("src").count().toPandas()
        pool = deg.sort_values(["count", "src"], ascending=[False, True])["src"].to_numpy()[:POOL]
        rng = np.random.default_rng((seed, 99))
        both = [*_cfg3_allocations(pool, rng, 5).values(), *_cfg3_allocations(pool, rng, 5).values()]
        allocs = {f"a{i}": a for i, a in enumerate(both[:8])}
        m3, out = configs.two_item_model(3), {}
        for key, chosen in (("epic.s_1alloc", dict(list(allocs.items())[:1])),
                            ("epic.s_8alloc", allocs)):
            t = time.perf_counter()
            res = simulate_welfare_multi(g, m3, chosen, n_worlds=N_WORLDS, seed=1000 * seed + 99)
            out[key] = time.perf_counter() - t
            if errs := _welfare_ok(res, []):
                raise RuntimeError("; ".join(errs))
        g.edges.unpersist()
        return out


WORKLOADS: dict[str, Workload] = {w.name: w for w in (AllocDoubanMovie(), WelfareTwitter())}
