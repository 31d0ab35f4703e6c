"""Numeric reproduction of the evaluation figures (as printed tables).

Figures per se are out of scope; these harnesses regenerate the numbers
each figure plots — expected social welfare and allocation running time
per (network, configuration, budget, algorithm) — so the paper's claims
can be diffed in EXPERIMENTS.md. Budgets are scaled to the stand-in
network sizes (see DESIGN.md); paper budgets are noted per harness.

Every welfare table comes from ``welfare_table``: all algorithms of a
configuration are estimated in ONE multi-scenario EPIC job with common
random numbers, and each is reported with its paired difference from
greedyWM at the same budget point.
"""
from __future__ import annotations

import time
from functools import cache, partial

import numpy as np
import pandas as pd

from repro.alloc.baselines import bundle_disj, item_disj
from repro.alloc.comic_baselines import rr_cim, rr_sim_plus
from repro.alloc.greedy_wm import AllocationResult, greedy_wm
from repro.core import configs
from repro.diffusion.epic import simulate_welfare_multi
from repro.diffusion.ic import spread_mc
from repro.graphs.generator import SocialGraph

N_WORLDS, SEED = 8, 0
N_ITEMS = 10                        # Figs. 5 and 7(c)/8(c)
SKEW_FRACS = (0.2, 0.02)            # configs 8/9: max and min budget share of the total
COMIC_POINT = 1                     # Fig. 3: the one budget point RR-SIM⁺/RR-CIM run at
COMIC_SKIPPED = ("twitter-lite",)   # Fig. 4: the paper's >6h Com-IC timeout on Twitter
FIG4_CONFIG = 1
ALGORITHMS = ("greedyWM", "item-disj", "bundle-disj", "RR-SIM+", "RR-CIM")
AGNOSTIC = ALGORITHMS[:2]           # utility-agnostic: one allocation per budget vector

#: ``(algorithm, point) -> (allocation, seconds)``. A point is a tuple of
#: ``(column, value)`` pairs, the budget point's columns in the table.
Runs = dict[tuple[str, tuple], tuple[AllocationResult, float]]


def _point(**columns) -> tuple:
    return tuple(columns.items())


#: One small engine call per graph, so that no timed allocation pays for
#: starting the Python workers or broadcasting the graph's CSR.
_warm_up = cache(lambda graph: spread_mc(graph, [0], n_worlds=1, seed=SEED))


def _allocate(graph: SocialGraph, model, name: str, budgets) -> tuple[AllocationResult, float]:
    """Run allocator ``name`` at ``budgets`` (one per item) three times,
    after an untimed warm-up: the allocation (every call returns the same)
    and the median wall time of the calls in seconds."""
    b = list(budgets)
    run = {
        "greedyWM": lambda: greedy_wm(graph, b, seed=SEED),
        "item-disj": lambda: item_disj(graph, b, seed=SEED),
        "bundle-disj": lambda: bundle_disj(graph, model, b, seed=SEED),
        "RR-SIM+": lambda: rr_sim_plus(graph, model, *b, seed=SEED),
        "RR-CIM": lambda: rr_cim(graph, model, *b, seed=SEED),
    }[name]
    _warm_up(graph)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = run()
        times.append(time.perf_counter() - t0)
    return res, float(np.median(times))


def _allocator(graph: SocialGraph):
    """``_allocate`` on ``graph``, running greedyWM and item-disj once per
    budget vector across configurations (their timing is the first run's)."""
    agnostic = cache(partial(_allocate, graph, None))
    return lambda model, name, bv: (agnostic(name, tuple(bv)) if name in AGNOSTIC
                                    else _allocate(graph, model, name, bv))


def welfare_table(graph: SocialGraph, model, runs: Runs) -> pd.DataFrame:
    """One row per entry of ``runs``, in its order: the point's columns,
    the algorithm, welfare, adoptions, ``vs_greedyWM`` ± ``se`` (the paired
    per-world welfare difference from greedyWM at the same point, which
    every point must have) and the allocation time.

    All allocations share one ``simulate_welfare_multi`` call, so they see
    the same worlds. The call's welfare sums depend on the allocations'
    order (``epic._loop_order``), so ``runs`` order fixes their last bits.
    """
    welfare = simulate_welfare_multi(
        graph, model, {key: res.allocation for key, (res, _) in runs.items()},
        n_worlds=N_WORLDS, seed=SEED,
    )
    rows = []
    for (name, point), (_, t) in runs.items():
        r = welfare[name, point]
        diff = r.per_world_welfare - welfare["greedyWM", point].per_world_welfare
        rows.append({
            **dict(point),
            "algorithm": name,
            "welfare": round(r.welfare, 1),
            "adoptions": round(r.adoptions, 1),
            "vs_greedyWM": round(diff.mean(), 1),
            "se": round(diff.std(ddof=1) / np.sqrt(N_WORLDS), 1),
            "alloc_time_s": round(t, 3),
        })
    return pd.DataFrame(rows)


def _timing_row(graph: SocialGraph, model, name: str, budgets, **columns) -> dict:
    res, t = _allocate(graph, model, name, budgets)
    return {"network": graph.name, **columns, "algorithm": name,
            "time_s": round(t, 3), "note": f"n_rr={res.n_rr} calls={res.sampling_calls}"}


def skewed_budgets(n_items: int, total: int) -> list[int]:
    """Configs 8/9 style: max budget = 20% of total, min = 2%, rest even.

    Returned non-increasing (item 0 = max budget, item n−1 = min)."""
    mx, mn = (max(1, round(total * f)) for f in SKEW_FRACS)
    rest = total - mx - mn
    n_mid = n_items - 2
    mid = [rest // n_mid] * n_mid
    for i in range(rest - sum(mid)):
        mid[i] += 1
    return sorted([mx] + mid + [mn], reverse=True)


def two_item_welfare(
    graph: SocialGraph,
    config_ids: list[int],
    *,
    uniform_ks: list[int],
    nonuniform_b1: int,
    nonuniform_b2s: list[int],
) -> pd.DataFrame:
    """Figs. 3 & 8(a,b): welfare of the 5 algorithms, 2-item configs.

    Paper setup: uniform budgets k = 10..50, nonuniform b1 = 70 with
    b2 = 30..110, Douban-Movie; scaled here to the lite networks. The
    Com-IC baselines (RR-SIM⁺/RR-CIM) are run at one budget point per
    config (index ``COMIC_POINT``) to bound runtime, as in the paper's own
    timeout handling.
    """
    allocate, tables = _allocator(graph), []
    for cfg in config_ids:
        model, style = configs.two_item_model(cfg), configs.TABLE3_BUDGET_STYLE[cfg]
        # paper: nonuniform fixes i1's budget and sweeps i2's (past i1's at the top end)
        vectors = ([(k, k) for k in uniform_ks] if style == "uniform"
                   else [(nonuniform_b1, b2) for b2 in nonuniform_b2s])
        runs = {}
        for bi, bv in enumerate(vectors):
            point = _point(config=cfg, network=graph.name, budget_style=style, b1=bv[0], b2=bv[1])
            for name in ALGORITHMS if bi == COMIC_POINT else ALGORITHMS[:3]:
                runs[name, point] = allocate(model, name, bv)
        tables.append(welfare_table(graph, model, runs))
    return pd.concat(tables, ignore_index=True)


def runtime_comparison(graphs: list[SocialGraph]) -> pd.DataFrame:
    """Fig. 4: allocation running time of the 5 algorithms, config 1,
    k = 10 per item.

    The paper times RR-SIM⁺/RR-CIM out after 6h on Twitter; we likewise
    skip them on ``twitter-lite`` and mark the rows 'timeout'.
    """
    model, rows = configs.two_item_model(FIG4_CONFIG), []
    for g in graphs:
        for name in ALGORITHMS:
            if name in ALGORITHMS[3:] and g.name in COMIC_SKIPPED:
                rows.append({"network": g.name, "algorithm": name, "time_s": None,
                             "note": "skipped (paper: >6h timeout on Twitter)"})
            else:
                rows.append(_timing_row(g, model, name, [10, 10]))
    return pd.DataFrame(rows)


def multi_item_welfare(graph: SocialGraph) -> pd.DataFrame:
    """Fig. 5: welfare of greedyWM / item-disj / bundle-disj, configs
    7–10, 10 items, total budget 50 / 80 / 100 (paper: 500..1000 on the
    full networks)."""
    allocate, tables = _allocator(graph), []
    for cfg in (7, 8, 9, 10):
        model = configs.multi_item_model(cfg, N_ITEMS)
        runs = {}
        for total in (50, 80, 100):
            bv = ([max(1, total // N_ITEMS)] * N_ITEMS if cfg in (7, 10)
                  else skewed_budgets(N_ITEMS, total))
            point = _point(config=cfg, network=graph.name, total_budget=total)
            for name in ALGORITHMS[:3]:
                runs[name, point] = allocate(model, name, bv)
        tables.append(welfare_table(graph, model, runs))
    return pd.concat(tables, ignore_index=True)


def items_vs_runtime(graph: SocialGraph, *, item_counts: list[int], k: int) -> pd.DataFrame:
    """Fig. 6: allocation time vs number of items, config 7, budget k
    per item (paper: k = 50, 1–10 items, Twitter)."""
    return pd.DataFrame([
        _timing_row(graph, configs.additive_model(s), name, [k] * s, n_items=s)
        for s in item_counts for name in ALGORITHMS[:3]
    ])


def real_params_welfare(graph: SocialGraph, *, totals: list[int]) -> pd.DataFrame:
    """Fig. 7(a,b): greedyWM vs bundle-disj under the learned Table 5
    utilities; budget split 30/30/20/10/10% over (ps, c, g1, g2, g3)
    (paper totals 100..500). item-disj is omitted — every single item has
    negative deterministic utility, so its welfare is 0 (§6.4.1)."""
    model, runs = configs.real_model(), {}
    for total in totals:
        bv = [max(1, round(total * f)) for f in (0.3, 0.3, 0.2, 0.1, 0.1)]
        for name in ("greedyWM", "bundle-disj"):
            runs[name, _point(network=graph.name, total_budget=total)] = _allocate(graph, model, name, bv)
    return welfare_table(graph, model, runs)


def budget_skew(graph: SocialGraph) -> pd.DataFrame:
    """Figs. 7(c)/8(c): greedyWM welfare + time under three splits of a
    total budget of 50 over 10 items, config 7: the paper's splits of 500
    (equal; 10, 20, …, 90; one item 82%) scaled to 50."""
    model = configs.additive_model(N_ITEMS)
    splits = {
        "uniform": [5] * 10,
        "moderate-skew": [9, 8, 7, 6, 5, 5, 4, 3, 2, 1],
        "large-skew": [41] + [1] * 9,
    }
    runs = {("greedyWM", _point(split=name, budgets=str(bv), total=sum(bv))):
            _allocate(graph, model, "greedyWM", bv) for name, bv in splits.items()}
    return welfare_table(graph, model, runs).drop(columns=["algorithm", "vs_greedyWM", "se"])
