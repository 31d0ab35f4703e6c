"""Tests for the EPIC diffusion simulator — Example 1 end-to-end, the
model's proven properties (Theorem 1, Lemma 4, Theorem 2's asymmetries,
Theorem 3's guarantee against the exact optimum), and consistency of the
multi-allocation batched evaluation."""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from repro.core import configs
from repro.core.utility import g_table
from repro.diffusion import epic
from repro.diffusion.epic import (
    allocation_from_pairs,
    final_adoptions,
    simulate_welfare_multi,
)
from repro.graphs.generator import FIG1_EDGES, fig1_graph
from tests.oracles import er_graph, exact_reachable, spread_exact_enumeration


@pytest.fixture(scope="module")
def fig1(spark):
    return fig1_graph(spark)


@pytest.fixture(scope="module")
def example():
    return configs.example_model()


# ---- Example 1 ---------------------------------------------------------

GREEDY = [(4, 0), (4, 1), (4, 2), (0, 0)]     # all 3 items -> v5; i1 -> v1
ALT = [(0, 0), (0, 1), (4, 0), (4, 2)]        # {i1,i2} -> v1; {i1,i3} -> v5


def test_example1_greedy_welfare_15(fig1, example):
    alloc = {"a": allocation_from_pairs(GREEDY)}
    r = simulate_welfare_multi(fig1, example, alloc, n_worlds=2, seed=0)["a"]
    assert r.welfare == pytest.approx(15.0)
    assert r.adoptions == pytest.approx(15.0)


def test_example1_alternative_welfare_11_adoptions_16(fig1, example):
    """The allocation with MORE adoptions (16 vs 15) has LESS welfare
    (11 vs 15) — the paper's motivating misalignment."""
    alloc = {"a": allocation_from_pairs(ALT)}
    r = simulate_welfare_multi(fig1, example, alloc, n_worlds=2, seed=0)["a"]
    assert r.welfare == pytest.approx(11.0)
    assert r.adoptions == pytest.approx(16.0)


def test_example1_adoption_sets(fig1, example):
    """v1,v2 adopt {i1,i2}; v3,v4 adopt all; v5,v6,v7 adopt {i1,i3}."""
    adopt = final_adoptions(fig1, example, allocation_from_pairs(ALT), n_worlds=1, seed=0)
    got = dict(zip(adopt["node"], adopt["adopt"]))
    assert got[0] == 0b011 and got[1] == 0b011
    assert got[2] == 0b111 and got[3] == 0b111
    assert got[4] == 0b101 and got[5] == 0b101 and got[6] == 0b101


def test_example1_seed_adopts_nothing_alone(fig1, example):
    """i1 alone has negative utility: a lone i1 seed adopts nothing and
    nothing propagates."""
    r = simulate_welfare_multi(fig1, example, {"a": {0: 0b001}}, n_worlds=2, seed=0)["a"]
    assert r.welfare == 0.0 and r.adoptions == 0.0


def _exact_welfare(model, allocation, edges, p) -> float:
    """E[welfare] of a zero-noise model: a plain synchronous EPIC in every
    one of the 2^m live-edge worlds, weighted by its probability."""
    util = model.det_utility()
    g = g_table(util, model.n_items)
    total = 0.0
    for world in range(1 << len(edges)):
        live = [e for j, e in enumerate(edges) if world >> j & 1]
        desire = dict(allocation)
        adopt = {v: int(g[d]) for v, d in desire.items()}
        frontier = {v for v, a in adopt.items() if a}
        while frontier:
            msgs: dict[int, int] = {}
            for u, v in live:
                if u in frontier:
                    msgs[v] = msgs.get(v, 0) | adopt[u]
            frontier = set()
            for v, m in msgs.items():
                desire[v] = desire.get(v, 0) | m
                new = adopt.get(v, 0) | int(g[desire[v]])
                if new != adopt.get(v, 0):
                    frontier.add(v)
                adopt[v] = new
        n_live = len(live)
        total += p**n_live * (1 - p) ** (len(edges) - n_live) * sum(util[a] for a in adopt.values())
    return total


@pytest.mark.parametrize("pairs", [GREEDY, ALT])
def test_welfare_matches_exact_expectation(fig1, example, pairs):
    """Figure 1's edges at p = 0.5: 4,000 Monte-Carlo worlds land within 4
    standard errors of the exact expectation over all 2^6 edge worlds."""
    half = dataclasses.replace(fig1, name="fig1-half", p=np.full(fig1.m, 0.5))
    allocation = allocation_from_pairs(pairs)
    exact = _exact_welfare(example, allocation, FIG1_EDGES, 0.5)
    r = simulate_welfare_multi(half, example, {"a": allocation}, n_worlds=4000, seed=1)["a"]
    se = r.per_world_welfare.std(ddof=1) / np.sqrt(4000)
    assert se > 0
    assert abs(r.welfare - exact) < 4 * se


# ---- model properties --------------------------------------------------


def test_theorem1_monotone_per_world(spark):
    """Theorem 1: welfare is monotone in the allocation — holds in every
    shared possible world thanks to consistent coins."""
    g = er_graph(spark, name="er-epic1", n=60, m_target=300, seed=1)
    m = configs.two_item_model(3)
    small = allocation_from_pairs([(0, 0), (1, 1)])
    big = allocation_from_pairs([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)])
    res = simulate_welfare_multi(g, m, {"small": small, "big": big}, n_worlds=6, seed=3)
    assert np.all(
        res["big"].per_world_welfare >= res["small"].per_world_welfare - 1e-9
    )


def test_lemma4_adoption_propagates_by_reachability(fig1, example):
    """If u adopts item i, every node reachable from u adopts i too."""
    adopt = final_adoptions(
        fig1, example, allocation_from_pairs(GREEDY), n_worlds=1, seed=0
    )
    got = dict(zip(adopt["node"], adopt["adopt"]))
    for u, mask in list(got.items()):
        for v in exact_reachable(fig1, [u]):
            assert got.get(v, 0) & mask == mask


def test_multi_matches_single(spark):
    g = er_graph(spark, name="er-epic2", n=50, m_target=250, seed=2)
    m = configs.two_item_model(1)
    alloc = allocation_from_pairs([(0, 0), (0, 1), (7, 0), (7, 1)])
    multi = simulate_welfare_multi(g, m, {"a": alloc, "b": {}}, n_worlds=4, seed=9)
    single = simulate_welfare_multi(g, m, {"a": alloc}, n_worlds=4, seed=9)["a"]
    assert multi["a"].welfare == pytest.approx(single.welfare)
    assert multi["b"].welfare == 0.0


def test_deterministic_in_seed(spark):
    g = er_graph(spark, name="er-epic3", n=50, m_target=250, seed=3)
    m = configs.two_item_model(5)
    alloc = allocation_from_pairs([(0, 0), (1, 1)])
    a = simulate_welfare_multi(g, m, {"a": alloc}, n_worlds=4, seed=21)["a"].welfare
    b = simulate_welfare_multi(g, m, {"a": alloc}, n_worlds=4, seed=21)["a"].welfare
    assert a == b


def test_per_world_welfare_nonnegative(spark):
    """No node ever ends with a negative-utility adoption set (the
    argmax always admits ∅), so per-world welfare is never negative."""
    g = er_graph(spark, name="er-epic4", n=60, m_target=300, seed=4)
    m = configs.two_item_model(1)
    alloc = allocation_from_pairs([(i, i % 2) for i in range(8)])
    r = simulate_welfare_multi(g, m, {"a": alloc}, n_worlds=6, seed=17)["a"]
    assert np.all(r.per_world_welfare >= -1e-9)


def test_real_model_bundle_spreads(spark):
    """The non-supermodular real model: seeding the full positive bundle
    {ps,c,g1,g2,g3} at a hub yields positive welfare via the pair-table
    path."""
    g = er_graph(spark, name="er-epic5", n=60, m_target=360, seed=5)
    m = configs.real_model()
    alloc = {0: 0b11111, 1: 0b11111}
    r = simulate_welfare_multi(g, m, {"a": alloc}, n_worlds=4, seed=2)["a"]
    assert r.welfare > 0.0
    assert r.adoptions >= 2 * 5  # at least the seeds adopt the bundle


def test_supermodularity_bundling_beats_splitting(fig1, example):
    """Theorem 2 intuition: bundling complements at one hub beats
    splitting them across hubs (the crux of greedyWM's optimality)."""
    bundled = allocation_from_pairs([(4, 0), (4, 1), (4, 2)])
    split = allocation_from_pairs([(4, 0), (0, 1), (1, 2)])
    res = simulate_welfare_multi(
        fig1, example, {"bundled": bundled, "split": split}, n_worlds=2, seed=0
    )
    assert res["bundled"].welfare > res["split"].welfare


def test_empty_allocation(fig1, example):
    r = simulate_welfare_multi(fig1, example, {"a": {}}, n_worlds=2, seed=0)["a"]
    assert r.welfare == 0.0 and r.adoptions == 0.0
    adopt = final_adoptions(fig1, example, {}, n_worlds=2, seed=0)
    assert sorted(adopt) == ["adopt", "node", "world"]
    assert all(len(a) == 0 and a.dtype.kind == "i" for a in adopt.values())


def test_multi_empty_next_to_seeded(fig1, example):
    """Allocations that seed nothing, before and after one that seeds, get
    zero welfare and adoptions in every world; the seeded one is unchanged."""
    res = simulate_welfare_multi(
        fig1, example, {"first": {}, "greedy": allocation_from_pairs(GREEDY), "last": {}},
        n_worlds=3, seed=0,
    )
    for name in ("first", "last"):
        np.testing.assert_array_equal(res[name].per_world_welfare, np.zeros(3))
        assert res[name].adoptions == 0.0
    np.testing.assert_array_equal(res["greedy"].per_world_welfare, np.full(3, 15.0))
    assert res["greedy"].adoptions == 15.0


@pytest.mark.parametrize("mask", [-1, 4, 1 << 40])
def test_masks_outside_the_model_raise(fig1, mask, monkeypatch):
    """A mask that is no itemset of the 2-item model is a ValueError before
    any Spark job, through both entry points, even next to a valid
    allocation: -1 used to wrap around in the table index, and 4 and 2^40
    to fail inside a Spark task."""
    model = configs.two_item_model(1)
    monkeypatch.setattr(epic, "run_sharded", None)
    with pytest.raises(ValueError, match="itemset masks"):
        simulate_welfare_multi(fig1, model, {"ok": {1: 0b11}, "a": {0: mask}}, n_worlds=2, seed=0)
    with pytest.raises(ValueError, match="itemset masks"):
        final_adoptions(fig1, model, {0: mask}, n_worlds=2, seed=0)


def test_all_zero_masks_seed_nothing(fig1):
    """Masks of 0 are dropped: an allocation of only zero masks gets zero
    welfare and adoptions, and no adoption rows."""
    model, alloc = configs.two_item_model(1), {0: 0, 3: 0}
    r = simulate_welfare_multi(fig1, model, {"a": alloc}, n_worlds=2, seed=0)["a"]
    assert r.welfare == 0.0 and r.adoptions == 0.0 and r.supersteps == 0
    adopt = final_adoptions(fig1, model, alloc, n_worlds=2, seed=0)
    assert all(len(a) == 0 for a in adopt.values())


def test_superstep_cap_raises(fig1, example, monkeypatch):
    """Reaching the superstep cap with a live frontier is an error, not a
    silently truncated state: {i1, i2} seeded at v1 needs three supersteps
    to reach v4 along the chain v1→v4."""
    monkeypatch.setattr(epic, "MAX_SUPERSTEPS", 1)
    with pytest.raises(RuntimeError, match="supersteps"):
        final_adoptions(fig1, example, {0: 0b011}, n_worlds=1, seed=0)


def test_superstep_cap_admits_a_cascade_of_its_depth(fig1, example, monkeypatch):
    """The cap bounds the last superstep that changes an adoption: the
    three-superstep cascade of {i1, i2} at v1 passes a cap of 3 and raises
    under a cap of 2."""
    monkeypatch.setattr(epic, "MAX_SUPERSTEPS", 3)
    r = simulate_welfare_multi(fig1, example, {"a": {0: 0b011}}, n_worlds=1, seed=0)["a"]
    assert r.supersteps == 3
    monkeypatch.setattr(epic, "MAX_SUPERSTEPS", 2)
    with pytest.raises(RuntimeError, match="supersteps"):
        simulate_welfare_multi(fig1, example, {"a": {0: 0b011}}, n_worlds=1, seed=0)


def _eccentricity(seeds) -> int:
    """The largest BFS distance from ``seeds`` to a node they reach on Fig. 1."""
    seen, frontier, depth = set(seeds), set(seeds), -1
    while frontier:
        depth += 1
        frontier = {v for u, v in FIG1_EDGES if u in frontier} - seen
        seen |= frontier
    return depth


@pytest.mark.parametrize("seeds", [[0], [4], [0, 4], [2, 6], [3]])
def test_supersteps_are_the_seeds_eccentricity(fig1, example, seeds):
    """p = 1 and the all-items bundle, which every node adopts: the cascade
    changes adoptions for exactly as many supersteps as the seeds' BFS
    eccentricity. One call reports the deepest of its allocations."""
    alloc = {"a": dict.fromkeys(seeds, 0b111)}
    r = simulate_welfare_multi(fig1, example, alloc, n_worlds=2, seed=0)["a"]
    assert r.supersteps == _eccentricity(seeds)
    res = simulate_welfare_multi(
        fig1, example, {"seeds": dict.fromkeys(seeds, 0b111), "v1": {0: 0b111}}, n_worlds=2, seed=0
    )
    assert {x.supersteps for x in res.values()} == {max(_eccentricity(seeds), 3)}


def test_supersteps_zero_when_nothing_adopts(fig1, example):
    """A lone i1 seed adopts nothing, and an empty allocation seeds nothing."""
    for alloc in ({0: 0b001}, {}):
        r = simulate_welfare_multi(fig1, example, {"a": alloc}, n_worlds=2, seed=0)["a"]
        assert r.supersteps == 0


# ---- Theorem 3 against the exact optimum -------------------------------

ZERO_NOISE = [dataclasses.replace(configs.two_item_model(c), noise_std=np.zeros(2)) for c in (1, 3, 5)]
#: Configs 7 (additive) and 8 (cone, core at the max-budget item) at 3 items.
ZERO_NOISE_3 = [dataclasses.replace(configs.multi_item_model(c, 3), noise_std=np.zeros(3)) for c in (7, 8)]


def _pairs_welfare(model, pairs, edges) -> float:
    return _exact_welfare(model, allocation_from_pairs(pairs), edges, 0.5)


def _greedy_wm_exact(graph, budgets: list[int]) -> list[tuple[int, int]]:
    """greedyWM (Algorithm 1) with exact spread in place of PRIMM: seeds
    ordered greedily by ``spread_exact_enumeration``, item i seeded at the
    top-b_i prefix."""
    seeds: list[int] = []
    for _ in range(max(budgets)):
        seeds.append(max((v for v in range(graph.n) if v not in seeds),
                         key=lambda v: spread_exact_enumeration(graph, seeds + [v])))
    return [(v, i) for i, b in enumerate(budgets) for v in seeds[:b]]


def _opt(model, n: int, budgets: list[int], edges) -> float:
    """The best exact welfare over every allocation of at most b_i seeds
    to each item i."""
    within = [[s for k in range(b + 1) for s in itertools.combinations(range(n), k)] for b in budgets]
    return max(_pairs_welfare(model, [(v, i) for i, s in enumerate(pick) for v in s], edges)
               for pick in itertools.product(*within))


@pytest.mark.parametrize("instance", ["fig1", 0, 1, 2, 3, 4, 5])
def test_theorem3_greedy_wm_reaches_1_minus_1_over_e_of_opt(spark, instance):
    """Theorem 3 with exact spread: on Figure 1 and on random graphs of 5
    nodes and at most 6 edges, all at p = 0.5, greedyWM's exact welfare is
    at least (1 − 1/e) of the optimum over every allocation, for zero-noise
    configs 1, 3 and 5 at budgets [2, 1] and [2, 2]; and, on Figure 1 and
    one 3-edge random graph, for zero-noise 3-item configs 7 and 8 at
    budgets [1, 1, 1] and [2, 1, 1] (on all seven instances their OPT
    would add about 7.5 s, on Figure 1 alone about 3 s)."""
    graph = (fig1_graph(spark) if instance == "fig1"
             else er_graph(spark, name=f"er-thm3-{instance}", n=5, m_target=6, seed=instance))
    half = dataclasses.replace(graph, p=np.full(graph.m, 0.5))
    edges = list(zip(half.src.tolist(), half.dst.tolist()))
    assert half.m <= 6 and half.n <= 7
    cases = [(model, budgets) for model in ZERO_NOISE for budgets in ([2, 1], [2, 2])]
    if instance in ("fig1", 1):
        cases += [(model, budgets) for model in ZERO_NOISE_3 for budgets in ([1, 1, 1], [2, 1, 1])]
    for model, budgets in cases:
        rho = _pairs_welfare(model, _greedy_wm_exact(half, budgets), edges)
        opt = _opt(model, half.n, budgets, edges)
        assert opt > 0
        assert rho >= (1 - 1 / math.e) * opt - 1e-9, (model.name, budgets, rho, opt)


def test_welfare_is_neither_submodular_nor_supermodular():
    """The paper's remark, on Figure 1 at p = 0.5 with zero-noise config 1
    (either item alone has utility -1.3, the pair +1), welfare as a set
    function of (node, item) seeds: (v3, i1) gains nothing alone but 1.5
    next to (v3, i2), so it is not submodular; and it gains 1.5 next to
    (v3, i2) but only 0.75 once v2, upstream of v3, also holds the pair,
    so it is not supermodular either."""
    model, x = ZERO_NOISE[0], (2, 0)

    def gain(pairs):
        return _pairs_welfare(model, pairs + [x], FIG1_EDGES) - _pairs_welfare(model, pairs, FIG1_EDGES)

    assert gain([]) == 0.0 and gain([(2, 1)]) == pytest.approx(1.5)
    assert gain([(2, 1), (1, 0), (1, 1)]) == pytest.approx(0.75)
