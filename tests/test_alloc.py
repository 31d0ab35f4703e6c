"""Tests for greedyWM and the item-disj / bundle-disj baselines."""
import pytest

from repro.alloc.baselines import bundle_disj, item_disj
from repro.alloc.greedy_wm import AllocationResult, greedy_wm
from repro.core import configs
from repro.core.itemsets import popcount
from repro.diffusion.epic import simulate_welfare_multi
from repro.graphs.generator import fig1_graph, power_law_graph


@pytest.fixture(scope="module")
def graph(spark):
    return power_law_graph(spark, name="pl-alloc", n=250, m_target=1500, directed=True, seed=21)


def test_allocation_derived_from_seed_lists_in_their_order():
    """node -> mask ORs each node's items; nodes come in ``seeds_per_item``
    order."""
    res = AllocationResult({1: [5, 6], 0: [6, 7]})
    assert list(res.allocation.items()) == [(5, 0b10), (6, 0b11), (7, 0b01)]


# ---- greedyWM ----------------------------------------------------------


def test_greedywm_nested_prefix_structure(graph):
    """Item i gets exactly the top-b_i prefix — allocations are nested
    (Algorithm 1, line 4)."""
    res = greedy_wm(graph, [6, 4, 2], seed=1)
    s0, s1, s2 = (res.seeds_per_item[i] for i in range(3))
    assert len(s0) == 6 and len(s1) == 4 and len(s2) == 2
    assert s1 == s0[:4] and s2 == s0[:2]
    # top-2 nodes carry all three items
    for v in s2:
        assert res.allocation[v] == 0b111


def test_greedywm_respects_budgets(graph):
    res = greedy_wm(graph, [5, 3], seed=2)
    for item, b in enumerate([5, 3]):
        count = sum(1 for m in res.allocation.values() if m >> item & 1)
        assert count == b


def test_greedywm_on_fig1_matches_example1(spark):
    """With budgets (2,1,1) greedyWM allocates all items to v5 and i1
    also to v1 — exactly Example 1's greedy allocation."""
    g = fig1_graph(spark)
    res = greedy_wm(g, [2, 1, 1], seed=0)
    assert res.allocation[4] == 0b111
    assert res.allocation[0] == 0b001


# ---- item-disj ---------------------------------------------------------


def test_item_disj_one_item_per_seed(graph):
    res = item_disj(graph, [4, 3, 2], seed=3)
    for mask in res.allocation.values():
        assert popcount(mask) == 1
    assert len(res.allocation) == 9   # disjoint seeds, Σb in total


def test_item_disj_budget_order(graph):
    """Items are served in non-increasing budget order: the largest-
    budget item gets the top-ranked seeds."""
    res = item_disj(graph, [4, 2], seed=4)
    gw = greedy_wm(graph, [6], seed=4)
    # item 0's seeds are the global top-4 of the same ranking
    assert res.seeds_per_item[0] == gw.seeds_per_item[0][:4]


# ---- bundle-disj -------------------------------------------------------


def test_bundle_disj_config1_equals_greedywm_uniform(graph):
    """Configs 1: individual items negative, only bundle {i1,i2}. With a
    uniform budget bundle-disj's allocation coincides with greedyWM
    (§6.2: 'greedyWM and bundle-disj are equivalent')."""
    m = configs.two_item_model(1)
    k = 4
    bd = bundle_disj(graph, m, [k, k], seed=5)
    gw = greedy_wm(graph, [k, k], seed=5)
    assert bd.allocation == gw.allocation


def test_bundle_disj_config3_equals_item_disj(graph):
    """Config 3: both items individually non-negative ⇒ bundles are
    singletons ⇒ bundle-disj ≡ item-disj in allocation shape."""
    m = configs.two_item_model(3)
    bd = bundle_disj(graph, m, [3, 3], seed=6)
    for mask in bd.allocation.values():
        assert popcount(mask) == 1
    idj = item_disj(graph, [3, 3], seed=6)
    assert sorted(bd.allocation) == sorted(idj.allocation)


def test_bundle_disj_real_model_bundle_shape(graph):
    """Real config: the minimum non-negative bundle is {ps, c, 2 games}
    (§6.4.1); every seeded mask contains ps+c and ≥2 games."""
    m = configs.real_model()
    bd = bundle_disj(graph, m, [3, 3, 2, 1, 1], seed=7)
    seeded = [mask for mask in bd.allocation.values()]
    assert any(mask & 0b11 == 0b11 and popcount(mask >> 2) >= 2 for mask in seeded)


def test_bundle_disj_budgets_not_exceeded(graph):
    m = configs.two_item_model(5)
    budgets = [5, 3]
    bd = bundle_disj(graph, m, budgets, seed=8)
    for item, b in enumerate(budgets):
        count = sum(1 for mask in bd.allocation.values() if mask >> item & 1)
        assert count <= b


def test_cone_config_bundle_contains_core(graph):
    """Config 8: the only non-negative bundles contain the core item."""
    m = configs.cone_model(4, core=0, name="cone")
    bd = bundle_disj(graph, m, [4, 3, 2, 1], seed=9)
    for mask in bd.allocation.values():
        if popcount(mask) > 1 or mask == 1:
            assert mask & 1, bin(mask)


# ---- end-to-end welfare ordering --------------------------------------


def test_greedywm_beats_item_disj_when_bundling_matters(graph):
    """Config 1 (individual items negative): item-disj earns ~0 welfare
    while greedyWM earns strictly positive welfare (Fig. 3a claim)."""
    m = configs.two_item_model(1)
    gw = greedy_wm(graph, [4, 4], seed=10)
    idj = item_disj(graph, [4, 4], seed=10)
    res = simulate_welfare_multi(
        graph, m, {"gw": gw.allocation, "idj": idj.allocation}, n_worlds=6, seed=11
    )
    assert res["gw"].welfare > res["idj"].welfare
    assert res["gw"].welfare > 0


def test_greedywm_not_below_item_disj_under_config3(spark):
    """Config 3 (both items individually non-negative) at [6, 6] on an
    800-node graph: greedyWM's welfare is at least item-disj's in the
    shared worlds."""
    g = power_law_graph(spark, name="pl-2item", n=800, m_target=5600, directed=True, seed=41)
    m = configs.two_item_model(3)
    gw = greedy_wm(g, [6, 6], seed=1)
    idj = item_disj(g, [6, 6], seed=1)
    bdj = bundle_disj(g, m, [6, 6], seed=1)
    res = simulate_welfare_multi(
        g, m, {"gw": gw.allocation, "idj": idj.allocation, "bdj": bdj.allocation},
        n_worlds=4, seed=2,
    )
    assert res["gw"].welfare >= res["idj"].welfare - 1e-9


@pytest.mark.parametrize("config,budgets,graph_seed", [
    ("additive", [3] * 10, 43),          # config 7 with 10 items (Fig. 5)
    ("real", [6, 6, 4, 2, 2], 47),       # Table 5's learned model (Fig. 7)
])
def test_greedywm_welfare_positive(spark, config, budgets, graph_seed):
    """greedyWM's allocation on an 800-node graph is adopted and earns
    positive welfare, on the g-table and on the pair-table path."""
    g = power_law_graph(spark, name=f"pl-{config}", n=800, m_target=5600, directed=True,
                        seed=graph_seed)
    m = configs.additive_model(10) if config == "additive" else configs.real_model()
    gw = greedy_wm(g, budgets, seed=1)
    r = simulate_welfare_multi(g, m, {"gw": gw.allocation}, n_worlds=4, seed=2)["gw"]
    assert r.welfare > 0
    assert r.adoptions > 0
