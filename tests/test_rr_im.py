"""Tests for RR-set sampling, NodeSelection, IMM and PRIMM."""
import numpy as np
import pytest

from repro.diffusion.ic import spread_mc
from repro.graphs.generator import fig1_graph, power_law_graph
from repro.im.imm import imm
from repro.im.primm import lambda_prime, lambda_star, log_binom, primm
from repro.im.rrsets import RRCollection, sample_rr_sets


@pytest.fixture(scope="module")
def graph(spark):
    return power_law_graph(spark, name="pl-im", n=250, m_target=1500, seed=8)


# ---- RR sets -----------------------------------------------------------


def test_rr_sets_contain_root_ancestors_only(spark):
    """On Fig. 1 (p=1): the RR set of a root is exactly the nodes that
    can reach it."""
    g = fig1_graph(spark)
    sets = sample_rr_sets(g, 40, seed=0)
    # invert: reachable-to relation. fig1 edges 0->1->2->3, 4->2, 4->5->6
    can_reach = {
        0: {0}, 1: {0, 1}, 2: {0, 1, 2, 4}, 3: {0, 1, 2, 3, 4},
        4: {4}, 5: {4, 5}, 6: {4, 5, 6},
    }
    for s in sets:
        root_candidates = [r for r, anc in can_reach.items() if set(s) == anc]
        assert root_candidates, f"RR set {sorted(s)} matches no root's ancestor set"


def test_rr_sets_deterministic(graph):
    a = sample_rr_sets(graph, 50, seed=5)
    b = sample_rr_sets(graph, 50, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_rr_batches_independent(graph):
    a = sample_rr_sets(graph, 30, seed=5, id_offset=0)
    b = sample_rr_sets(graph, 30, seed=5, id_offset=30)
    assert not all(np.array_equal(x, y) for x, y in zip(a, b))


def test_node_prob_filter_shrinks_sets(graph):
    full = sample_rr_sets(graph, 60, seed=6)
    filtered = sample_rr_sets(
        graph, 60, seed=6, node_probs=np.full(graph.n, 0.2)
    )
    assert sum(map(len, filtered)) < sum(map(len, full))


# ---- NodeSelection -----------------------------------------------------


def test_node_selection_greedy_cover():
    rr = RRCollection(5)
    rr.extend([np.array(s) for s in ([0, 1], [0, 2], [0, 3], [4], [4, 1])])
    seeds, cov = rr.node_selection(2)
    assert seeds[0] == 0                 # covers 3 of 5
    assert cov[0] == pytest.approx(3 / 5)
    assert seeds[1] == 4                 # covers remaining 2
    assert cov[1] == pytest.approx(1.0)


def test_coverage_of_matches_node_selection():
    rr = RRCollection(6)
    rng = np.random.default_rng(0)
    rr.extend([rng.choice(6, size=rng.integers(1, 4), replace=False) for _ in range(40)])
    seeds, cov = rr.node_selection(3)
    assert rr.coverage_of(seeds) == pytest.approx(cov[-1])


def test_empty_collection():
    rr = RRCollection(4)
    seeds, cov = rr.node_selection(2)
    assert seeds == [] and len(cov) == 0
    assert rr.coverage_of([1]) == 0.0


# ---- IMM / PRIMM -------------------------------------------------------


def test_imm_fig1_picks_v5_then_v1(spark):
    g = fig1_graph(spark)
    res = imm(g, 2, seed=0)
    assert res.seeds[:2] == [4, 0]


def test_lambda_formulas_monotone_in_k():
    n = 1000
    lp = [lambda_prime(n, k, 0.7, 1.2) for k in (1, 5, 20, 50)]
    ls = [lambda_star(n, k, 0.5, 1.2) for k in (1, 5, 20, 50)]
    assert lp == sorted(lp) and ls == sorted(ls)


def test_log_binom():
    assert log_binom(10, 2) == pytest.approx(np.log(45))
    assert log_binom(5, 5) == 0.0


def test_imm_quality_vs_random(graph):
    """IMM's seeds should beat random seeds by a clear margin."""
    k = 5
    res = imm(graph, k, seed=1)
    rng = np.random.default_rng(0)
    rand = list(rng.choice(graph.n, size=k, replace=False))
    s_imm = spread_mc(graph, res.seeds[:k], n_worlds=16, seed=2)
    s_rand = spread_mc(graph, rand, n_worlds=16, seed=2)
    assert s_imm > s_rand


def test_primm_prefix_preserving(graph):
    """Definition 1: for every budget b_i, the top-b_i prefix of the
    PRIMM output is within (1-1/e-ε) of a dedicated IMM run (we compare
    against IMM's own achieved spread as the OPT proxy)."""
    budgets = [8, 4, 2]
    pres = primm(graph, budgets, seed=3)
    assert len(pres.seeds) >= 8
    for b in budgets:
        prefix = pres.seeds[:b]
        dedicated = imm(graph, b, seed=4).seeds[:b]
        s_prefix = spread_mc(graph, prefix, n_worlds=16, seed=5)
        s_dedicated = spread_mc(graph, dedicated, n_worlds=16, seed=5)
        assert s_prefix >= (1 - 1 / np.e - 0.5) * s_dedicated


def test_primm_reuses_rr_sets_across_budgets(graph):
    """PRIMM's RR count is governed by the max budget — far below the
    sum of dedicated IMM runs (the Fig. 6 runtime claim)."""
    pres = primm(graph, [8, 6, 4, 2], seed=6)
    total_dedicated = sum(imm(graph, b, seed=6).n_rr for b in (8, 6, 4, 2))
    assert pres.n_rr < total_dedicated


def test_primm_seed_order_is_greedy_order(graph):
    """The returned set is ordered: every prefix is the greedy cover
    prefix, so coverage is non-decreasing and concave-ish."""
    pres = primm(graph, [6], seed=7)
    assert len(pres.coverage) == 6
    assert np.all(np.diff(pres.coverage) >= -1e-12)
