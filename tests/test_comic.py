"""Tests for the RR-SIM+ / RR-CIM Com-IC baselines."""
import numpy as np
import pytest

from repro.alloc import comic_baselines
from repro.alloc.comic_baselines import adoption_frequency, rr_cim, rr_sim_plus
from repro.core import configs
from repro.graphs.generator import power_law_graph
from repro.im.imm import imm
from repro.im.rrsets import sample_rr_sets
from tests.oracles import er_graph


@pytest.fixture(scope="module")
def graph(spark):
    return power_law_graph(spark, name="pl-comic", n=200, m_target=1200, directed=True, seed=31)


def test_adoption_frequency_bounds(graph):
    freq = adoption_frequency(graph, [0, 1, 2], 0.5, n_worlds=8, seed=0)
    assert freq.shape == (graph.n,)
    assert np.all((freq >= 0) & (freq <= 1))


def test_adoption_frequency_q_one_is_reachability(spark):
    """q = 1 degenerates to plain IC spread: every informed node adopts."""
    g = er_graph(spark, name="er-comic", n=50, m_target=250, seed=1)
    f1 = adoption_frequency(g, [0], 1.0, n_worlds=4, seed=2)
    f_half = adoption_frequency(g, [0], 0.5, n_worlds=4, seed=2)
    assert f1.sum() >= f_half.sum()
    assert f1[0] == 1.0
    assert adoption_frequency(g, [0, 0], 1.0, n_worlds=4, seed=2)[0] == 1.0


def test_adoption_frequency_zero_q(graph):
    freq = adoption_frequency(graph, [0], 0.0, n_worlds=4, seed=3)
    assert freq.sum() == 0.0


@pytest.mark.parametrize("cfg", [1, 3])
def test_rr_sim_plus_budgets(graph, cfg):
    m = configs.two_item_model(cfg)
    res = rr_sim_plus(graph, m, 4, 3, seed=4)
    assert len(res.seeds_per_item[0]) == 4
    assert len(res.seeds_per_item[1]) == 3
    for item in (0, 1):
        count = sum(1 for mask in res.allocation.values() if mask >> item & 1)
        assert count <= [4, 3][item]


def test_rr_cim_budgets(graph):
    m = configs.two_item_model(1)
    res = rr_cim(graph, m, 3, 3, seed=5)
    assert len(res.seeds_per_item[0]) == 3
    assert len(res.seeds_per_item[1]) == 3


def test_comic_baselines_do_more_rr_work(graph):
    """The reimplementations must preserve the runtime ordering: both do
    strictly more RR-set work than greedyWM (Fig. 4)."""
    from repro.alloc.greedy_wm import greedy_wm

    m = configs.two_item_model(1)
    gw = greedy_wm(graph, [4, 3], seed=6)
    rsp = rr_sim_plus(graph, m, 4, 3, seed=6)
    rcm = rr_cim(graph, m, 4, 3, seed=6)
    assert rsp.n_rr > gw.n_rr
    assert rcm.n_rr > gw.n_rr


def test_comic_n_rr_counts_sampled_sets(graph, monkeypatch):
    """RR-SIM⁺'s and RR-CIM's ``n_rr`` is IMM's ``n_rr`` (the sets its
    seeds come from, look-ahead tails not counted) plus the sets of their
    own weighted collections: one for RR-SIM⁺, two for RR-CIM."""
    sampled = []

    def counting(*args, **kwargs):
        sets = sample_rr_sets(*args, **kwargs)
        sampled.append(len(sets))
        return sets

    monkeypatch.setattr(comic_baselines, "sample_rr_sets", counting)
    m = configs.two_item_model(1)
    for allocate, imm_budget, own_calls in ((rr_sim_plus, 3, 1), (rr_cim, 4, 2)):
        sampled.clear()
        base = imm(graph, imm_budget, seed=6)
        res = allocate(graph, m, 4, 3, seed=6)
        assert res.n_rr == base.n_rr + sum(sampled)
        assert len(sampled) == own_calls
        assert res.sampling_calls == base.sampling_calls + own_calls


def test_rr_sim_plus_complementary_config_copies_hubs(graph):
    """Config 1 (strong complementarity, q_{1|2}=0.99): item-1 seeds
    should overlap the plain-IM hubs that item 2 occupies — the paper's
    observation that Com-IC algorithms 'end up copying the seeds'."""
    m = configs.two_item_model(1)
    res = rr_sim_plus(graph, m, 4, 4, seed=7)
    overlap = set(res.seeds_per_item[0]) & set(res.seeds_per_item[1])
    assert len(overlap) >= 1
