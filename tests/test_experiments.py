"""Tests for the table/figure harnesses (schemas and paper-diff checks)."""
import dataclasses

import numpy as np
import pytest

from repro.alloc.greedy_wm import AllocationResult
from repro.core import configs
from repro.diffusion.epic import allocation_from_pairs, simulate_welfare_multi
from repro.experiments.figures import N_WORLDS, SEED, skewed_budgets, welfare_table
from repro.graphs.generator import fig1_graph
from tests.test_epic import ALT, GREEDY
from repro.experiments.tables import (
    PAPER_TABLE2,
    PAPER_TABLE3_GAP,
    table2,
    table3,
    table4,
    table5,
)


def test_table3_derived_matches_paper_everywhere():
    df = table3()
    assert len(df) == 24  # 6 configs x 4 GAP params
    mismatch = df[(df["derived"] - df["paper"]).abs() > 0.005]
    assert mismatch.empty, mismatch


@pytest.mark.parametrize("cfg", [1, 2, 3, 4, 5, 6])
def test_table3_has_all_configs(cfg):
    df = table3()
    assert (df["config"] == cfg).sum() == 4


def test_table4_structural_claims():
    for n_items in (6, 10):  # the paper's 10 items, and a smaller lattice of the same structure
        df = table4(n_items=n_items)
        assert list(df["config"]) == [7, 8, 9, 10]
        assert df["supermodular_value"].all()
        assert df["monotone_value"].all()
        # config 7: every nonempty set has positive det utility (2^n - 1)
        assert int(df[df["config"] == 7]["n_positive_det_utility"].iloc[0]) == 2**n_items - 1
        # configs 8/9: exactly the supersets of the core: 2^(n-1)
        for cfg in (8, 9):
            assert int(df[df["config"] == cfg]["n_positive_det_utility"].iloc[0]) == 2**(n_items - 1)


def test_table5_learning_recovers_ground_truth():
    for n_auctions, seed in ((300, 1), (400, 0)):  # (400, 0): the Table 5 job's call
        df = table5(n_auctions=n_auctions, seed=seed)
        assert len(df) == 5
        rel_err = (df["learned_value"] - df["paper_value"]).abs() / df["paper_value"]
        assert (rel_err < 0.02).all(), df
        # naive estimator is biased low vs the corrected one
        assert (df["naive_value"] < df["learned_value"]).all()


def test_paper_table2_reference_shape(spark):
    assert list(PAPER_TABLE2["network"]) == [
        "Flixster", "Douban-Book", "Douban-Movie", "Twitter",
    ]
    df = table2(spark)  # the four stand-ins
    assert len(df) == 4
    assert set(df["type"]) == {"directed", "undirected"}


def test_paper_gap_reference_covers_all_configs():
    assert set(PAPER_TABLE3_GAP) == {1, 2, 3, 4, 5, 6}


def test_skewed_budgets_sum_and_shape():
    bv = skewed_budgets(10, 100)
    assert sum(bv) == 100
    assert bv == sorted(bv, reverse=True)
    assert bv[0] == 20 and bv[-1] == 2   # 20% max, 2% min


def test_skewed_budgets_small_total():
    bv = skewed_budgets(10, 50)
    assert sum(bv) == 50
    assert bv[0] == 10 and bv[-1] == 1


def _result(pairs) -> AllocationResult:
    seeds: dict[int, list[int]] = {}
    for v, item in pairs:
        seeds.setdefault(item, []).append(v)
    return AllocationResult(seeds)


def test_welfare_table_pairs_every_row_with_greedy(spark):
    """Example 1's two allocations on Figure 1's edges at p = 0.5 (so the
    worlds differ): each row's ``vs_greedyWM`` ± ``se`` is the paired
    per-world difference of a direct EPIC call, in input order."""
    fig1 = fig1_graph(spark)
    g = dataclasses.replace(fig1, name="fig1-half", p=np.full(fig1.m, 0.5))
    model, point = configs.example_model(), (("network", g.name), ("b", 3))
    table = welfare_table(g, model, {("alt", point): (_result(ALT), 1.0),
                                     ("greedyWM", point): (_result(GREEDY), 2.0)})
    direct = simulate_welfare_multi(
        g, model, {"alt": allocation_from_pairs(ALT), "greedyWM": allocation_from_pairs(GREEDY)},
        n_worlds=N_WORLDS, seed=SEED,
    )
    diff = direct["alt"].per_world_welfare - direct["greedyWM"].per_world_welfare
    se = diff.std(ddof=1) / np.sqrt(N_WORLDS)
    assert se > 0
    assert list(table.columns) == ["network", "b", "algorithm", "welfare", "adoptions",
                                   "vs_greedyWM", "se", "alloc_time_s"]
    assert table["algorithm"].tolist() == ["alt", "greedyWM"]
    assert table["welfare"].tolist() == [round(direct[k].welfare, 1) for k in ("alt", "greedyWM")]
    assert table["vs_greedyWM"].tolist() == [round(diff.mean(), 1), 0.0]
    assert table["se"].tolist() == [round(se, 1), 0.0]
    assert table["alloc_time_s"].tolist() == [1.0, 2.0]
