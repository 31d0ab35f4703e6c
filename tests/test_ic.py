"""Tests for the IC diffusion engine — exact spreads on Fig. 1, MC vs
exact enumeration on tiny graphs, and reachability vs a DuckDB
recursive-CTE oracle."""
import dataclasses

import numpy as np
import pytest

from repro.diffusion.ic import reached, spread_mc
from repro.graphs.generator import fig1_graph, from_edge_pairs
from tests.oracles import (
    assert_equivalent,
    er_graph,
    exact_reachable,
    spread_exact_enumeration,
)


@pytest.fixture(scope="module")
def fig1(spark):
    return fig1_graph(spark)


@pytest.mark.parametrize(
    "seeds,expected",
    [([4], 5.0), ([0], 4.0), ([1], 3.0), ([6], 1.0), ([0, 4], 7.0), ([4, 4], 5.0)],
)
def test_fig1_exact_spreads(fig1, seeds, expected):
    """All p = 1 ⇒ spread is deterministic reachability (σ(v5)=5, σ(v1)=4
    per Example 1)."""
    assert spread_mc(fig1, seeds, n_worlds=2, seed=0) == expected
    assert len(exact_reachable(fig1, seeds)) == expected


def test_mc_matches_exact_enumeration(spark):
    """MC estimate converges to the exact spread (enumerated over all
    2^m edge worlds) on a 4-node graph with fractional probabilities."""
    pairs = np.array([[0, 1], [0, 2], [1, 3], [2, 3], [1, 2]])
    g = from_edge_pairs(spark, pairs, name="tiny", n=4)
    exact = spread_exact_enumeration(g, [0])
    mc = spread_mc(g, [0], n_worlds=800, seed=1)
    assert mc == pytest.approx(exact, rel=0.1)


def test_spread_monotone_in_seeds_per_world(spark):
    """σ is monotone; with consistent hash-coin worlds this holds in
    every sampled world, not just in expectation."""
    g = er_graph(spark, name="er-mono", n=80, m_target=400, seed=2)
    small = np.bincount(reached(g, [0, 1], n_worlds=8, seed=5)[0], minlength=8)
    big = np.bincount(reached(g, [0, 1, 2, 3], n_worlds=8, seed=5)[0], minlength=8)
    assert (big >= small).all()


def test_reachability_matches_duckdb_recursive(spark):
    """p = 1 reachability from a seed vs DuckDB WITH RECURSIVE."""
    pairs = np.array(
        [[0, 1], [1, 2], [2, 3], [3, 1], [0, 4], [4, 5], [6, 0], [5, 2]]
    )
    g = from_edge_pairs(spark, pairs, name="reach", n=7)
    # force p=1 on every edge
    g = dataclasses.replace(g, p=np.ones(g.m))
    _, nodes = reached(g, [0], n_worlds=1, seed=0)
    spark_df = spark.createDataFrame([(int(v),) for v in np.unique(nodes)], "node long")
    assert_equivalent(
        spark_df,
        """
        WITH RECURSIVE r(node) AS (
            SELECT 0::BIGINT AS node
            UNION
            SELECT e.dst FROM edges e JOIN r ON e.src = r.node
        )
        SELECT node FROM r
        """,
        edges=g.edges.select("src", "dst"),
    )


def test_worlds_deterministic_in_seed(spark):
    g = er_graph(spark, name="er-det", n=60, m_target=300, seed=4)
    a, b, c = (reached(g, [0, 5], n_worlds=8, seed=s) for s in (11, 11, 12))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_empty_seed_set(spark):
    g = er_graph(spark, name="er-empty", n=20, m_target=60, seed=6)
    assert spread_mc(g, [], n_worlds=4, seed=0) == 0.0
