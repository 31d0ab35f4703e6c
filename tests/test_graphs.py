"""Tests for the graph substrate, oracle-checked against DuckDB."""
import hashlib

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.diffusion.ic import spread_mc
from repro.graphs.generator import (
    FIG1_EDGES,
    NETWORK_SPECS,
    _unique_pairs,
    fig1_graph,
    from_edge_pairs,
    load_network,
    power_law_graph,
)
from repro.experiments.tables import network_stats
from tests.oracles import assert_equivalent, er_graph


@pytest.fixture(scope="module")
def small_graph(spark):
    return power_law_graph(spark, name="pl-small", n=200, m_target=1200, directed=True, seed=3)


def test_fig1_structure(spark):
    g = fig1_graph(spark)
    got = {(r.src, r.dst) for r in g.edges.collect()}
    assert got == set(FIG1_EDGES)
    assert g.edges.where(F.col("p") != 1.0).count() == 0


def test_weighted_cascade_probabilities(small_graph):
    """p(u,v) = 1/d_in(v) (§6.1.3): per-node incoming p's sum to 1."""
    sums = (
        small_graph.edges.groupBy("dst")
        .agg(F.sum("p").alias("s"))
        .toPandas()
    )
    assert np.allclose(sums["s"], 1.0)


@pytest.mark.parametrize("directed", [True, False])
def test_weighted_cascade_matches_duckdb(spark, directed):
    """p(u,v) = 1/d_in(v) on every edge, against DuckDB over the same
    (src, dst) pairs, for a directed and a symmetrized undirected graph."""
    g = power_law_graph(spark, name="pl-wc", n=150, m_target=600, directed=directed, seed=5)
    assert_equivalent(
        g.edges,
        "SELECT src, dst, 1.0 / count(*) OVER (PARTITION BY dst) AS p FROM edges",
        edges=g.edges.select("src", "dst"),
    )


@pytest.mark.parametrize("pairs", [[[0, 5], [1, 2]], [[-1, 2], [1, 2]]])
def test_out_of_range_node_ids_rejected(spark, pairs):
    with pytest.raises(ValueError, match="oob"):
        from_edge_pairs(spark, np.array(pairs), name="oob", n=3)


def test_build_and_spread_launch_one_spark_job(spark):
    """Building a graph launches no Spark job; ``spread_mc`` on it, one."""
    sc, group = spark.sparkContext, "test-graphs-job-count"
    sc.setJobGroup(group, "from_edge_pairs + spread_mc")
    try:
        g = from_edge_pairs(spark, np.array([[0, 1], [1, 2], [2, 3]]), name="jobs", n=4)
        spread_mc(g, [0], n_worlds=4, seed=0)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1


def test_edge_count_matches_duckdb(small_graph):
    spark_df = small_graph.edges.agg(F.count("*").alias("m"))
    assert_equivalent(
        spark_df, "SELECT count(*) AS m FROM edges", edges=small_graph.edges
    )


def test_undirected_graph_symmetrized(spark):
    pairs = np.array([[0, 1], [1, 2], [2, 0]])
    g = from_edge_pairs(spark, pairs, name="tri", n=3, directed=False)
    got = {(r.src, r.dst) for r in g.edges.collect()}
    assert got == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)}
    assert network_stats(g)["edges"] == 3  # undirected pairs


def test_no_self_loops_or_duplicates(small_graph):
    e = small_graph.edges
    assert e.where(F.col("src") == F.col("dst")).count() == 0
    assert e.count() == e.select("src", "dst").distinct().count()


def test_generator_deterministic(spark):
    a = power_law_graph(spark, name="a", n=100, m_target=400, directed=True, seed=9)
    b = power_law_graph(spark, name="b", n=100, m_target=400, directed=True, seed=9)
    pa = sorted(map(tuple, a.edges.select("src", "dst").collect()))
    pb = sorted(map(tuple, b.edges.select("src", "dst").collect()))
    assert pa == pb


def test_power_law_has_hubs(small_graph):
    """Heavy-tailed: max degree far above average (social-network shape)."""
    deg = np.bincount(small_graph.src)
    assert deg.max() > 5 * deg.mean()


def test_network_stats_fields(spark):
    g = er_graph(spark, name="er", n=50, m_target=200, seed=1)
    s = network_stats(g)
    assert s["nodes"] == 50
    assert s["type"] == "directed"
    assert s["avg_degree"] == pytest.approx(s["edges"] / 50, abs=0.1)


@pytest.mark.parametrize("directed", [True, False])
def test_packed_unique_is_axis0_unique(directed):
    """Unique packed ``src * n + dst`` keys give ``np.unique(axis=0)``'s
    pairs in its order, duplicates, self-loops and both directions included."""
    rng = np.random.default_rng(5)
    for n in (1, 7, 300):
        pairs = rng.integers(0, n, size=(4000, 2))
        if not directed:
            pairs = np.concatenate([pairs, pairs[:, ::-1]])
        want = np.unique(pairs, axis=0)
        got = np.column_stack(_unique_pairs(pairs[:, 0], pairs[:, 1], n))
        assert np.array_equal(got, want)


# SHA-256 (first 16 hex digits) of the stand-in networks' src, dst and p,
# each array's dtype string then its bytes, recorded when the builds took
# the unique of the (src, dst) rows with np.unique(axis=0).
NETWORK_DIGESTS = {
    "flixster-lite": "dcd4c8e95b37f795",
    "douban-book-lite": "ba6465214214d8a3",
    "douban-movie-lite": "443502751d02a4a9",
    "twitter-lite": "fe391e1cc4791525",
}


@pytest.mark.parametrize("name", NETWORK_SPECS)
def test_stand_in_networks_keep_their_edges(spark, name):
    g = load_network(spark, name)
    h = hashlib.sha256()
    for a in (g.src, g.dst, g.p):
        h.update(a.dtype.str.encode() + a.tobytes())
    assert h.hexdigest()[:16] == NETWORK_DIGESTS[name]
