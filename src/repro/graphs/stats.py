"""Network statistics (Table 2) from the edge arrays, and per-node degrees
as a Spark aggregation over the ``edges`` view."""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.generator import SocialGraph


def network_stats(graph: SocialGraph) -> dict:
    """Table 2 row: nodes, edges, avg degree, type.

    Mirrors the paper's convention (#edges = stored pairs for directed
    graphs / undirected pairs for undirected ones; avg degree =
    edges/nodes, matching e.g. 192K/12.9K = 14.8 for Flixster).
    """
    m_directed = graph.m
    m_report = m_directed if graph.directed else m_directed // 2
    return {
        "network": graph.name,
        "nodes": graph.n,
        "edges": m_report,
        "avg_degree": round(m_report / graph.n, 1),
        "type": "directed" if graph.directed else "undirected",
    }


def degree_table(graph: SocialGraph) -> DataFrame:
    """Per-node (in_degree, out_degree) as a Spark DataFrame."""
    e = graph.edges
    outd = e.groupBy(F.col("src").alias("node")).agg(F.count("*").alias("out_degree"))
    ind = e.groupBy(F.col("dst").alias("node")).agg(F.count("*").alias("in_degree"))
    return (
        outd.join(ind, "node", "outer")
        .select(
            "node",
            F.coalesce("in_degree", F.lit(0)).alias("in_degree"),
            F.coalesce("out_degree", F.lit(0)).alias("out_degree"),
        )
    )
