"""Network statistics (Table 2) from the edge arrays."""
from __future__ import annotations

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

