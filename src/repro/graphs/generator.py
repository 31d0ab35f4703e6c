"""Social-network substrate: synthetic stand-ins for the paper's datasets.

The paper evaluates on Flixster, Douban-Book, Douban-Movie and Twitter
(Table 2). Those require crawled data we cannot download, so we generate
deterministic power-law graphs with the same *shape* at reduced scale
(documented in DESIGN.md / EXPERIMENTS.md): Flixster-lite is undirected
with the highest average degree of the three small networks, the
Douban-lites are directed and sparser, Twitter-lite is the largest and by
far the densest (paper avg degree 70.5).

Edges carry the weighted-cascade influence probability
``p(u, v) = 1 / d_in(v)`` (§6.1.3). A graph is NumPy edge arrays held on
the driver; the diffusion engine reads them as a broadcast CSR.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession

from repro.diffusion.reach import build_csr


@dataclass(eq=False)
class SocialGraph:
    """A directed influence graph: edge arrays (src, dst, p) + metadata.

    ``n`` counts nodes 0..n-1 (isolated nodes allowed); ``m`` is the
    number of directed edges stored; ``directed`` is False when the edge
    list is a symmetrized undirected graph (each pair stored both ways).
    """

    name: str
    n: int
    directed: bool
    src: np.ndarray
    dst: np.ndarray
    p: np.ndarray
    spark: SparkSession

    @property
    def m(self) -> int:
        return len(self.src)

    @cached_property
    def edges(self) -> DataFrame:
        """The edges as a Spark DataFrame ``(src, dst, p)``, made on first
        use, for SQL checks; the engine reads ``csr``."""
        pdf = pd.DataFrame({"src": self.src, "dst": self.dst, "p": self.p})
        return self.spark.createDataFrame(pdf, "src long, dst long, p double")

    @cached_property
    def csr(self) -> Broadcast:
        """The edges as ``diffusion.reach.build_csr`` arrays, broadcast to
        the workers on first use."""
        return self.spark.sparkContext.broadcast(build_csr(self.n, self.src, self.dst, self.p))


def _unique_pairs(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(src, dst)`` pairs of nodes in [0, n), in
    ``np.unique(axis=0)``'s order: the unique packed keys ``src * n + dst``,
    which sort by ``src`` then ``dst``, unpacked."""
    return np.divmod(np.unique(src * n + dst), n)


def from_edge_pairs(
    spark: SparkSession,
    pairs: np.ndarray,
    *,
    name: str,
    n: int,
    directed: bool = True,
) -> SocialGraph:
    """Build a SocialGraph from an (m, 2) array of (src, dst) pairs of
    node ids in [0, n), with p = 1/d_in(dst).

    Self-loops and duplicate edges are dropped; undirected graphs are
    symmetrized (both directions stored).
    """
    pairs = np.asarray(pairs, np.int64).reshape(-1, 2)
    if len(pairs) and not 0 <= pairs.min() <= pairs.max() < n:
        raise ValueError(f"node ids must lie in [0, {n}) on graph {name}")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if not directed:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    src, dst = _unique_pairs(pairs[:, 0], pairs[:, 1], n)
    p = 1.0 / np.bincount(dst, minlength=n)[dst]
    return SocialGraph(name, n, directed, src, dst, p, spark)


ZIPF_EXPONENT = 0.8  # of the stand-in networks' endpoint rank weights


def power_law_graph(
    spark: SparkSession,
    *,
    name: str,
    n: int,
    m_target: int,
    directed: bool,
    seed: int,
) -> SocialGraph:
    """Deterministic heavy-tailed random graph.

    Endpoints are drawn from a Zipf-like rank distribution with exponent
    ``ZIPF_EXPONENT`` over two independent node permutations (so in- and
    out-degree hubs differ), giving power-law-ish in/out degree tails like
    real social networks. ``m_target`` is approximate (duplicates and
    self-loops are dropped). For undirected graphs ``m_target`` counts
    undirected pairs.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-ZIPF_EXPONENT)
    w /= w.sum()
    n_draw = int(m_target * 1.25)
    perm_src = rng.permutation(n)
    perm_dst = rng.permutation(n)
    src = perm_src[rng.choice(n, size=n_draw, p=w)]
    dst = perm_dst[rng.choice(n, size=n_draw, p=w)]
    pairs = np.column_stack(_unique_pairs(src, dst, n))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if len(pairs) > m_target:
        keep = rng.choice(len(pairs), size=m_target, replace=False)
        pairs = pairs[np.sort(keep)]
    return from_edge_pairs(spark, pairs, name=name, n=n, directed=directed)


#: Edges of the Figure 1 example network (all probabilities 1). Nodes are
#: 0-indexed: paper's v1..v7 are 0..6. Reachability: v5 (=4) reaches
#: {v3..v7} (5 nodes incl. itself), v1 (=0) reaches {v1..v4} (4 nodes).
FIG1_EDGES = [(0, 1), (1, 2), (2, 3), (4, 2), (4, 5), (5, 6)]


def fig1_graph(spark: SparkSession) -> SocialGraph:
    """The 7-node example network of Figure 1 with p = 1 on every edge."""
    g = from_edge_pairs(spark, np.array(FIG1_EDGES), name="fig1", n=7)
    return replace(g, p=np.ones(g.m))


#: Stand-in sizes: name -> (n, m_target, directed, seed). Paper sizes in
#: parentheses: Flixster 12.9K/192K undirected, Douban-Book 23.3K/141K,
#: Douban-Movie 34.9K/274K, Twitter 41.7M/1.47G. We scale to laptop-Spark
#: size keeping relative density (Twitter-lite avg degree ~70).
NETWORK_SPECS = {
    "flixster-lite": (1500, 22200, False, 11),
    "douban-book-lite": (2300, 14950, True, 12),
    "douban-movie-lite": (3500, 27650, True, 13),
    "twitter-lite": (5000, 352500, True, 14),
}


def load_network(spark: SparkSession, name: str) -> SocialGraph:
    """Build one of the four stand-in networks by name."""
    n, m, directed, seed = NETWORK_SPECS[name]
    return power_law_graph(
        spark, name=name, n=n, m_target=m, directed=directed, seed=seed
    )
