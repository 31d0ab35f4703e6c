"""Reference implementations and helpers that only the tests use.

- ``spark_coin`` is Spark's own ``xxhash64`` coin over DataFrame columns,
  and ``coin`` the same draw over NumPy arrays, chained from the engine's
  hash steps; the engine's kernels chain those steps themselves.
- ``assert_equivalent`` checks a Spark result against DuckDB SQL.
- ``exact_reachable`` and ``spread_exact_enumeration`` are the exact
  reachability and spread the engine's Monte-Carlo answers are held to.
- ``er_graph`` builds small random graphs, and ``rr_sets`` packs a list
  of per-set arrays as ``RRSets``.
- ``g_table_dp`` is the g-table as a DP that ORs together every tied
  subset, the reference for ``utility.g_table``'s scan.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.diffusion.reach import _seeded, _unit, _xxh64
from repro.graphs.generator import SocialGraph, _unique_pairs, from_edge_pairs
from repro.im.rrsets import RRSets

_TWO_64 = float(2**64)


def spark_coin(seed: int, *cols: Column | str) -> Column:
    """Deterministic uniform [0,1) draw keyed by (seed, *cols).

    ``xxhash64`` gives a signed 64-bit hash; shifting into [0,1) yields a
    reproducible coin that is *consistent* across jobs touching the same
    key — this is how a possible world's edge statuses are "remembered"
    (§3.2 step 1) without materializing them: the same (world, src, dst)
    always flips the same coin.
    """
    hashed = F.xxhash64(F.lit(seed), *[F.col(c) if isinstance(c, str) else c for c in cols])
    return hashed.cast("double") / F.lit(_TWO_64) + F.lit(0.5)


def coin(seed: int, *cols: tuple[np.ndarray, str]) -> np.ndarray:
    """``spark_coin(seed, *cols)`` over arrays of ``(values, kind)``, hashed
    as Spark hashes that type: ``"int"`` for world ids, ``"long"`` for RR
    and node ids, and for a seed literal that does not fit in 32 bits."""
    h = _seeded(seed)
    for x, kind in cols:
        h = _xxh64(x, h, kind)
    return _unit(h)


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    """Run ``sql`` in DuckDB over ``tables`` and assert that its sorted rows
    match ``spark_df``'s.

    ``tables`` may be Spark or pandas DataFrames; Spark inputs are
    collected via ``.toPandas()``. Alias every output column identically
    on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
    ``count_star()``) and project to scalar columns — array/map/struct
    columns are not orderable so cannot be compared here.
    """
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )


def exact_reachable(graph: SocialGraph, seeds: list[int]) -> set[int]:
    """Deterministic reachability (valid when every edge has p = 1)."""
    adj: dict[int, list[int]] = {}
    for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
        adj.setdefault(s, []).append(d)
    return _closure(adj, seeds)


def spread_exact_enumeration(graph: SocialGraph, seeds: list[int]) -> float:
    """Exact σ(S) by enumerating all 2^m edge worlds (tiny graphs only)."""
    m = graph.m
    assert m <= 16, "exact enumeration is 2^m"
    total = 0.0
    es = list(zip(graph.src.tolist(), graph.dst.tolist(), graph.p.tolist()))
    for world in range(1 << m):
        prob = 1.0
        adj: dict[int, list[int]] = {}
        for j, (s, d, p) in enumerate(es):
            if world >> j & 1:
                prob *= p
                adj.setdefault(s, []).append(d)
            else:
                prob *= 1.0 - p
        if prob == 0.0:
            continue
        total += prob * len(_closure(adj, seeds))
    return total


def _closure(adj: dict[int, list[int]], seeds: list[int]) -> set[int]:
    """Nodes reachable from ``seeds`` along the adjacency lists ``adj``."""
    seen = set(int(s) for s in seeds)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def er_graph(
    spark: SparkSession, *, name: str, n: int, m_target: int, seed: int = 0
) -> SocialGraph:
    """Small Erdős–Rényi-style directed graph."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(int(m_target * 1.3), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.column_stack(_unique_pairs(pairs[:, 0], pairs[:, 1], n))[:m_target]
    return from_edge_pairs(spark, pairs, name=name, n=n, directed=True)


def rr_sets(sets: list[np.ndarray]) -> RRSets:
    """The RR sets ``sets``, each an array of distinct nodes, as one ``RRSets``."""
    return RRSets(np.concatenate([np.zeros(0, np.int64), *sets]),
                  np.cumsum([0] + [len(s) for s in sets], dtype=np.int64))


def g_table_dp(utilities: np.ndarray, n_items: int) -> np.ndarray:
    """``g[D]`` = unique maximal argmax of utility over subsets of D.

    DP over masks in increasing order: the best value over subsets of
    ``m`` is the max of U(m) and the best over each ``m`` minus one item;
    the arg is the OR of every achieving subset (their union also achieves
    the max when utility is supermodular, Lemma 2).
    """
    size = 1 << n_items
    best = np.empty(size)
    arg = np.zeros(size, dtype=np.int64)
    best[0] = utilities[0]
    for m in range(1, size):
        b = utilities[m]
        a = m
        rem = m
        while rem:
            bit = rem & (-rem)
            rem ^= bit
            s = m ^ bit
            if best[s] > b + 1e-12:
                b, a = best[s], arg[s]
            elif abs(best[s] - b) <= 1e-12:
                a |= arg[s]
        best[m], arg[m] = b, a
    return arg
