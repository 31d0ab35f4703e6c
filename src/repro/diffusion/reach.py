"""Partition-local reachability, the engine behind IC spread, RR-set
sampling and the Com-IC adoption frequencies (DESIGN.md). ``coin`` ports
``diffusion.common.coin`` to NumPy, so it flips the coins Spark flips."""
import sys

import numpy as np
import pandas as pd
from pyspark import cloudpickle

# Jobs carry this module's code, so workers need not have ``repro`` on their path.
cloudpickle.register_pickle_by_value(sys.modules[__name__])

_P1, _P2, _P3, _P4, _P5 = map(np.uint64, (
    0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0x85EBCA77C2B2AE63, 0x27D4EB2F165667C5,
))


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _xxh64(x, h: np.ndarray, kind: str) -> np.ndarray:
    """Spark's ``XXH64.hashInt`` (``kind="int"``) or ``hashLong`` of ``x``, seeded ``h``."""
    x = np.asarray(x, np.int64).view(np.uint64)
    if kind == "int":
        h = (h + _P5 + np.uint64(4)) ^ ((x & np.uint64(0xFFFFFFFF)) * _P1)
        h = _rotl(h, 23) * _P2 + _P3
    else:
        h = (h + _P5 + np.uint64(8)) ^ (_rotl(x * _P2, 31) * _P1)
        h = _rotl(h, 27) * _P1 + _P4
    h = (h ^ (h >> np.uint64(33))) * _P2
    h = (h ^ (h >> np.uint64(29))) * _P3
    return h ^ (h >> np.uint64(32))


def coin(seed: int, *cols: tuple[np.ndarray, str]) -> np.ndarray:
    """``diffusion.common.coin(seed, *cols)`` over arrays of ``(values, kind)``,
    hashed as Spark hashes that type: ``"int"`` for world ids, ``"long"`` for
    RR and node ids, and for a seed literal that does not fit in 32 bits."""
    h = _xxh64([seed], np.full(1, 42, np.uint64), "int" if -(2**31) <= seed < 2**31 else "long")
    for x, kind in cols:
        h = _xxh64(x, h, kind)
    return h.view(np.int64) / 2.0**64 + 0.5


def build_csr(n: int, src: np.ndarray, dst: np.ndarray, p: np.ndarray) -> tuple:
    """Forward and reverse adjacency ``(ptr, neighbour, p)`` of nodes
    0..n-1; node u's edges are ``ptr[u]:ptr[u + 1]``."""
    def by(a: np.ndarray, b: np.ndarray) -> tuple:
        order = np.argsort(a, kind="stable")
        return np.r_[0, np.cumsum(np.bincount(a, minlength=n))], b[order], p[order]
    return by(src, dst), by(dst, src)


def reach(
    csr: tuple, keys: np.ndarray, starts: np.ndarray, *, edge_seed: int, key_type: str,
    reverse: bool = False, accept: tuple[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched BFS: the nodes each key (an IC possible world or an RR set)
    reaches from its start nodes in its own live-edge world.

    ``keys[i]`` starts at ``starts[i]`` (repeats are ignored). Edge (u, v)
    is live for key k iff ``coin(edge_seed, k, u, v) < p(u, v)``, also when
    ``reverse`` walks it backwards. With ``accept = (seed, q)`` a reached
    node v is kept iff ``coin(seed, k, v) < q[v]``; a rejected node is
    visited but not expanded. The visited set only grows, so the search
    ends without a cap. Returns the kept ``(keys, nodes)``, sorted.
    """
    ptr, nbr, prob = csr[1] if reverse else csr[0]
    n = len(ptr) - 1
    ukeys, kidx = np.unique(keys, return_inverse=True)
    frontier = visited = np.unique(kidx * n + starts)
    kept = [visited[:0]]
    while len(frontier):
        k, u = np.divmod(frontier, n)
        if accept is not None:
            ok = coin(accept[0], (ukeys[k], key_type), (u, "long")) < accept[1][u]
            frontier, k, u = frontier[ok], k[ok], u[ok]
        kept.append(frontier)
        deg = ptr[u + 1] - ptr[u]
        e = np.repeat(ptr[u] + deg - np.cumsum(deg), deg) + np.arange(deg.sum())
        k, u, v = np.repeat(k, deg), np.repeat(u, deg), nbr[e]
        src, dst = (v, u) if reverse else (u, v)
        live = coin(edge_seed, (ukeys[k], key_type), (src, "long"), (dst, "long")) < prob[e]
        reached = np.unique(k[live] * n + v[live])
        frontier = reached[np.isin(reached, visited, assume_unique=True, invert=True)]
        visited = np.union1d(visited, frontier)
    out = np.sort(np.concatenate(kept))
    return ukeys[out // n], out % n


def reach_spark(graph, keys, starts, **kw) -> tuple[np.ndarray, np.ndarray]:
    """``reach`` over ``graph.csr()`` in one Spark job: task i of
    ``defaultParallelism`` takes the keys equal to i modulo their number."""
    spark, csr = graph.edges.sparkSession, graph.csr()
    n_shards = spark.sparkContext.defaultParallelism

    def run(batches):
        for i in pd.concat(batches)["id"]:
            mine = keys % n_shards == i
            k, v = reach(csr.value, keys[mine], starts[mine], **kw)
            yield pd.DataFrame({"key": k, "node": v})

    shards = spark.range(n_shards, numPartitions=n_shards)
    out = shards.mapInPandas(run, "key long, node long").toPandas()
    order = np.argsort(out["key"].to_numpy(), kind="stable")
    return out["key"].to_numpy()[order], out["node"].to_numpy()[order]
