"""Single-item independent-cascade diffusion (§2).

``spread_mc`` estimates the expected spread σ(S) from W edge possible
worlds, one key each of the reachability engine (``diffusion.reach``).
Edge liveness is the hash coin keyed by (world, src, dst), so the same
seed reproduces the same worlds — and nested seed sets see *consistent*
worlds (used to test monotonicity and submodularity of σ per-world).
"""
from __future__ import annotations

import numpy as np

from repro.diffusion.reach import reach_spark
from repro.graphs.generator import SocialGraph


def reached(
    graph: SocialGraph, seeds: list[int], *, n_worlds: int, seed: int, accept=None
) -> tuple[np.ndarray, np.ndarray]:
    """(world, node) of each node active at the end of diffusion from
    ``seeds`` in ``n_worlds`` worlds; ``accept`` as in ``reach.reach``."""
    worlds = np.repeat(np.arange(n_worlds), len(seeds))
    starts = np.tile(np.asarray(seeds, np.int64), n_worlds)
    return reach_spark(graph, worlds, starts, edge_seed=seed, key_type="int", accept=accept)


def spread_mc(
    graph: SocialGraph, seeds: list[int], *, n_worlds: int = 32, seed: int = 0
) -> float:
    """Monte-Carlo estimate of the expected spread σ(seeds)."""
    return len(reached(graph, seeds, n_worlds=n_worlds, seed=seed)[1]) / n_worlds


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
