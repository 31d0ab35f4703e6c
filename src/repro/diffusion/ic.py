"""Single-item independent-cascade diffusion (§2).

``spread_mc`` estimates the expected spread σ(S) from W edge possible
worlds, one key each of the reachability engine (``diffusion.reach``).
Edge liveness is the hash coin keyed by (world, src, dst), so the same
seed reproduces the same worlds — and nested seed sets see *consistent*
worlds (used to test monotonicity and submodularity of σ per-world).
The tests hold it to exact reachability and to σ enumerated over every
edge world (``tests/oracles.py``).
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
    graph: SocialGraph, seeds: list[int], *, n_worlds: int, seed: int
) -> float:
    """Monte-Carlo estimate of the expected spread σ(seeds)."""
    return len(reached(graph, seeds, n_worlds=n_worlds, seed=seed)[1]) / n_worlds

