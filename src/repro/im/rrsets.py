"""Random reverse-reachable (RR) set sampling and greedy max-cover.

RR-set *generation* — the dominant cost in IMM/PRIMM — runs on the
reachability engine (``diffusion.reach``): thousands of RR sets grow as
independent reverse BFSs, sharded across the workers in one Spark job,
with a deterministic coin per ``(rr_id, src, dst)``. Each RR set may
retain nodes with a per-node probability (``node_prob``), which is how the
Com-IC baselines reweight RR sets by GAP adoption probabilities.

``RRCollection`` accumulates generated sets on the driver and runs IMM's
``NodeSelection`` (lazy-free plain greedy max-cover with an inverted
index) — sequential by nature, tiny at our scale, as in the reference
IMM implementation.
"""
from __future__ import annotations

import numpy as np

from repro.diffusion.reach import reach_spark
from repro.graphs.generator import SocialGraph


def sample_rr_sets(
    graph: SocialGraph,
    n_rr: int | list[int],
    *,
    seed: int,
    id_offset: int = 0,
    node_probs: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Generate ``n_rr`` RR sets in one Spark job.

    Roots are uniform over V. An edge (u, v) is traversed (reverse
    direction) iff its coin keyed ``(seed, rr_id, u, v)`` is < p(u, v).
    If ``node_probs`` is given (length n), a traversed-to node u is kept
    in the RR set iff its coin keyed ``(seed + 7, rr_id, u)`` is <
    ``node_probs[u]`` — rejected nodes do not extend the BFS (used by the
    Com-IC baselines; plain IC keeps every node).

    Returns one numpy array of node ids per RR set, for RR ids
    ``id_offset, id_offset + 1, …``; ``id_offset`` shifts the coin keys so
    successive batches are independent. The roots of a batch at offset
    ``o`` are the first draws of ``default_rng((seed, o))``, so a batch is
    the prefix of any larger batch at the same offset. A list ``n_rr`` of
    consecutive batch sizes draws each batch from its own offset's stream,
    all in one job: ``sample_rr_sets(g, [a, b], id_offset=o)`` equals
    ``sample_rr_sets(g, a, id_offset=o) + sample_rr_sets(g, b, id_offset=o + a)``.
    """
    sizes = [n_rr] if np.ndim(n_rr) == 0 else list(n_rr)
    if not sum(sizes):
        return []
    offsets = id_offset + np.cumsum([0] + sizes[:-1])
    roots = np.concatenate([
        np.random.default_rng((seed, int(o))).integers(0, graph.n, size=t)
        for o, t in zip(offsets, sizes)
    ])
    ids = np.arange(len(roots), dtype=np.int64) + id_offset
    accept = None if node_probs is None else (seed + 7, node_probs)
    keys, nodes = reach_spark(graph, ids, roots, edge_seed=seed, key_type="long",
                              reverse=True, accept=accept)
    return np.split(nodes, np.searchsorted(keys, ids[1:]))


class RRCollection:
    """Driver-side accumulator of RR sets + greedy NodeSelection."""

    def __init__(self, n_nodes: int) -> None:
        self.n = n_nodes
        self.sets: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.sets)

    def extend(self, new_sets: list[np.ndarray]) -> None:
        self.sets.extend(new_sets)

    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The sets concatenated: each member node and its RR set's index."""
        lengths = [len(s) for s in self.sets]
        return np.concatenate(self.sets), np.repeat(np.arange(len(self.sets)), lengths)

    def node_selection(self, k: int) -> tuple[list[int], np.ndarray]:
        """IMM's NodeSelection: greedy max ``k``-cover over the RR sets.

        Returns the ordered seed list (length ``min(k, n)``) and the
        cumulative covered *fraction* after each prefix, so
        ``F_R(S_j) = coverage[j-1]`` — exactly what PRIMM's check needs.
        """
        n_rr = len(self.sets)
        if n_rr == 0:
            return [], np.zeros(0)
        flat_nodes, flat_rrs = self._flat()
        counts = np.bincount(flat_nodes, minlength=self.n).astype(np.int64)
        # inverted index node -> rr ids (CSR)
        order = np.argsort(flat_nodes, kind="stable")
        sorted_nodes = flat_nodes[order]
        sorted_rrs = flat_rrs[order]
        starts = np.searchsorted(sorted_nodes, np.arange(self.n + 1))
        covered = np.zeros(n_rr, dtype=bool)
        seeds: list[int] = []
        coverage: list[float] = []
        n_cov = 0
        for _ in range(min(k, self.n)):
            v = int(counts.argmax())
            seeds.append(v)
            for rr in sorted_rrs[starts[v]:starts[v + 1]]:
                if not covered[rr]:
                    covered[rr] = True
                    n_cov += 1
                    s = self.sets[rr]
                    counts[s] -= 1
            counts[v] = -1  # never picked twice, even once every set is covered
            coverage.append(n_cov / n_rr)
        return seeds, np.asarray(coverage)

    def coverage_of(self, seeds: list[int]) -> float:
        """F_R(S): fraction of RR sets intersecting ``seeds``."""
        if not len(self.sets):
            return 0.0
        seed_set = np.zeros(self.n, dtype=bool)
        seed_set[np.asarray(seeds, dtype=np.int64)] = True
        nodes, rrs = self._flat()
        hit = np.zeros(len(self.sets), dtype=bool)
        hit[rrs[seed_set[nodes]]] = True
        return np.count_nonzero(hit) / len(self.sets)
