"""Random reverse-reachable (RR) set sampling and greedy max-cover.

RR-set *generation* — the dominant cost in IMM/PRIMM — runs on the
reachability engine (``diffusion.reach``): thousands of RR sets grow as
independent reverse BFSs, sharded across the workers in one Spark job,
with a deterministic coin per ``(rr_id, src, dst)``. Each RR set may
retain nodes with a per-node probability (``node_prob``), which is how the
Com-IC baselines reweight RR sets by GAP adoption probabilities.

RR sets stay flat (``RRSets``, one CSR pair) from the engine's output to
``RRCollection``, which accumulates them on the driver and runs IMM's
``NodeSelection`` (lazy-free plain greedy max-cover with an inverted
index) — sequential by nature, tiny at our scale, as in the reference
IMM implementation.
"""
from __future__ import annotations

import numpy as np

from repro.diffusion.reach import csr_slots, reach_spark
from repro.graphs.generator import SocialGraph


class RRSets:
    """RR sets as one CSR pair: set ``i`` is ``nodes[ptr[i]:ptr[i + 1]]``.

    Reads as a sequence of per-set arrays through ``len``, step-1 slices
    (views that share ``nodes``) and iteration.
    """

    def __init__(self, nodes: np.ndarray, ptr: np.ndarray) -> None:
        self.nodes, self.ptr = nodes, ptr

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, i: slice) -> RRSets:
        start, stop, step = i.indices(len(self))
        if step != 1:
            raise ValueError("RR sets slice with step 1 only")
        return RRSets(self.nodes, self.ptr[start:max(start, stop) + 1])

    def __iter__(self):
        ptr = self.ptr.tolist()
        return (self.nodes[a:b] for a, b in zip(ptr[:-1], ptr[1:]))


def sample_rr_sets(
    graph: SocialGraph,
    n_rr: int | list[int],
    *,
    seed: int,
    id_offset: int = 0,
    node_probs: np.ndarray | None = None,
) -> RRSets:
    """Generate ``n_rr`` RR sets in one Spark job.

    Roots are uniform over V. An edge (u, v) is traversed (reverse
    direction) iff its coin keyed ``(seed, rr_id, u, v)`` is < p(u, v).
    If ``node_probs`` is given (length n), a traversed-to node u is kept
    in the RR set iff its coin keyed ``(seed + 7, rr_id, u)`` is <
    ``node_probs[u]`` — rejected nodes do not extend the BFS (used by the
    Com-IC baselines; plain IC keeps every node).

    Returns the RR sets, each sorted, for RR ids ``id_offset, id_offset +
    1, …``; ``id_offset`` shifts the coin keys so successive batches are
    independent. The roots of a batch at offset ``o`` are the first draws
    of ``default_rng((seed, o))``, so a batch is the prefix of any larger
    batch at the same offset. A list ``n_rr`` of consecutive batch sizes
    draws each batch from its own offset's stream, all in one job:
    ``sample_rr_sets(g, [a, b], id_offset=o)`` holds the sets of
    ``sample_rr_sets(g, a, id_offset=o)`` then ``sample_rr_sets(g, b,
    id_offset=o + a)``.
    """
    sizes = [n_rr] if np.ndim(n_rr) == 0 else list(n_rr)
    if not sum(sizes):
        return RRSets(np.zeros(0, np.int64), np.zeros(1, np.int64))
    offsets = id_offset + np.cumsum([0] + sizes[:-1])
    roots = np.concatenate([
        np.random.default_rng((seed, int(o))).integers(0, graph.n, size=t)
        for o, t in zip(offsets, sizes)
    ])
    ids = np.arange(len(roots) + 1, dtype=np.int64) + id_offset
    accept = None if node_probs is None else (seed + 7, node_probs)
    keys, nodes = reach_spark(graph, ids[:-1], roots, edge_seed=seed, key_type="long",
                              reverse=True, accept=accept)
    return RRSets(nodes, np.searchsorted(keys, ids))


class RRCollection:
    """Driver-side accumulator of RR sets + greedy NodeSelection."""

    def __init__(self, n_nodes: int) -> None:
        self.n = n_nodes
        self.sets = RRSets(np.zeros(0, np.int64), np.zeros(1, np.int64))

    def __len__(self) -> int:
        return len(self.sets)

    def extend(self, new_sets: RRSets) -> None:
        """Append RR sets."""
        nodes, ptr, ours = new_sets.nodes, new_sets.ptr, self.sets.ptr
        self.sets = RRSets(np.concatenate([self.sets.nodes, nodes[ptr[0]:ptr[-1]]]),
                           np.concatenate([ours, ours[-1] + (ptr[1:] - ptr[0])]))

    def node_selection(self, k: int) -> tuple[list[int], np.ndarray]:
        """IMM's NodeSelection: greedy max ``k``-cover over the RR sets.

        Returns the ordered seed list (length ``min(k, n)``) and the
        cumulative covered *fraction* after each prefix, so
        ``F_R(S_j) = coverage[j-1]`` — exactly what PRIMM's check needs.
        """
        n_rr, nodes, ptr = len(self.sets), self.sets.nodes, self.sets.ptr
        if n_rr == 0:
            return [], np.zeros(0)
        counts = np.bincount(nodes, minlength=self.n)
        # inverted index: node v lies in the sets holder[at[v]:at[v + 1]], in any order
        holder = np.repeat(np.arange(n_rr), np.diff(ptr))[np.argsort(nodes)]
        at = np.r_[0, np.cumsum(counts)]
        covered = np.zeros(n_rr, dtype=bool)
        seeds: list[int] = []
        coverage: list[float] = []
        n_cov = 0
        for _ in range(min(k, self.n)):
            v = int(counts.argmax())
            seeds.append(v)
            new = holder[at[v]:at[v + 1]]
            new = new[~covered[new]]
            covered[new] = True
            n_cov += len(new)
            # every member of a newly covered set loses that set
            np.subtract.at(counts, nodes[csr_slots(ptr, new)], 1)
            counts[v] = -1  # never picked twice, even once every set is covered
            coverage.append(n_cov / n_rr)
        return seeds, np.asarray(coverage)

    def coverage_of(self, seeds: list[int]) -> float:
        """F_R(S): fraction of RR sets intersecting ``seeds``."""
        if not len(self.sets):
            return 0.0
        seed_set = np.zeros(self.n, dtype=bool)
        seed_set[np.asarray(seeds, dtype=np.int64)] = True
        hit = np.zeros(len(self.sets), dtype=bool)
        at = np.flatnonzero(seed_set[self.sets.nodes])  # where seeds sit in the sets
        hit[np.searchsorted(self.sets.ptr, at, "right") - 1] = True
        return np.count_nonzero(hit) / len(self.sets)
