"""RR-SIM⁺ and RR-CIM baselines (§6.1.2.1), reimplemented for two items.

The originals (Lu et al., Com-IC) are closed-source and specified over
the NLA/GAP parameterization; the paper's own Eq. (5) maps an EPIC
two-item configuration to the four GAP probabilities, which is exactly
how it compares against them. Our reimplementation (see DESIGN.md
substitution #2):

- **RR-SIM⁺** — seed item 2 with IMM, estimate each node's probability
  of adopting item 2 by forward MC, then grow item-1 RR sets in which a
  traversed node survives with probability
  ``q_{1|∅} + Pr[adopts 2]·(q_{1|2} − q_{1|∅})`` and greedily cover.
- **RR-CIM** — seed item 1 with IMM, then choose item-2 seeds via the
  sandwich: a lower collection (nodes survive w.p. q_{2|∅}) and an upper
  collection (q_{2|1}); both candidate allocations are MC-evaluated and
  the better one returned.

Both do strictly more work than greedyWM (extra MC passes and extra RR
collections), preserving the published runtime ordering (Fig. 4), and in
the paper's configurations they concentrate seeds on the same hubs,
preserving the published welfare similarity (Fig. 3).
"""
from __future__ import annotations

import numpy as np

from repro.alloc.greedy_wm import AllocationResult
from repro.core.utility import UtilityModel
from repro.diffusion.epic import final_adoptions
from repro.diffusion.ic import reached
from repro.graphs.generator import SocialGraph
from repro.im.imm import imm
from repro.im.rrsets import RRCollection, sample_rr_sets

N_WORLDS = 8  # MC worlds of RR-SIM⁺'s adoption frequencies and RR-CIM's sandwich check


def adoption_frequency(
    graph: SocialGraph,
    seeds: list[int],
    q: float,
    *,
    n_worlds: int,
    seed: int,
) -> np.ndarray:
    """Per-node frequency of adopting a single item with GAP prob ``q``.

    Forward IC where an informed node adopts with an independent coin < q
    and only adopters propagate (Com-IC single-item dynamics, without
    reconsideration). Returns a length-n array of adoption frequencies.
    """
    accept = (seed + 3, np.full(graph.n, q))
    _, nodes = reached(graph, seeds, n_worlds=n_worlds, seed=seed, accept=accept)
    return np.bincount(nodes, minlength=graph.n) / n_worlds


def _covered_rr_seeds(
    graph: SocialGraph,
    k: int,
    node_probs: np.ndarray,
    *,
    n_rr: int,
    seed: int,
) -> tuple[list[int], int]:
    """Greedy seeds from ``n_rr`` node-prob-weighted RR sets, and the
    number of sets sampled."""
    rr = RRCollection(graph.n)
    rr.extend(
        sample_rr_sets(graph, n_rr, seed=seed, node_probs=node_probs)
    )
    seeds, _ = rr.node_selection(k)
    return seeds, len(rr)


def rr_sim_plus(
    graph: SocialGraph,
    model: UtilityModel,
    b1: int,
    b2: int,
    *,
    seed: int,
) -> AllocationResult:
    """RR-SIM⁺: fix item-2 seeds by IMM, maximize item-1 adoptions."""
    gap = model.gap_params()
    base = imm(graph, b2, seed=seed)
    seeds2 = base.seeds[:b2]
    prob2 = adoption_frequency(
        graph, seeds2, gap["q_2|0"], n_worlds=N_WORLDS, seed=seed
    )
    node_probs = np.clip(
        gap["q_1|0"] + prob2 * (gap["q_1|2"] - gap["q_1|0"]), 0.0, 1.0
    )
    seeds1, n_rr1 = _covered_rr_seeds(
        graph, b1, node_probs, n_rr=base.n_rr, seed=seed + 11
    )
    return AllocationResult({0: seeds1, 1: seeds2}, n_rr=base.n_rr + n_rr1,
                            sampling_calls=base.sampling_calls + 1)


def rr_cim(
    graph: SocialGraph,
    model: UtilityModel,
    b1: int,
    b2: int,
    *,
    seed: int,
) -> AllocationResult:
    """RR-CIM: fix item-1 seeds by IMM, sandwich-select item-2 seeds."""
    gap = model.gap_params()
    base = imm(graph, b1, seed=seed)
    seeds1 = base.seeds[:b1]
    candidates: dict[str, list[int]] = {}
    n_rr = base.n_rr
    for tag, q in (("lower", gap["q_2|0"]), ("upper", gap["q_2|1"])):
        node_probs = np.full(graph.n, np.clip(q, 0.0, 1.0))
        candidates[tag], n_sampled = _covered_rr_seeds(
            graph, b2, node_probs, n_rr=base.n_rr, seed=seed + (13 if tag == "lower" else 17)
        )
        n_rr += n_sampled
    # Sandwich evaluation: MC-count item-1 adoptions under each candidate.
    def item1_adoptions(seeds2: list[int]) -> float:
        allocation = AllocationResult({0: seeds1, 1: seeds2}).allocation
        adopt = final_adoptions(graph, model, allocation, n_worlds=N_WORLDS, seed=seed + 23)
        return (adopt["adopt"] & 1).sum() / N_WORLDS

    scores = {tag: item1_adoptions(s2) for tag, s2 in candidates.items()}
    best = max(scores, key=scores.get)
    seeds2 = candidates[best]
    return AllocationResult({0: seeds1, 1: seeds2}, n_rr=n_rr,
                            sampling_calls=base.sampling_calls + len(candidates))
