"""greedyWM (Algorithm 1): greedy welfare-maximizing seed allocation.

Select the top-b̄ prefix-preserving seeds with PRIMM, then assign the
top-``b_i`` of them to every item ``i``. The algorithm is agnostic to
valuations, prices and noise — it needs only the graph and the budget
vector (the "power of bundling", §5.1); the (1−1/e−ε) welfare guarantee
is Theorem 3.

Budget convention: ``budgets[j]`` is the budget of item ``j`` (bit ``j``),
non-increasing in ``j`` (the paper's item ordering).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.diffusion.epic import allocation_from_pairs
from repro.graphs.generator import SocialGraph
from repro.im.primm import PrimmResult, primm


@dataclass
class AllocationResult:
    """An allocation plus provenance for runtime accounting."""

    seeds_per_item: dict[int, list[int]]
    n_rr: int = 0                  # RR sets generated (0 for RR-free algos)
    sampling_calls: int = 0        # `sample_rr_sets` calls, one Spark job each

    @property
    def allocation(self) -> dict[int, int]:
        """node -> itemset bitmask, nodes in ``seeds_per_item`` order."""
        return allocation_from_pairs(
            (v, item) for item, seeds in self.seeds_per_item.items() for v in seeds
        )


def greedy_wm(
    graph: SocialGraph,
    budgets: list[int],
    *,
    seed: int,
) -> AllocationResult:
    """Algorithm 1: item ``i`` gets the top-``b_i`` seeds of one PRIMM list."""
    res: PrimmResult = primm(graph, list(budgets), seed=seed)
    return AllocationResult(
        {item: res.seeds[: int(b)] for item, b in enumerate(budgets)},
        n_rr=res.n_rr, sampling_calls=res.sampling_calls,
    )
