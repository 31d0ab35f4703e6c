"""item-disj and bundle-disj baselines (§6.1.2.2–6.1.2.3).

- **item-disj** gives every seed node exactly one item: one IMM call with
  budget Σ b_i, then items (visited in non-increasing budget order) take
  disjoint slices of the ranked seed list.
- **bundle-disj** forms minimum-sized bundles with non-negative
  deterministic utility and gives each bundle a fresh (disjoint) seed
  set of size min-budget, decrementing budgets; leftover budgets reuse
  earlier bundles' seeds and finally fresh IMM seeds. It invokes IMM once
  per bundle/leftover (the reason it is slower than greedyWM at many
  items, Fig. 6).
"""
from __future__ import annotations

import numpy as np

from repro.alloc.greedy_wm import AllocationResult
from repro.core.itemsets import popcount, submasks
from repro.core.utility import UtilityModel
from repro.graphs.generator import SocialGraph
from repro.im.imm import imm


def item_disj(
    graph: SocialGraph,
    budgets: list[int],
    *,
    seed: int,
) -> AllocationResult:
    """One item per seed node (§6.1.2.2)."""
    total = int(sum(budgets))
    res = imm(graph, total, seed=seed)
    ranked = list(res.seeds)
    seeds_per_item: dict[int, list[int]] = {}
    order = sorted(range(len(budgets)), key=lambda j: -budgets[j])
    pos = 0
    for item in order:
        b = int(budgets[item])
        seeds_per_item[item] = ranked[pos : pos + b]
        pos += b
    return AllocationResult(seeds_per_item, n_rr=res.n_rr, sampling_calls=res.sampling_calls)


def _min_bundle(det_util: np.ndarray, items: list[int], rem: dict[int, int]) -> int:
    """Smallest non-negative-deterministic-utility subset of ``items``
    (ties: first in mask order, the paper's scan order). 0 if none."""
    avail = sum(1 << j for j in items if rem.get(j, 0) > 0)
    by_size = sorted(submasks(avail), key=lambda m: (popcount(m), m))[1:]
    return next((m for m in by_size if det_util[m] >= -1e-12), 0)


def bundle_disj(
    graph: SocialGraph,
    model: UtilityModel,
    budgets: list[int],
    *,
    seed: int,
) -> AllocationResult:
    """Bundle-based disjoint allocation (§6.1.2.3)."""
    det = model.det_utility()
    rem = {j: int(b) for j, b in enumerate(budgets)}
    items = sorted(rem, key=lambda j: -budgets[j])
    bundles: list[tuple[int, list[int]]] = []   # (mask, seed nodes)
    seeds_per_item: dict[int, list[int]] = {j: [] for j in rem}
    used: set[int] = set()
    n_rr = calls = 0

    def fresh_seeds(count: int) -> list[int]:
        """``count`` highest-ranked seeds disjoint from all used ones —
        one IMM invocation per call, as the paper's accounting assumes."""
        nonlocal n_rr, calls
        res = imm(graph, count + len(used), seed=seed)
        n_rr, calls = n_rr + res.n_rr, calls + res.sampling_calls
        out = [v for v in res.seeds if v not in used][:count]
        used.update(out)
        return out

    while True:
        mask = _min_bundle(det, items, rem)
        if mask == 0:
            break
        members = [j for j in items if mask >> j & 1]
        b_bundle = min(rem[j] for j in members)
        nodes = fresh_seeds(b_bundle)
        bundles.append((mask, nodes))
        for j in members:
            rem[j] -= b_bundle
            seeds_per_item[j].extend(nodes)
    # Leftover budgets: reuse earlier bundles' seeds, then fresh seeds.
    for j in items:
        for mask, nodes in bundles:
            if rem[j] <= 0:
                break
            if mask >> j & 1:
                continue
            take = nodes[: rem[j]]
            rem[j] -= len(take)
            seeds_per_item[j].extend(take)
        if rem[j] > 0:
            nodes = fresh_seeds(rem[j])
            rem[j] = 0
            seeds_per_item[j].extend(nodes)
    return AllocationResult(seeds_per_item, n_rr=n_rr, sampling_calls=calls)
