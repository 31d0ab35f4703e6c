"""Block accounting (§5.2): Algorithm 2 plus budgets and anchors.

The block machinery drives the paper's approximation analysis (Lemmas
5–9); we implement it both to test those lemmas executably and because
the proposed/effective-budget structure is what makes the greedy
allocation's welfare decomposable as Σ σ(S_Bi) · Δ_i (Lemma 7).

Convention: item ``j`` (bit ``1 << j``) has budget ``budgets[j]``, and
budgets are non-increasing in ``j`` (paper's item 1 = our bit 0). Under
this convention the paper's precedence order ``≺`` on subsets of I* is
exactly integer order of bitmasks (Example 2 is a test).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.itemsets import bits, submasks
from repro.core.utility import g_table


def best_itemset(utilities: np.ndarray) -> int:
    """I*: the max-utility itemset, ties broken to larger cardinality then
    larger mask — the g-table at the full itemset (for supermodular
    utilities the union of all maximizers, Lemma 2)."""
    return int(g_table(utilities, len(utilities).bit_length() - 1)[-1])


def generate_blocks(utilities: np.ndarray, istar: int) -> list[int]:
    """Algorithm 2: split I* into a sequence of disjoint blocks, each with
    non-negative marginal utility given the union of preceding blocks.

    ``utilities`` is the noise-world utility per mask; the scan order of
    candidate subsets is integer order of masks (= the paper's ≺).
    """
    sequence = sorted(submasks(istar))[1:]
    blocks: list[int] = []
    union = 0
    idx = 0
    while idx < len(sequence):
        b = sequence[idx]
        if utilities[union | b] - utilities[union] >= -1e-12:
            blocks.append(b)
            union |= b
            sequence = [s for s in sequence if (s & union) == 0]
            idx = 0
        else:
            idx += 1
    return blocks


@dataclass(frozen=True)
class BlockStructure:
    """Blocks of I* with their Δ, proposed/effective budgets and anchors."""

    istar: int
    blocks: list[int]
    deltas: list[float]           # Δ_i = U(B_i | B_1 ∪ … ∪ B_{i-1})
    proposed: list[int]           # b_i = min item budget within B_i
    effective: list[int]          # b̲_i = min proposed budget over B_1..B_i
    anchor_block: list[int]       # index (into blocks) of B_i's anchor
    anchor_item: list[int]        # anchor item a_i (an item index, 0-based)


def block_structure(
    utilities: np.ndarray, budgets: np.ndarray, istar: int | None = None
) -> BlockStructure:
    """Blocks + budgets + anchors for a noise world (§5.2.1, §5.2.3).

    ``budgets[j]`` is item j's budget, non-increasing in j (asserted).
    """
    budgets = np.asarray(budgets)
    assert np.all(np.diff(budgets) <= 0), "budgets must be non-increasing in bit index"
    if istar is None:
        istar = best_itemset(utilities)
    blocks = generate_blocks(utilities, istar)
    deltas, proposed = [], []
    union = 0
    for b in blocks:
        deltas.append(float(utilities[union | b] - utilities[union]))
        proposed.append(int(min(budgets[j] for j in bits(b))))
        union |= b
    effective = list(np.minimum.accumulate(proposed)) if proposed else []
    anchor_block, anchor_item = [], []
    for i in range(len(blocks)):
        if effective[i] == proposed[i]:  # properly budgeted: self-anchored
            a = i
        else:  # over budgeted: min proposed budget among B_1..B_{i-1},
            # ties to the highest block index.
            prior = proposed[:i]
            mn = min(prior)
            a = max(j for j, p in enumerate(prior) if p == mn)
        anchor_block.append(a)
        # anchor item = highest indexed item of the anchor block; our
        # "highest index" = the paper's (lowest budget) = highest bit.
        anchor_item.append(max(bits(blocks[a])))
    return BlockStructure(
        istar=istar,
        blocks=blocks,
        deltas=deltas,
        proposed=proposed,
        effective=[int(e) for e in effective],
        anchor_block=anchor_block,
        anchor_item=anchor_item,
    )
