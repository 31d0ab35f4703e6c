"""Bitmask algebra for itemsets.

An itemset over a universe of ``n_items`` items is an int bitmask in
``[0, 2^n_items)``; item ``j`` (0-indexed) is bit ``1 << j``. Set
functions (valuation, price, utility) are dense numpy arrays of length
``2^n_items`` indexed by mask. The paper's item indices 1..n (index 1 =
highest budget) map to bits 0..n-1, which makes the paper's precedence
order ``≺`` on subsets (§5.2.1) coincide with integer order of masks
(verified in tests against Example 2).
"""
from __future__ import annotations

from functools import reduce

import numpy as np


def popcount(masks: np.ndarray | int) -> np.ndarray | int:
    """Number of items in each mask (vectorized)."""
    if isinstance(masks, (int, np.integer)):
        return int(masks).bit_count()
    m = np.asarray(masks, dtype=np.uint64)
    out = np.zeros(m.shape, dtype=np.int64)
    while m.any():
        out += (m & np.uint64(1)).astype(np.int64)
        m >>= np.uint64(1)
    return out


def bits(mask: int) -> list[int]:
    """Indices of items present in ``mask``."""
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def submasks(mask: int) -> list[int]:
    """All submasks of ``mask`` including 0 and ``mask`` itself."""
    out, s = [], mask
    while True:
        out.append(s)
        if s == 0:
            return out
        s = (s - 1) & mask


def mask_item_matrix(n_items: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix: row ``m`` has 1 in column ``j`` iff item j ∈ m.

    Scaling its columns by per-item values gives each mask's item terms,
    which ``additive_over_masks`` sums.
    """
    masks = np.arange(1 << n_items, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n_items)) & 1).astype(np.float64)


def additive_over_masks(values: np.ndarray) -> np.ndarray:
    """Additive set function per mask: ``Σ_{j ∈ m} values[..., j]``, shape
    ``(..., 2^n)`` for ``values`` of shape ``(..., n)``.

    The item terms are added in one fixed order, so the bits do not depend
    on the CPU: item ``j < 4⌊n/4⌋`` goes to lane ``j % 4`` (each lane summed
    left to right), the lanes are reduced as ``(l0 + l2) + (l1 + l3)``, and
    the last ``n % 4`` items, summed left to right, are added after. That is
    the order of OpenBLAS's Haswell, Zen and AVX-512 kernels, on which the
    committed results were recorded; a BLAS matvec picks its kernel by CPU
    model, and the SSE kernels (Prescott and older) add in another order.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    cols = np.moveaxis(mask_item_matrix(n) * values[..., None, :], -1, 0)
    q = n - n % 4
    out = np.zeros(values.shape[:-1] + (1 << n,))  # a BLAS matvec's output starts at +0.0 too
    if q:
        l0, l1, l2, l3 = (reduce(np.add, cols[lane:q:4]) for lane in range(4))
        out += (l0 + l2) + (l1 + l3)
    if n > q:
        out += reduce(np.add, cols[q:])
    return out


def is_monotone(values: np.ndarray, n_items: int) -> bool:
    """Check ``f(S) ≤ f(S ∪ {i})`` for every mask and item."""
    for j in range(n_items):
        bit = 1 << j
        without = np.arange(1 << n_items) & ~bit
        if not np.all(values[without] <= values[without | bit] + 1e-9):
            return False
    return True


def is_supermodular(values: np.ndarray, n_items: int) -> bool:
    """Check pairwise supermodularity of a dense set function.

    ``f`` is supermodular iff for all masks m and items i ≠ j not in m:
    ``f(m+i+j) − f(m+j) ≥ f(m+i) − f(m)`` (the local characterization of
    increasing differences).
    """
    full = np.arange(1 << n_items)
    for i in range(n_items):
        for j in range(i + 1, n_items):
            bi, bj = 1 << i, 1 << j
            base = full[(full & bi == 0) & (full & bj == 0)]
            if not np.all(
                values[base | bi | bj] - values[base | bj]
                >= values[base | bi] - values[base] - 1e-9
            ):
                return False
    return True
