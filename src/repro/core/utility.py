"""EPIC utility model: price + valuation + zero-mean noise (§3.1).

A :class:`UtilityModel` holds the item prices (additive), the valuation
as a dense array over itemset masks, and per-item gaussian noise standard
deviations. A *noise world* (§4.1) is a concrete sample of the item noise
terms; given one, the utility of every itemset is deterministic and the
node adoption decision is a pure lookup, which we precompute:

- ``g_table``: for supermodular valuations, ``g(D)`` = the unique maximal
  utility-maximizing subset of desire set ``D`` (ties resolved to their
  union, valid by Lemma 2). The EPIC adoption update is then
  ``A_t = A_{t-1} | g(D_t)`` — the constrained argmax
  ``max{U(T): A_{t-1} ⊆ T ⊆ D}`` is achieved at ``A_{t-1} ∪ g(D)``
  because both are local maxima (Lemmas 2–3).
- ``pair_table``: for general valuations (the real eBay config is not
  exactly supermodular), the full ``(desire, prev) → adopt`` lookup via
  brute-force constrained argmax with the paper's tie-break (max utility,
  then max cardinality).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.itemsets import (
    additive_over_masks,
    is_supermodular,
    popcount,
    submasks,
)


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erf (no scipy in the environment)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class UtilityModel:
    """Item prices, valuation over itemset masks, and noise std devs.

    ``values[m]`` is V(S) for mask ``m`` (``values[0]`` must be 0);
    ``prices[j]`` > 0 is the price of item ``j`` (price of a set is
    additive, §3.1); ``noise_std[j]`` ≥ 0 is the std dev of item ``j``'s
    zero-mean gaussian noise (noise of a set is additive).
    """

    name: str
    n_items: int
    prices: np.ndarray
    values: np.ndarray
    noise_std: np.ndarray
    supermodular: bool = field(init=False)

    def __post_init__(self) -> None:
        assert self.values.shape == (1 << self.n_items,)
        assert abs(self.values[0]) < 1e-12, "V(∅) must be 0"
        assert self.prices.shape == (self.n_items,)
        assert self.noise_std.shape == (self.n_items,)
        object.__setattr__(
            self, "supermodular", is_supermodular(self.values, self.n_items)
        )

    # ---- set functions over masks -------------------------------------
    def price_of_masks(self) -> np.ndarray:
        """Additive price per mask, length 2^n."""
        return additive_over_masks(self.prices)

    def det_utility(self) -> np.ndarray:
        """Deterministic utility V − P per mask (noise ignored, §6.1.2)."""
        return self.values - self.price_of_masks()

    # ---- noise worlds --------------------------------------------------
    def sample_noise(self, rng: np.random.Generator) -> np.ndarray:
        """One noise world: a vector of per-item noise draws."""
        return rng.normal(0.0, self.noise_std)

    def utilities_in_world(self, noise: np.ndarray) -> np.ndarray:
        """U_W per mask for noise world ``noise`` (additive over items);
        one row per world for a ``(W, n_items)`` batch of worlds."""
        return self.det_utility() + additive_over_masks(noise)

    # ---- GAP correspondence (Eq. 5), two items only --------------------
    def gap_params(self) -> dict[str, float]:
        """The four Com-IC GAP adoption probabilities implied by Eq. (5).

        Only defined for two-item models; used both to reproduce the GAP
        column of Table 3 and to parameterize the RR-SIM+/RR-CIM
        baselines.
        """
        assert self.n_items == 2, "GAP params are a two-item notion"
        p1, p2 = self.prices
        v1, v2, v12 = self.values[1], self.values[2], self.values[3]
        s1, s2 = self.noise_std

        def tail(thresh: float, std: float) -> float:
            # Pr[N(0, std^2) >= thresh]
            if std <= 0:
                return 1.0 if thresh <= 0 else 0.0
            return 1.0 - norm_cdf(thresh / std)

        return {
            "q_1|0": tail(p1 - v1, s1),
            "q_1|2": tail(p1 - (v12 - v2), s1),
            "q_2|0": tail(p2 - v2, s2),
            "q_2|1": tail(p2 - (v12 - v1), s2),
        }


# ---- adoption lookup tables -------------------------------------------


def g_table(utilities: np.ndarray, n_items: int) -> np.ndarray:
    """``g[D]`` = unique maximal argmax of utility over subsets of D.

    DP over masks in increasing order: the best value over subsets of
    ``m`` is the max of U(m) and the best over each ``m`` minus one item;
    the arg is the OR of every achieving subset (their union also achieves
    the max when utility is supermodular, Lemma 2 — asserted by callers).
    ``utilities[0]`` is 0, so ``g[D]`` always has utility ≥ 0.
    """
    size = 1 << n_items
    best = np.empty(size)
    arg = np.zeros(size, dtype=np.int64)
    best[0] = utilities[0]
    for m in range(1, size):
        b = utilities[m]
        a = m
        rem = m
        while rem:
            bit = rem & (-rem)
            rem ^= bit
            s = m ^ bit
            if best[s] > b + 1e-12:
                b, a = best[s], arg[s]
            elif abs(best[s] - b) <= 1e-12:
                a |= arg[s]
        best[m], arg[m] = b, a
    return arg


def pair_table(utilities: np.ndarray, n_items: int) -> np.ndarray:
    """Full constrained-argmax lookup ``T[..., D, A_prev] → adopt``, one
    table per row of ``utilities`` (shape ``(..., 2^n)``).

    ``T[d, a]`` is the utility-maximizing itemset among
    ``{T : a ⊆ T ⊆ d}``, ties broken by larger cardinality then larger
    mask. Entries with ``a ⊄ d`` are never queried (adoption ⊆ desire) and
    are left as ``a``. Works for any utility function — used for the real
    (non-supermodular) eBay configuration. O(4^n); callers gate n ≤ 8.

    Every ``a ⊆ d`` cell of every table scans its candidates at once, in
    the order of a per-cell scan: start at ``a``, then candidate ``j`` is
    ``a | submasks(d & ~a)[j]``, taken if its utility beats the best so far
    by 1e-12, or ties it within 1e-12 with a larger (cardinality, mask).
    The 1e-12 tie is not transitive, so the order fixes the result.
    """
    assert n_items <= 8, "pair table is O(4^n); use g_table for larger n"
    size = 1 << n_items
    d, a = np.array([(x, y) for x in range(size) for y in submasks(x)]).T
    subs = np.full((size, size), -1)  # subs[f, j] = submasks(f)[j], -1 past the last
    for f in range(size):
        s = submasks(f)
        subs[f, : len(s)] = s
    cand = subs[d & ~a]
    count = popcount(np.arange(size))
    best_t = np.broadcast_to(a, utilities.shape[:-1] + a.shape)
    best_u = utilities[..., a]
    for j in range(size):
        t = a | cand[:, j]
        u, c, best_c = utilities[..., t], count[t], count[best_t]
        take = (cand[:, j] >= 0) & (
            (u > best_u + 1e-12)
            | ((abs(u - best_u) <= 1e-12) & ((c > best_c) | ((c == best_c) & (t > best_t))))
        )
        best_t = np.where(take, t, best_t)
        best_u = np.where(take, u, best_u)
    table = np.tile(np.arange(size, dtype=np.int16), utilities.shape[:-1] + (size, 1))
    table[..., d, a] = best_t
    return table


def adoption_tables_for_worlds(
    model: UtilityModel, noises: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-world adoption lookups for a batch of noise worlds.

    ``noises`` is (W, n_items). Returns ``(tables, util_stack)``: ``tables``
    are g-tables, shape (W, 2^n), for supermodular models and pair tables,
    shape (W, 2^n, 2^n), otherwise; ``util_stack`` is the (W, 2^n)
    per-world utility arrays used for welfare accounting.
    """
    util = model.utilities_in_world(noises)
    if model.supermodular:
        return np.stack([g_table(u, model.n_items) for u in util]).astype(np.int32), util
    return pair_table(util, model.n_items).astype(np.int32), util
