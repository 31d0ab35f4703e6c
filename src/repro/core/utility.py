"""EPIC utility model: price + valuation + zero-mean noise (§3.1).

A :class:`UtilityModel` holds the item prices (additive), the valuation
as a dense array over itemset masks, and per-item gaussian noise standard
deviations. A *noise world* (§4.1) is a concrete sample of the item noise
terms; given one, the utility of every itemset is deterministic and the
node adoption decision is a pure lookup, which we precompute:

One scan, ``_argmax``, makes every itemset choice: the paper's adoption
rule (§3.2 step 3), the utility-maximizing ``T`` with ``A_prev ⊆ T ⊆ D``,
ties going to the larger (cardinality, mask). Two tables read it:

- ``g_table``: its ``A_prev = ∅`` column, ``g(D)``. For supermodular
  valuations that is the union of all maximizers (Lemma 2), and the EPIC
  adoption update is ``A_t = A_{t-1} | g(D_t)`` — the constrained argmax
  ``max{U(T): A_{t-1} ⊆ T ⊆ D}`` is achieved at ``A_{t-1} ∪ g(D)``
  because both are local maxima (Lemmas 2–3).
- ``pair_table``: for general valuations (the real eBay config is not
  exactly supermodular), the full ``(desire, prev) → adopt`` lookup.
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


def _argmax(utilities: np.ndarray, n_items: int, d: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The adopted itemset of each cell ``(d[i], a[i])``, ``a ⊆ d``: the
    utility-maximizing ``T`` with ``a ⊆ T ⊆ d``, ties going to the larger
    (cardinality, mask), for every row of ``utilities`` (shape
    ``(..., 2^n)``; the result has shape ``(..., len(d))``).

    Each cell runs the paper's scan: start at ``a``, then candidate ``j`` is
    ``a | submasks(d & ~a)[j]``, taken if its utility beats the best so far
    by 1e-12, or ties it within 1e-12 with a larger (cardinality, mask).
    The 1e-12 tie is not transitive, so the order fixes the result. The
    cells are sorted by candidate count, most first, so step ``j`` runs
    over the leading cells that have a ``j``-th candidate.
    """
    count = popcount(np.arange(1 << n_items))
    free = d & ~a
    order = np.argsort(-count[free], kind="stable")
    a, free = a[order], free[order]
    n_cand = 1 << count[free]
    s = free.copy()  # submasks(free)[j] at step j, by submasks' own step
    best_t = np.array(np.broadcast_to(a, utilities.shape[:-1] + a.shape))
    best_u = utilities[..., a]
    for j in range(n_cand[0]):
        k = int((n_cand > j).sum())
        t, bt, bu = a[:k] | s[:k], best_t[..., :k], best_u[..., :k]  # bt, bu: views
        s[:k] = (s[:k] - 1) & free[:k]
        u, c, bc = utilities[..., t], count[t], count[bt]
        take = (u > bu + 1e-12) | ((abs(u - bu) <= 1e-12) & ((c > bc) | ((c == bc) & (t > bt))))
        bt[...] = np.where(take, t, bt)
        bu[...] = np.where(take, u, bu)
    out = np.empty_like(best_t)
    out[..., order] = best_t
    return out


def g_table(utilities: np.ndarray, n_items: int) -> np.ndarray:
    """``g[..., D]`` = the adopted itemset from desire set ``D`` with nothing
    adopted before: ``_argmax``'s ``A_prev = ∅`` column. For supermodular
    utility the largest-cardinality maximizer is the union of all
    maximizers (Lemma 2), so ``g(D)`` is that union. ``utilities[0]`` is 0,
    so ``g[D]`` always has utility ≥ 0.
    """
    d = np.arange(1 << n_items)
    return _argmax(utilities, n_items, d, np.zeros_like(d))


def pair_table(utilities: np.ndarray, n_items: int) -> np.ndarray:
    """Full constrained-argmax lookup ``T[..., D, A_prev] → adopt``, one
    table per row of ``utilities`` (shape ``(..., 2^n)``).

    ``T[d, a]`` is ``_argmax``'s cell ``(d, a)`` for every ``a ⊆ d``.
    Entries with ``a ⊄ d`` are never queried (adoption ⊆ desire) and are
    left as ``a``. Works for any utility function — used for the real
    (non-supermodular) eBay configuration. O(4^n); callers gate n ≤ 8.
    """
    assert n_items <= 8, "pair table is O(4^n); use g_table for larger n"
    size = 1 << n_items
    d, a = np.array([(x, y) for x in range(size) for y in submasks(x)]).T
    table = np.tile(np.arange(size, dtype=np.int16), utilities.shape[:-1] + (size, 1))
    table[..., d, a] = _argmax(utilities, n_items, d, a)
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
    return (g_table if model.supermodular else pair_table)(util, model.n_items).astype(np.int32), util
