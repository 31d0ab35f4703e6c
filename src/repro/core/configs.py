"""Utility configurations from the paper's evaluation (§6).

- Configs 1–6 (Table 3): two items, prices (3, 4), gaussian noise std 1
  per item, three value settings × {uniform, nonuniform} budgets. The GAP
  column of Table 3 is *derived* from these via Eq. (5)
  (``UtilityModel.gap_params``) and reproduced in ``experiments.tables``.
- Configs 7–10 (Table 4): ten items — additive, cone-max, cone-min, and
  the random level-wise supermodular generator of §6.3.1.2 (Eq. 6).
- ``example_model`` / Figure 1 + Table 1: the worked Example 1.
- ``real_model``: the eBay/Craigslist parameters of Table 5 (§6.4). The
  published anchors are kept exactly; they are not completable to a
  supermodular valuation (see DESIGN.md), which the simulator supports
  via the general pair table.
"""
from __future__ import annotations

import numpy as np

from repro.core.itemsets import bits, popcount
from repro.core.utility import UtilityModel

#: The two-item value settings of Table 3, keyed by configuration number.
#: (V(i1), V(i2), V({i1,i2})); prices are (3, 4), noise std (1, 1).
_TABLE3_VALUES = {
    1: (1.7, 2.7, 8.0),
    2: (1.7, 2.7, 8.0),
    3: (3.0, 4.0, 8.0),
    4: (3.0, 4.0, 8.0),
    5: (3.0, 3.0, 8.0),
    6: (3.0, 3.0, 8.0),
}

#: Budget style per Table 3 configuration ("uniform" or "nonuniform").
TABLE3_BUDGET_STYLE = {
    1: "uniform", 2: "nonuniform", 3: "uniform",
    4: "nonuniform", 5: "uniform", 6: "nonuniform",
}


def two_item_model(config: int) -> UtilityModel:
    """Configs 1–6 (Table 3): two complementary items."""
    v1, v2, v12 = _TABLE3_VALUES[config]
    values = np.array([0.0, v1, v2, v12])
    return UtilityModel(
        name=f"config{config}",
        n_items=2,
        prices=np.array([3.0, 4.0]),
        values=values,
        noise_std=np.array([1.0, 1.0]),
    )


def additive_model(n_items: int) -> UtilityModel:
    """Config 7: every item has deterministic utility exactly 1, utility
    additive — minimal advantage to supermodularity-exploiting methods."""
    prices = np.ones(n_items)
    values = popcount(np.arange(1 << n_items)) * 2.0
    return UtilityModel(
        name="config7-additive",
        n_items=n_items,
        prices=prices,
        values=values.astype(float),
        noise_std=np.ones(n_items),
    )


def cone_model(n_items: int, core: int, name: str) -> UtilityModel:
    """Configs 8–9: a single "core" item makes utility positive.

    Deterministic utility is 5 + 2(|S|−1) for S containing the core and
    −|S| otherwise (prices 1 each; V(S)=0 without the core). Config 8 puts
    the core at the max-budget item (bit 0), config 9 at the min-budget
    item (bit n−1) — the caller chooses ``core``.
    """
    masks = np.arange(1 << n_items)
    sizes = popcount(masks).astype(float)
    has_core = (masks & (1 << core)) != 0
    values = np.where(has_core, 5.0 + 2.0 * (sizes - 1.0) + sizes, 0.0)
    values[0] = 0.0
    return UtilityModel(
        name=name,
        n_items=n_items,
        prices=np.ones(n_items),
        values=values,
        noise_std=np.ones(n_items),
    )


def levelwise_model(n_items: int, seed: int) -> UtilityModel:
    """Config 10: random level-wise supermodular valuation (Eq. 6).

    Level-1 prices/values are random so that a random subset of the items
    has non-negative utility; for t>1, the *operational* marginal of item
    i w.r.t. A_t∖{i} is the max marginal w.r.t. its (t−2)-subsets plus a
    boost ε ~ U[1,5], and V(A_t) = max_i (V(A_t∖{i}) + V(i|A_t∖{i})).

    Lemma 12 proves monotone *operational* marginals; the *actual* value
    function (Lemma 13) assembled from independent random boosts is not
    automatically supermodular at every mask, so after each level we take
    the pointwise supermodular envelope
    ``V(A) ← max(V(A), max_{i≠j∈A} V(A∖i) + V(A∖j) − V(A∖{i,j}))`` —
    a bottom-up pass that enforces the pairwise increasing-differences
    characterization exactly while keeping the random level-wise shape.
    Supermodularity and well-definedness are verified in tests.
    """
    rng = np.random.default_rng(seed)
    prices = rng.uniform(1.0, 5.0, n_items)
    # Level 1: value = price + U[-2, 2] => ~half the items have V(i) >= P(i).
    v1 = np.maximum(0.0, prices + rng.uniform(-2.0, 2.0, n_items))
    size = 1 << n_items
    values = np.zeros(size)
    values[1 << np.arange(n_items)] = v1
    # marg[(i, B)] = operational marginal V(i | B); level-1 base: B = ∅.
    marg: dict[tuple[int, int], float] = {(i, 0): v1[i] for i in range(n_items)}
    for a in sorted((m for m in range(size) if popcount(m) > 1), key=popcount):
        for i in bits(a):
            rest = a ^ (1 << i)
            # max over (t−2)-subsets B of rest of marg[(i, B)] + ε
            best = max(
                marg[(i, rest ^ (1 << j))] for j in bits(rest)
            )
            marg[(i, rest)] = best + rng.uniform(1.0, 5.0)
        values[a] = max(
            values[a ^ (1 << i)] + marg[(i, a ^ (1 << i))] for i in bits(a)
        )
        # supermodular envelope (pairwise increasing differences)
        items = bits(a)
        for x in range(len(items)):
            for y in range(x + 1, len(items)):
                bi, bj = 1 << items[x], 1 << items[y]
                values[a] = max(
                    values[a],
                    values[a ^ bi] + values[a ^ bj] - values[a ^ bi ^ bj],
                )
    return UtilityModel(
        name="config10-levelwise",
        n_items=n_items,
        prices=prices,
        values=values,
        noise_std=np.ones(n_items),
    )


def example_model() -> UtilityModel:
    """Example 1 / Table 1: three items, zero noise, utilities
    U({i1,i2}) = U({i1,i3}) = 1, U({i1,i2,i3}) = 3, all else negative."""
    # prices 1 each; V chosen so U matches Table 1 and V is supermodular.
    values = np.zeros(8)
    values[0b011] = 3.0  # {i1,i2}: U = 3 - 2 = 1
    values[0b101] = 3.0  # {i1,i3}: U = 1
    values[0b110] = 1.0  # {i2,i3}: U = -1
    values[0b111] = 6.0  # {i1,i2,i3}: U = 3
    return UtilityModel(
        name="example1",
        n_items=3,
        prices=np.ones(3),
        values=values,
        noise_std=np.zeros(3),
    )


#: Table 5 ground truth: (mask → (price, value, noise variance)) with
#: items ps=bit0, c=bit1, g1=bit2, g2=bit3, g3=bit4. Masks not listed
#: follow the rules of §6.4.1 (items without ps are worthless; symmetric
#: games; {ps,c,one game} has negative deterministic utility).
REAL_ITEMS = ["ps", "c", "g1", "g2", "g3"]
REAL_PRICES = np.array([260.0, 20.0, 5.0, 5.0, 5.0])
TABLE5_ANCHORS = {
    0b00001: (260.0, 213.0, 4.0),   # {ps}
    0b00011: (280.0, 220.0, 6.0),   # {ps, c}
    0b11101: (275.0, 258.0, 4.0),   # {ps, g1, g2, g3}
    0b01111: (290.0, 292.5, 5.0),   # {ps, c, g1, g2}
    0b11111: (295.0, 302.0, 7.0),   # {ps, c, g1, g2, g3}
}

#: Least-squares fit of additive noise variances (ps, c, each game; the
#: games share one) to the ``TABLE5_ANCHORS`` variances. Committed as bits
#: because a LAPACK fit rounds differently on different CPU kernels: these
#: are what OpenBLAS's AVX-512 kernels return, on which every committed
#: result was recorded. The exact fit is (211, 109, 6) / 55, 8, 22 and 75
#: ulps away (tests/test_configs.py bounds the gap); the games' variance is
#: below the 0.25 floor ``real_model`` applies.
TABLE5_VARIANCE_FIT = np.array([float.fromhex(h) for h in (
    "0x1.eb0df6b0df6a9p+1", "0x1.fb586fb586fccp+0", "0x1.bed61bed61c38p-4",
)])


def real_model() -> UtilityModel:
    """Table 5 real parameters (§6.4): 5 items, learned values.

    Anchored masks use the paper's learned values exactly; interpolated
    masks follow §6.4.1's stated rules — V(S)=0 without ps, games are
    symmetric, {ps,c,1 game} and {ps,k games} keep deterministic utility
    negative and value monotone. Per-item noise std devs are the square
    roots of ``TABLE5_VARIANCE_FIT`` (the learned itemset variances are not
    exactly additive), each variance floored at 0.25.
    """
    values = np.zeros(32)
    for m in range(1, 32):
        if not m & 1:           # no ps -> worthless
            values[m] = 0.0
            continue
        n_games = popcount(m >> 2)
        has_c = bool(m & 2)
        if not has_c:
            values[m] = {0: 213.0, 1: 220.0, 2: 238.0, 3: 258.0}[n_games]
        else:
            values[m] = {0: 220.0, 1: 240.0, 2: 292.5, 3: 302.0}[n_games]
    for mask, (_price, value, _var) in TABLE5_ANCHORS.items():
        values[mask] = value
    var_ps, var_c, var_g = np.maximum(TABLE5_VARIANCE_FIT, 0.25)
    noise_std = np.sqrt(np.array([var_ps, var_c, var_g, var_g, var_g]))
    return UtilityModel(
        name="real-table5",
        n_items=5,
        prices=REAL_PRICES.copy(),
        values=values,
        noise_std=noise_std,
    )


#: The seed of config 10's random level-wise valuation.
LEVELWISE_SEED = 7


def multi_item_model(config: int, n_items: int) -> UtilityModel:
    """Configs 7–10 by number (Table 4)."""
    if config == 7:
        return additive_model(n_items)
    if config == 8:  # core = max-budget item = bit 0
        return cone_model(n_items, core=0, name="config8-cone-max")
    if config == 9:  # core = min-budget item = bit n-1
        return cone_model(n_items, core=n_items - 1, name="config9-cone-min")
    if config == 10:
        return levelwise_model(n_items, LEVELWISE_SEED)
    raise ValueError(f"unknown multi-item configuration {config}")
