"""EPIC diffusion (§3.2) and the expected-social-welfare estimator.

The simulator runs many *(allocation × edge-world × noise-world)*
scenarios in one Spark job: ``diffusion.reach.cascade`` runs each
scenario's whole cascade inside one task, over dense ``(scenario, node)``
state (itemsets as int bitmasks). Each superstep:

1. nodes whose adoption set grew last step send it along their out-edges
   that are live by a deterministic coin keyed ``(world, src, dst)`` —
   *not* by allocation, so all compared allocations see identical
   possible worlds (common random numbers, and the per-world monotonicity
   of Theorem 1 is directly testable);
2. messages are OR-aggregated per destination (desire sets are unions of
   in-neighbour adoptions, §3.2 step 2);
3. receivers update desire and adopt via the per-noise-world lookup table
   (``g``-table for supermodular valuations, constrained-argmax pair
   table otherwise; §3.2 step 3).

Welfare ρ and adoption count α are averaged over worlds at the end
(§4.1: ρ(S) = E_WE[E_WN[ρ_W(S)]]).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.itemsets import popcount
from repro.core.utility import UtilityModel, adoption_tables_for_worlds
from repro.diffusion.reach import cascade, run_sharded, spark_hash

MAX_SUPERSTEPS = 120  # the last superstep that may change an adoption
#: The replaced Spark loop's shuffle partitions (the jobs' session on a
#: 4-core box), which fix ``_loop_order``.
LOOP_PARTITIONS = 32

#: An allocation maps node -> itemset bitmask of items seeded there.
Allocation = Mapping[int, int]


@dataclass(frozen=True)
class WelfareResult:
    """MC estimates for one allocation."""

    welfare: float           # expected social welfare ρ(S)
    adoptions: float         # expected adoption count α(S)
    per_world_welfare: np.ndarray
    supersteps: int          # the EPIC call's last superstep that changed an adoption


def allocation_from_pairs(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Build node→mask from (node, item_index) seed pairs."""
    out: dict[int, int] = {}
    for node, item in pairs:
        out[int(node)] = out.get(int(node), 0) | (1 << int(item))
    return out


def _run_simulation(
    graph, model: UtilityModel, allocations: Mapping[str, Allocation], *, n_worlds: int, seed: int,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, int]:
    """Run EPIC to a fixed point for all (allocation, world) scenarios.

    Returns the reached state rows as arrays (alloc, world, node, adopt) in
    ``_loop_order``'s row order, the (W, 2^n) per-world utility arrays, and
    the last superstep in which any scenario's adoption changed (the kernel
    runs one more, quiet, to see that; 0 if no seed adopts anything).
    Masks of 0 are dropped; any other mask must be an itemset of the model.
    """
    if any(not 0 <= m < 1 << model.n_items for al in allocations.values() for m in al.values()):
        raise ValueError(f"itemset masks must lie in [1, {1 << model.n_items}) for model {model.name}")
    rng = np.random.default_rng(seed)
    noises = np.stack([model.sample_noise(rng) for _ in range(n_worlds)])
    tables, util = adoption_tables_for_worlds(model, noises)

    rows = [(ai, w, int(v), int(m)) for ai, name in enumerate(allocations)
            for v, m in allocations[name].items() for w in range(n_worlds) if m]
    if not rows:
        return tuple(np.zeros((4, 0), np.int64)), util, 0
    alloc, world, node, mask = np.array(rows, np.int64).T
    scen = alloc * n_worlds + world

    states, steps = zip(*run_sharded(
        graph, cascade, scen, node, mask, n_worlds=n_worlds, tables=tables,
        edge_seed=seed + 1, cap=MAX_SUPERSTEPS + 1,
    ))
    # one superstep past the cap tells a cascade that converged at the cap
    # from one that did not
    if max(steps) - 1 > MAX_SUPERSTEPS:
        raise RuntimeError(f"EPIC did not converge in {MAX_SUPERSTEPS} supersteps")
    s, v, a, t = (np.concatenate(c) for c in zip(*states))
    order = _loop_order(graph.n, s, v, t, max(steps), n_worlds)
    return (*np.divmod(s[order], n_worlds), v[order], a[order]), util, max(max(steps) - 1, 0)


def _loop_order(n: int, scen, node, touched, steps, n_worlds: int) -> np.ndarray:
    """Indices that put the cascade's rows in the order the replaced Spark
    superstep loop returned them at ``LOOP_PARTITIONS``: rows untouched at
    the last touching superstep G, then those touched at G; each part by
    key, or stably by partition if a quiet superstep ran after G.
    Welfare sums ``util`` in this order, so it fixes their last bits;
    DESIGN.md ("Why EPIC keeps the old row order") derives the rule."""
    keys, g = scen * n + node, touched.max()
    alloc, world = np.divmod(scen, n_worlds)
    part = spark_hash((alloc, "int"), (world, "int"), (node, "long")) % LOOP_PARTITIONS
    return np.lexsort((keys, part * (steps > g), touched == g))


def simulate_welfare_multi(
    graph,
    model: UtilityModel,
    allocations: Mapping[str, Allocation],
    *,
    n_worlds: int,
    seed: int,
) -> dict[str, WelfareResult]:
    """Estimate ρ and α for several allocations under shared worlds."""
    (alloc, world, _, adopt), util, supersteps = _run_simulation(
        graph, model, allocations, n_worlds=n_worlds, seed=seed
    )
    # bincount adds each cell's terms one by one in row order from 0.0, so
    # ``_loop_order`` fixes the sums' last bits.
    a, w = len(allocations), n_worlds
    per_world = np.bincount(alloc * w + world, util[world, adopt], a * w).reshape(a, w)
    adoptions = np.bincount(alloc, popcount(adopt), a) / w
    return {name: WelfareResult(float(per_world[i].mean()), float(adoptions[i]), per_world[i],
                                supersteps) for i, name in enumerate(allocations)}


def final_adoptions(
    graph,
    model: UtilityModel,
    allocation: Allocation,
    *,
    n_worlds: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """Per-(world, node) final adoption masks as arrays ``world``, ``node``
    and ``adopt`` — for tests and for RR-CIM's item-1 adoption count."""
    (_, world, node, adopt), *_ = _run_simulation(
        graph, model, {"only": allocation}, n_worlds=n_worlds, seed=seed
    )
    return {"world": world, "node": node, "adopt": adopt}
