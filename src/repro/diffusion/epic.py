"""EPIC diffusion (§3.2) and the expected-social-welfare estimator.

The simulator runs many *(allocation × edge-world × noise-world)*
scenarios in a single iterative Spark job. State is a sparse DataFrame of
``(alloc, world, node, desire, adopt)`` rows (itemsets as int bitmasks);
each superstep:

1. the frontier (nodes whose adoption set grew last step) joins the edge
   list, keeping edges whose deterministic coin keyed ``(world, src,
   dst)`` is live — the coin is *not* keyed by ``alloc``, so all compared
   allocations see identical possible worlds (common random numbers, and
   the per-world monotonicity of Theorem 1 is directly testable);
2. live messages carry the sender's adoption mask and are OR-aggregated
   per destination (desire sets are unions of in-neighbour adoptions,
   §3.2 step 2);
3. receivers update desire and adopt via the per-noise-world lookup table
   (``g``-table for supermodular valuations, constrained-argmax pair
   table otherwise) applied in a ``mapInPandas`` step (§3.2 step 3).

Welfare ρ and adoption count α are averaged over worlds at the end
(§4.1: ρ(S) = E_WE[E_WN[ρ_W(S)]]).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.itemsets import popcount
from repro.core.utility import UtilityModel, adoption_tables_for_worlds
from repro.diffusion.common import checkpointed, coin

MAX_SUPERSTEPS = 120

#: An allocation maps node -> itemset bitmask of items seeded there.
Allocation = Mapping[int, int]

_STATE_SCHEMA = (
    "alloc int, world int, node long, desire int, adopt_prev int, adopt int"
)


@dataclass(frozen=True)
class WelfareResult:
    """MC estimates for one allocation."""

    welfare: float           # expected social welfare ρ(S)
    adoptions: float         # expected adoption count α(S)
    per_world_welfare: np.ndarray


def allocation_from_pairs(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Build node→mask from (node, item_index) seed pairs."""
    out: dict[int, int] = {}
    for node, item in pairs:
        out[int(node)] = out.get(int(node), 0) | (1 << int(item))
    return out


def _adoption_mapper(kind: str, tables: np.ndarray):
    """mapInPandas fn computing the new adoption mask per state row."""

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            w = pdf["world"].to_numpy()
            d = pdf["desire"].to_numpy()
            a = pdf["adopt_prev"].to_numpy()
            if kind == "g":
                new = a | tables[w, d]
            else:
                new = tables[w, d, a]
            out = pdf.copy()
            out["adopt"] = new.astype("int32")
            yield out

    return fn


def _run_simulation(
    graph,
    model: UtilityModel,
    allocations: Mapping[str, Allocation],
    *,
    n_worlds: int,
    seed: int,
) -> tuple[pd.DataFrame, np.ndarray]:
    """Run EPIC to a fixed point for all (allocation, world) scenarios.

    Returns the final sparse state (alloc, world, node, adopt) as pandas
    plus the (W, 2^n) per-world utility arrays.
    """
    spark: SparkSession = graph.edges.sparkSession
    names = list(allocations)
    rng = np.random.default_rng(seed)
    noises = np.stack([model.sample_noise(rng) for _ in range(n_worlds)])
    kind, tables, util = adoption_tables_for_worlds(model, noises)
    mapper = _adoption_mapper(kind, tables)

    rows = [
        (ai, w, int(node), int(mask), 0)
        for ai, name in enumerate(names)
        for node, mask in allocations[name].items()
        for w in range(n_worlds)
        if mask
    ]
    if not rows:
        return pd.DataFrame(columns=["alloc", "world", "node", "adopt"]), util
    init = spark.createDataFrame(
        rows, "alloc int, world int, node long, desire int, adopt_prev int"
    )
    state = checkpointed(init.mapInPandas(mapper, _STATE_SCHEMA))
    frontier = checkpointed(state.where(F.col("adopt") != F.col("adopt_prev")))

    edges = graph.edges
    for _ in range(MAX_SUPERSTEPS):
        if frontier.isEmpty():
            break
        msgs = (
            frontier.join(edges, frontier.node == edges.src)
            .where(coin(seed + 1, "world", "src", "dst") < F.col("p"))
            .groupBy("alloc", "world", F.col("dst").alias("node"))
            .agg(F.expr("bit_or(adopt)").alias("msg"))
        )
        touched = (
            msgs.join(state, ["alloc", "world", "node"], "left_outer")
            .select(
                "alloc",
                "world",
                "node",
                (
                    F.coalesce(F.col("desire"), F.lit(0)).bitwiseOR(F.col("msg"))
                ).alias("desire"),
                F.coalesce(F.col("adopt"), F.lit(0)).alias("adopt_prev"),
            )
        )
        updated = checkpointed(touched.mapInPandas(mapper, _STATE_SCHEMA))
        state = checkpointed(
            state.join(updated, ["alloc", "world", "node"], "left_anti").union(
                updated
            )
        )
        frontier = checkpointed(
            updated.where(F.col("adopt") != F.col("adopt_prev"))
        )
    else:
        if not frontier.isEmpty():
            raise RuntimeError(f"EPIC did not converge in {MAX_SUPERSTEPS} supersteps")

    return state.select("alloc", "world", "node", "adopt").toPandas(), util


def simulate_welfare_multi(
    graph,
    model: UtilityModel,
    allocations: Mapping[str, Allocation],
    *,
    n_worlds: int = 16,
    seed: int = 0,
) -> dict[str, WelfareResult]:
    """Estimate ρ and α for several allocations under shared worlds."""
    names = list(allocations)
    final, util = _run_simulation(
        graph, model, allocations, n_worlds=n_worlds, seed=seed
    )
    results: dict[str, WelfareResult] = {}
    for ai, name in enumerate(names):
        sub = final[final["alloc"] == ai] if len(final) else final
        per_world = np.zeros(n_worlds)
        adoptions = 0.0
        if len(sub):
            w = sub["world"].to_numpy()
            a = sub["adopt"].to_numpy()
            np.add.at(per_world, w, util[w, a])
            adoptions = float(popcount(a).sum()) / n_worlds
        results[name] = WelfareResult(
            welfare=float(per_world.mean()),
            adoptions=adoptions,
            per_world_welfare=per_world,
        )
    return results


def simulate_welfare(
    graph,
    model: UtilityModel,
    allocation: Allocation,
    *,
    n_worlds: int = 16,
    seed: int = 0,
) -> WelfareResult:
    """Single-allocation convenience wrapper."""
    return simulate_welfare_multi(
        graph, model, {"only": allocation}, n_worlds=n_worlds, seed=seed
    )["only"]


def final_adoptions(
    graph,
    model: UtilityModel,
    allocation: Allocation,
    *,
    n_worlds: int = 8,
    seed: int = 0,
) -> pd.DataFrame:
    """Per-(world, node) final adoption masks — for tests and for the
    Com-IC baselines' internal adoption-probability estimates."""
    final, _ = _run_simulation(
        graph, model, {"only": allocation}, n_worlds=n_worlds, seed=seed
    )
    return final[["world", "node", "adopt"]]
