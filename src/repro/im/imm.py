"""IMM [Tang et al. 2015] as the single-budget special case of PRIMM.

For a single budget the prefix-preserving property is trivial and
Algorithm 3 degenerates to the standard IMM sampling phase (the
ℓ' = log_n(n^ℓ·1) correction vanishes), so a separate implementation
would duplicate `im.primm` line for line.
"""
from __future__ import annotations

from repro.graphs.generator import SocialGraph
from repro.im.primm import PrimmResult, primm


def imm(
    graph: SocialGraph,
    k: int,
    *,
    seed: int,
) -> PrimmResult:
    """Ordered (greedy) seed set of size ``k`` maximizing IC spread."""
    return primm(graph, [k], seed=seed)
