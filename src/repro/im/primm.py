"""PRIMM (Algorithm 3): item-wise prefix-preserving IMM (§5.3).

Faithful implementation of the pseudocode, including:
- the boosted confidence ``ℓ' = log_n(n^ℓ · |b⃗|)`` that pays the union
  bound over budgets (Lemma 11),
- θ thresholds from Eq. (3)–(4) with ε' = √2·ε,
- RR-set reuse across budgets (never regenerate, only top up),
- prefix reuse of the previous NodeSelection result on a budget switch,
- the LB = 1 fallback when the coverage condition never fires.

IMM itself is the single-budget special case (`im.imm`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.generator import SocialGraph
from repro.im.rrsets import RRCollection, sample_rr_sets

BATCH_CAP = 200_000  # RR sets per sampling call at most
EPS, ELL = 0.5, 1.0  # approximation slack ε and confidence exponent ℓ (1 − n^-ℓ)


def log_binom(n: int, k: int) -> float:
    """log C(n, k), natural log."""
    k = min(k, n)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def lambda_prime(n: int, k: int, eps_p: float, ell_p: float) -> float:
    """Eq. (3)."""
    return (
        (2 + 2 * eps_p / 3)
        * (log_binom(n, k) + ell_p * math.log(n) + math.log(math.log2(n)))
        * n
        / (eps_p**2)
    )


def lambda_star(n: int, k: int, eps: float, ell_p: float) -> float:
    """Eq. (4)."""
    alpha = math.sqrt(ell_p * math.log(n) + math.log(2))
    beta = math.sqrt(
        (1 - 1 / math.e) * (log_binom(n, k) + ell_p * math.log(n) + math.log(2))
    )
    return 2 * n * ((1 - 1 / math.e) * alpha + beta) ** 2 / (eps**2)


@dataclass
class PrimmResult:
    """Ordered prefix-preserving seed set + sampling diagnostics."""

    seeds: list[int]               # ordered, length b̄ — prefixes serve all budgets
    n_rr: int
    coverage: np.ndarray = field(repr=False)   # F_R over prefixes of `seeds`


def primm(
    graph: SocialGraph,
    budgets: list[int],
    *,
    seed: int = 0,
) -> PrimmResult:
    """Algorithm 3. ``budgets`` is b⃗ (any order; sorted non-increasing)."""
    b = sorted(int(x) for x in budgets if x > 0)[::-1]
    assert b, "need at least one positive budget"
    n = graph.n
    rr = RRCollection(n)
    ell2 = ELL + math.log(2) / math.log(n)          # line 2
    ell_p = ell2 + math.log(len(b)) / math.log(n)   # line 3: log_n(n^ℓ·|b|)
    eps_p = math.sqrt(2) * EPS                      # line 4

    def top_up(theta: float) -> None:
        need = int(math.ceil(theta)) - len(rr)
        while need > 0:
            take = min(need, BATCH_CAP)
            rr.extend(
                sample_rr_sets(graph, take, seed=seed, id_offset=len(rr))
            )
            need -= take

    s = 0                      # index into b (paper's s-1)
    i = 1
    budget_switch = False
    last_selection: list[int] = []
    lb = 1.0
    max_i = int(math.log2(n)) - 1
    while i <= max_i and s < len(b):
        k = b[s]
        lb = 1.0
        x = n / (2**i)
        top_up(lambda_prime(n, k, eps_p, ell_p) / x)
        if budget_switch:
            s_k = last_selection[:k]
            f_k = rr.coverage_of(s_k)
        else:
            s_k, cov = rr.node_selection(k)
            last_selection = s_k
            f_k = cov[-1] if len(cov) else 0.0
        if n * f_k >= (1 + eps_p) * x:              # line 14
            lb = n * f_k / (1 + eps_p)
            top_up(lambda_star(n, k, EPS, ell_p) / lb)
            s += 1
            budget_switch = True
        else:
            i += 1
            budget_switch = False
    if s < len(b):                                  # lines 22-25 fallback
        top_up(lambda_star(n, b[s], EPS, ell_p) / lb)
    seeds, coverage = rr.node_selection(b[0])       # line 26: b̄ = max budget
    return PrimmResult(seeds=seeds, n_rr=len(rr), coverage=coverage)
