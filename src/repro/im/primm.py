"""PRIMM (Algorithm 3): item-wise prefix-preserving IMM (§5.3).

Faithful implementation of the pseudocode, including:
- the boosted confidence ``ℓ' = log_n(n^ℓ · |b⃗|)`` that pays the union
  bound over budgets (Lemma 11),
- θ thresholds from Eq. (3)–(4) with ε' = √2·ε,
- RR-set reuse across budgets (never regenerate, only top up),
- prefix reuse of the previous NodeSelection result on a budget switch,
- the LB = 1 fallback when the coverage condition never fires.

Sampling looks ahead along the failing path: while a line-14 check can
still fail, the next top-ups are known in advance (θ doubles with ``i``),
so one ``sample_rr_sets`` call draws the current batch and the following
ones, up to ``AHEAD_CAP`` sets, and queues them; the first starts where
the collection ends. A top-up no longer than it takes its prefix, which
is the batch it would have sampled (``sample_rr_sets``: a batch is a pure
function of its seed, offset and size, and prefix-stable); a longer one
samples its whole request there again. A partial take empties the queue.
So RR sets, seeds, ``n_rr`` and coverage are those of one call per
top-up. Discarded tails count in ``sampled``, not in ``n_rr``. This is
the SSA/D-SSA idea (Nguyen, Thai, Dinh, SIGMOD 2016) of sampling
geometric batches ahead.

IMM itself is the single-budget special case (`im.imm`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.generator import SocialGraph
from repro.im.rrsets import RRCollection, RRSets, sample_rr_sets

BATCH_CAP = 200_000  # RR sets per sampling batch (one root stream) at most
# RR sets per sampling call at most, unless its first batch alone is more. A
# call's Spark latency dominates: 12,500 sets on douban-movie-lite cost about
# a fifth of a call more than 300 (4-core box).
AHEAD_CAP = 12_500
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
    n_rr: int                      # RR sets the seeds were selected from
    coverage: np.ndarray = field(repr=False)   # F_R over prefixes of `seeds`
    sampled: int                   # RR sets drawn, discarded look-ahead tails included
    sampling_calls: int            # `sample_rr_sets` calls, one Spark job each


def primm(
    graph: SocialGraph,
    budgets: list[int],
    *,
    seed: int,
) -> PrimmResult:
    """Algorithm 3. ``budgets`` is b⃗ (any order; sorted non-increasing)."""
    b = sorted(int(x) for x in budgets if x > 0)[::-1]
    assert b, "need at least one positive budget"
    n = graph.n
    rr = RRCollection(n)
    ell2 = ELL + math.log(2) / math.log(n)          # line 2
    ell_p = ell2 + math.log(len(b)) / math.log(n)   # line 3: log_n(n^ℓ·|b|)
    eps_p = math.sqrt(2) * EPS                      # line 4
    max_i = int(math.log2(n)) - 1
    ahead: list[RRSets] = []                        # sampled ahead; ahead[0] starts at len(rr)
    sampled = calls = 0

    def failing_path(k: int, i: int) -> list[float]:
        """The top-up targets from step ``i`` on if every check fails:
        θ_i … θ_max_i (line 9), then the LB = 1 fallback (lines 22-25)."""
        return ([lambda_prime(n, k, eps_p, ell_p) / (n / 2**j) for j in range(i, max_i + 1)]
                + [lambda_star(n, k, EPS, ell_p)])

    def top_up(targets: list[float]) -> None:
        """Grow the collection to ``targets[0]`` sets from the prefix of
        ``ahead[0]``, if it is long enough. Otherwise replace ``ahead`` with
        the batches of the top-ups to ``targets`` (``targets[1:]`` follow if
        the coming checks fail), split at ``BATCH_CAP``: the first batch and
        those after it that fit in ``AHEAD_CAP`` sets, in one sampling call."""
        nonlocal sampled, calls
        goal = math.ceil(targets[0])
        while len(rr) < goal:
            take = min(goal - len(rr), BATCH_CAP)
            if not ahead or len(ahead[0]) < take:
                sizes, end = [], len(rr)
                for t in map(math.ceil, targets):
                    while t > end:
                        sizes.append(min(t - end, BATCH_CAP))
                        end += sizes[-1]
                sizes = sizes[:max(1, int(np.searchsorted(np.cumsum(sizes), AHEAD_CAP, side="right")))]
                sets = sample_rr_sets(graph, sizes, seed=seed, id_offset=len(rr))
                sampled, calls = sampled + len(sets), calls + 1
                at = np.cumsum([0] + sizes)
                ahead[:] = [sets[i:j] for i, j in zip(at[:-1], at[1:])]
            batch = ahead.pop(0)
            rr.extend(batch[:take])
            if take < len(batch):   # the batches behind no longer start at len(rr)
                ahead.clear()

    s = 0                      # index into b (paper's s-1)
    i = 1
    budget_switch = False
    last_selection: list[int] = []
    while i <= max_i and s < len(b):
        k = b[s]
        x = n / (2**i)
        top_up(failing_path(k, i))
        if budget_switch:
            s_k = last_selection[:k]
            f_k = rr.coverage_of(s_k)
        else:
            s_k, cov = rr.node_selection(k)
            last_selection = s_k
            f_k = cov[-1] if len(cov) else 0.0
        if n * f_k >= (1 + eps_p) * x:              # line 14
            lb = n * f_k / (1 + eps_p)
            top_up([lambda_star(n, k, EPS, ell_p) / lb])
            s += 1
            budget_switch = True
        else:
            i += 1
            budget_switch = False
    if s < len(b):                                  # lines 22-25 fallback: LB = 1
        top_up([lambda_star(n, b[s], EPS, ell_p)])
    seeds, coverage = rr.node_selection(b[0])       # line 26: b̄ = max budget
    return PrimmResult(seeds=seeds, n_rr=len(rr), coverage=coverage,
                       sampled=sampled, sampling_calls=calls)
