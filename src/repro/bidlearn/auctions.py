"""Learning item values from bidding histories (§6.4.1, Table 5).

The paper learns itemset value distributions from eBay bidding histories
with Jiang & Leyton-Brown's hidden-bid method, then uses the mean as the
value and the variance as the noise variance. We cannot access eBay, so
(DESIGN.md substitution #3) we *generate* English-auction bidding
histories from ground-truth parameters — the paper's learned Table 5
numbers — and implement the hidden-bid correction as a censored-normal
EM estimator:

- each auction draws ``n_bidders`` valuations from N(μ, σ²); the losers'
  final (proxy) bids reveal their valuations, while the winner's
  valuation is *hidden* — only the second price is observed, so the
  winner contributes a right-censored observation (value > max observed
  bid);
- ignoring the censoring (the "naive" estimator) biases the mean low,
  which is precisely the effect the hidden-bid method corrects; EM with
  the truncated-normal conditional moments recovers (μ, σ).

Everything is numpy (no scipy in the environment): normal pdf/cdf via
``math.erf``, truncated moments in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.utility import norm_cdf

EM_ITERS, EM_TOL = 200, 1e-8  # EM's step limit, and the μ and σ moves that stop it
FIT_SAMPLES = 10_000  # samples §6.4.1 draws from the learned distribution


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


_cdf = np.vectorize(norm_cdf)


@dataclass(frozen=True)
class BiddingHistory:
    """Observed data of one itemset's auctions: exact bids (losers) and
    censor thresholds (winners' hidden values exceed these)."""

    observed: np.ndarray   # losers' revealed valuations, flat
    censored_at: np.ndarray  # one per auction: winner's value > this


def simulate_bidding_history(
    mu: float,
    sigma: float,
    *,
    n_auctions: int,
    n_bidders: int,
    seed: int,
) -> BiddingHistory:
    """English (proxy) auctions from N(mu, sigma²) valuations."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(mu, sigma, size=(n_auctions, n_bidders))
    vals.sort(axis=1)
    losers = vals[:, :-1].ravel()
    second_price = vals[:, -2]
    return BiddingHistory(observed=losers, censored_at=second_price)


def learn_value_distribution(history: BiddingHistory) -> tuple[float, float]:
    """Censored-normal EM: recover (mu, sigma) with hidden winners.

    E-step uses the truncated-normal moments
    ``E[X | X > c] = μ + σ·λ(z)`` and
    ``E[X² | X > c] = μ² + σ² + (μ + c)·σ·λ(z)`` with
    ``z = (c − μ)/σ``, ``λ(z) = φ(z)/(1 − Φ(z))``.
    """
    x = history.observed
    c = history.censored_at
    n_obs, n_cen = len(x), len(c)
    mu = float(np.concatenate([x, c]).mean())
    sigma = float(np.concatenate([x, c]).std() + 1e-6)
    for _ in range(EM_ITERS):
        z = (c - mu) / sigma
        # guard the hazard in the far tail
        denom = np.clip(1.0 - _cdf(z), 1e-12, None)
        lam = _phi(z) / denom
        e1 = mu + sigma * lam
        e2 = mu**2 + sigma**2 + (mu + c) * sigma * lam
        total = n_obs + n_cen
        new_mu = (x.sum() + e1.sum()) / total
        new_var = (np.sum(x**2) + e2.sum()) / total - new_mu**2
        new_sigma = math.sqrt(max(new_var, 1e-9))
        if abs(new_mu - mu) < EM_TOL and abs(new_sigma - sigma) < EM_TOL:
            mu, sigma = new_mu, new_sigma
            break
        mu, sigma = new_mu, new_sigma
    return float(mu), float(sigma)


def naive_estimate(history: BiddingHistory) -> tuple[float, float]:
    """The estimator without the hidden-bid correction (treats the
    winner's observed second price as their value). Biased low — kept to
    demonstrate the correction matters."""
    all_bids = np.concatenate([history.observed, history.censored_at])
    return float(all_bids.mean()), float(all_bids.std())


def gaussian_fit_of_samples(mu: float, sigma: float, *, seed: int) -> tuple[float, float]:
    """§6.4.1's final step: draw ``FIT_SAMPLES`` samples from the learned
    distribution and fit a gaussian (here: sample mean/std)."""
    rng = np.random.default_rng(seed)
    s = rng.normal(mu, sigma, FIT_SAMPLES)
    return float(s.mean()), float(s.std())
