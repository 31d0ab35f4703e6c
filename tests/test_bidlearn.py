"""Tests for the bid-history learning substrate (§6.4.1, Table 5)."""
import numpy as np
import pytest

from repro.bidlearn.auctions import (
    learn_value_distribution,
    naive_estimate,
    simulate_bidding_history,
)
from repro.core.configs import TABLE5_ANCHORS


@pytest.mark.parametrize(
    "mu,var", [(v[1], v[2]) for v in TABLE5_ANCHORS.values()]
)
def test_em_recovers_table5_parameters(mu, var):
    """The hidden-bid EM recovers each Table 5 (value, variance) from
    synthetic auctions to within ~1% of the mean / ~35% of sigma."""
    sigma = float(np.sqrt(var))
    hist = simulate_bidding_history(mu, sigma, n_auctions=600, n_bidders=6, seed=42)
    mu_hat, sigma_hat = learn_value_distribution(hist)
    assert mu_hat == pytest.approx(mu, rel=0.01)
    assert sigma_hat == pytest.approx(sigma, rel=0.35)


def test_naive_estimator_biased_low():
    """Without the hidden-bid correction the mean is biased low — the
    effect Jiang & Leyton-Brown's method (and our EM) corrects."""
    hist = simulate_bidding_history(100.0, 5.0, n_auctions=800, n_bidders=6, seed=1)
    mu_naive, _ = naive_estimate(hist)
    mu_em, _ = learn_value_distribution(hist)
    assert mu_naive < 100.0
    assert abs(mu_em - 100.0) < abs(mu_naive - 100.0)


def test_history_shapes():
    hist = simulate_bidding_history(50.0, 2.0, n_auctions=100, n_bidders=4, seed=0)
    assert len(hist.censored_at) == 100
    assert len(hist.observed) == 100 * 3  # losers only


def test_censoring_is_second_price():
    """Each auction's censor point is its second-highest valuation, i.e.
    at least every observed loser bid of that auction."""
    hist = simulate_bidding_history(10.0, 3.0, n_auctions=50, n_bidders=5, seed=3)
    losers = hist.observed.reshape(50, 4)
    assert np.all(hist.censored_at >= losers.max(axis=1) - 1e-12)


def test_deterministic_in_seed():
    a = simulate_bidding_history(10.0, 1.0, n_auctions=400, n_bidders=6, seed=9)
    b = simulate_bidding_history(10.0, 1.0, n_auctions=400, n_bidders=6, seed=9)
    assert np.array_equal(a.observed, b.observed)


@pytest.mark.parametrize("n_bidders", [3, 6, 10])
def test_em_robust_to_auction_size(n_bidders):
    hist = simulate_bidding_history(
        200.0, 4.0, n_auctions=500, n_bidders=n_bidders, seed=7
    )
    mu_hat, _ = learn_value_distribution(hist)
    assert mu_hat == pytest.approx(200.0, rel=0.02)
