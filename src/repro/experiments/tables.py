"""Reproduction of the evaluation-section tables (Tables 2–5)."""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.bidlearn.auctions import (
    gaussian_fit_of_samples,
    learn_value_distribution,
    naive_estimate,
    simulate_bidding_history,
)
from repro.core import configs
from repro.core.itemsets import bits, is_monotone
from repro.graphs.generator import NETWORK_SPECS, SocialGraph, load_network

#: Paper's Table 2 rows, for side-by-side comparison.
PAPER_TABLE2 = pd.DataFrame(
    [
        ("Flixster", 12_900, 192_000, 14.8, "undirected"),
        ("Douban-Book", 23_300, 141_000, 6.5, "directed"),
        ("Douban-Movie", 34_900, 274_000, 7.9, "directed"),
        ("Twitter", 41_700_000, 1_470_000_000, 70.5, "directed"),
    ],
    columns=["network", "nodes", "edges", "avg_degree", "type"],
)

#: Paper's Table 3 GAP column (derived there from Eq. 5, reproduced here).
PAPER_TABLE3_GAP = {
    1: {"q_1|0": 0.1, "q_2|0": 0.1, "q_1|2": 0.99, "q_2|1": 0.99},
    3: {"q_1|0": 0.5, "q_2|0": 0.5, "q_1|2": 0.84, "q_2|1": 0.84},
    5: {"q_1|0": 0.5, "q_2|0": 0.16, "q_1|2": 0.98, "q_2|1": 0.84},
}
PAPER_TABLE3_GAP[2] = PAPER_TABLE3_GAP[1]
PAPER_TABLE3_GAP[4] = PAPER_TABLE3_GAP[3]
PAPER_TABLE3_GAP[6] = PAPER_TABLE3_GAP[5]

TABLE5_BIDDERS = 6  # bidders in each synthetic Table 5 auction


def network_stats(graph: SocialGraph) -> dict:
    """Table 2 row: nodes, edges, avg degree, type.

    Mirrors the paper's convention (#edges = stored pairs for directed
    graphs / undirected pairs for undirected ones; avg degree =
    edges/nodes, matching e.g. 192K/12.9K = 14.8 for Flixster).
    """
    m_directed = graph.m
    m_report = m_directed if graph.directed else m_directed // 2
    return {
        "network": graph.name,
        "nodes": graph.n,
        "edges": m_report,
        "avg_degree": round(m_report / graph.n, 1),
        "type": "directed" if graph.directed else "undirected",
    }


def table2(spark: SparkSession) -> pd.DataFrame:
    """Table 2: statistics of the four stand-in networks."""
    rows = [network_stats(load_network(spark, name)) for name in NETWORK_SPECS]
    return pd.DataFrame(rows)


def table3() -> pd.DataFrame:
    """Table 3: two-item configurations with the GAP column *derived*
    from price/value/noise via Eq. (5) next to the paper's values."""
    rows = []
    for cfg in range(1, 7):
        m = configs.two_item_model(cfg)
        gap = m.gap_params()
        paper = PAPER_TABLE3_GAP[cfg]
        for key in ("q_1|0", "q_2|0", "q_1|2", "q_2|1"):
            rows.append(
                {
                    "config": cfg,
                    "V(i1)": m.values[1],
                    "V(i2)": m.values[2],
                    "V(i1,i2)": m.values[3],
                    "budget": configs.TABLE3_BUDGET_STYLE[cfg],
                    "gap_param": key,
                    "derived": round(gap[key], 3),
                    "paper": paper[key],
                }
            )
    return pd.DataFrame(rows)


def table4(n_items: int = 10) -> pd.DataFrame:
    """Table 4: multi-item configurations + verified structural claims."""
    rows = []
    meta = {
        7: ("Additive", "Uniform"),
        8: ("Cone-max", "Non-uniform"),
        9: ("Cone-min", "Non-uniform"),
        10: ("Level-wise", "Uniform"),
    }
    for cfg in (7, 8, 9, 10):
        m = configs.multi_item_model(cfg, n_items)
        det = m.det_utility()
        rows.append(
            {
                "config": cfg,
                "value": meta[cfg][0],
                "budget": meta[cfg][1],
                "supermodular_value": m.supermodular,
                "monotone_value": is_monotone(m.values, n_items),
                "n_positive_det_utility": int((det[1:] > 1e-12).sum()),
            }
        )
    return pd.DataFrame(rows)


def table5(*, n_auctions: int = 400, seed: int) -> pd.DataFrame:
    """Table 5: learned values/noise vs ground truth (paper's numbers).

    For each anchored itemset we synthesize bidding histories from the
    paper's learned (value, variance), run the hidden-bid EM estimator,
    and report the recovered parameters next to the ground truth, plus
    the naive (no hidden-bid correction) estimate for contrast.
    """
    rows = []
    for i, (mask, (price, value, var)) in enumerate(configs.TABLE5_ANCHORS.items()):
        sigma = float(np.sqrt(var))
        hist = simulate_bidding_history(
            value, sigma, n_auctions=n_auctions, n_bidders=TABLE5_BIDDERS, seed=seed + i
        )
        mu_hat, sigma_hat = learn_value_distribution(hist)
        mu_fit, sigma_fit = gaussian_fit_of_samples(mu_hat, sigma_hat, seed=seed + i)
        mu_naive, _ = naive_estimate(hist)
        rows.append(
            {
                "itemset": "{" + ",".join(configs.REAL_ITEMS[j] for j in bits(mask)) + "}",
                "price": price,
                "paper_value": value,
                "paper_noise_var": var,
                "learned_value": round(mu_fit, 1),
                "learned_noise_var": round(sigma_fit**2, 1),
                "naive_value": round(mu_naive, 1),
            }
        )
    return pd.DataFrame(rows)
