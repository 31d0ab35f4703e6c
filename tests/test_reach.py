"""Tests for the reachability engine: its NumPy coin against Spark's, its
output against the Spark loops it replaced, and the kernel alone against
plain reachability."""
import hashlib
import json

import numpy as np
import pandas as pd
import pytest

from repro.alloc.comic_baselines import adoption_frequency
from repro.diffusion import reach
from repro.diffusion.common import coin
from repro.diffusion.ic import active_nodes, exact_reachable
from repro.graphs.generator import FIG1_EDGES, er_graph, fig1_graph
from repro.im.rrsets import sample_rr_sets


@pytest.mark.parametrize("seed", [7, 2**31 + 5])
def test_numpy_coin_matches_spark(spark, seed):
    """Same draw as ``diffusion.common.coin`` on (int world, long, long)
    keys over the full value ranges, for an int- and a long-typed seed."""
    rng = np.random.default_rng(seed % 1000)
    i64 = np.iinfo(np.int64)
    pdf = pd.DataFrame({
        "world": rng.integers(-(2**31), 2**31, 100_000, dtype=np.int32),
        "u": rng.integers(i64.min, i64.max, 100_000, dtype=np.int64),
        "v": rng.integers(i64.min, i64.max, 100_000, dtype=np.int64),
    })
    got = (
        spark.createDataFrame(pdf, "world int, u long, v long")
        .select("*", coin(seed, "world", "u", "v").alias("c"))
        .toPandas()
    )
    mine = reach.coin(seed, (got["world"], "int"), (got["u"], "long"), (got["v"], "long"))
    np.testing.assert_array_equal(mine, got["c"].to_numpy())


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _sets(sets) -> str:
    return _digest([sorted(int(v) for v in s) for s in sets])


@pytest.fixture(scope="module")
def er(spark):
    return er_graph(spark, name="er-reach", n=150, m_target=900, seed=21)


@pytest.fixture(scope="module")
def probs(er):
    return np.random.default_rng(1).uniform(0.3, 1.0, er.n)


# Digests of the outputs of the per-superstep Spark loops (join, coin,
# dedupe, checkpoint each step) that this engine replaced, on ``er``.
@pytest.mark.parametrize("name,make,digest", [
    ("rr", lambda g, q: _sets(sample_rr_sets(g, 300, seed=5)), "76de3687b11d64ba"),
    ("rr-weighted", lambda g, q: _sets(sample_rr_sets(g, 300, seed=5, node_probs=q)),
     "a9f3b30bde9b9b4b"),
    ("rr-offset", lambda g, q: _sets(sample_rr_sets(g, 300, seed=5, id_offset=1000)),
     "4ea585d07cc567c8"),
    ("rr-long-seed", lambda g, q: _sets(sample_rr_sets(g, 100, seed=2**31 + 5, node_probs=q)),
     "96820918f746d763"),
    ("adoption", lambda g, q: _digest(
        (adoption_frequency(g, [0, 1, 2], 0.5, n_worlds=8, seed=4) * 8).round().astype(int).tolist()
    ), "c4e37eaf6815c8e6"),
    ("ic", lambda g, q: _digest(sorted(
        map(list, active_nodes(g, [0, 7], n_worlds=8, seed=9).toPandas().astype(int).itertuples(index=False))
    )), "099b1902ec6add9b"),
])
def test_engine_matches_replaced_loops(er, probs, name, make, digest):
    assert make(er, probs) == digest


def test_kernel_alone_is_reachability(spark):
    """No Spark in the kernel: with p = 1 on every edge, a key reaches what
    its start nodes reach (repeated starts once), forwards and backwards."""
    e = np.array(FIG1_EDGES)
    csr = reach.build_csr(7, e[:, 0], e[:, 1], np.ones(len(e)))
    fig1 = fig1_graph(spark)
    starts = [[v] for v in range(7)] + [[0, 4], [4, 4], [6, 0, 6]]
    keys = np.repeat(np.arange(len(starts)), [len(s) for s in starts])
    flat = np.concatenate(starts)
    for reverse in (False, True):
        k, v = reach.reach(csr, keys, flat, edge_seed=0, key_type="int", reverse=reverse)
        for i, s in enumerate(starts):
            want = (
                exact_reachable(fig1, s) if not reverse
                else {u for u in range(7) if exact_reachable(fig1, [u]) & set(s)}
            )
            assert v[k == i].tolist() == sorted(want)

