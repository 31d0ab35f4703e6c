"""Tests for the diffusion engine: its NumPy coin and hash against
Spark's, its output against the Spark loops it replaced, the kernel alone
against plain reachability, and its check of node ids."""
import hashlib
import json
import pickle

import numpy as np
import pandas as pd
import pytest
from pyspark import cloudpickle
from pyspark.sql import functions as F

from repro.alloc.comic_baselines import adoption_frequency
from repro.core import configs
from repro.diffusion import reach
from repro.diffusion.epic import LOOP_PARTITIONS, final_adoptions, simulate_welfare_multi
from repro.diffusion.ic import reached, spread_mc
from repro.graphs.generator import FIG1_EDGES, fig1_graph
from repro.im.rrsets import sample_rr_sets
from tests.oracles import coin, er_graph, exact_reachable, spark_coin


@pytest.mark.parametrize("seed", [7, 2**31 + 5])
def test_numpy_coin_matches_spark(spark, seed):
    """Same draw as Spark's ``xxhash64`` coin on (int world, long, long)
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
        .select("*", spark_coin(seed, "world", "u", "v").alias("c"))
        .toPandas()
    )
    mine = coin(seed, (got["world"], "int"), (got["u"], "long"), (got["v"], "long"))
    np.testing.assert_array_equal(mine, got["c"].to_numpy())


@pytest.mark.parametrize("seed", [7, 2**31 + 5])
@pytest.mark.parametrize("key_type", ["int", "long"])
def test_hoisted_coin_is_coin(seed, key_type):
    """The kernels hash ``(seed, key)`` once per key and, walking forwards,
    the source once per frontier cell; every edge still flips
    ``coin(seed, key, src, dst)``, also walking backwards."""
    rng = np.random.default_rng(3)
    n, m = 40, 500
    csr = reach.build_csr(n, *rng.integers(0, n, (2, m)), np.ones(m))
    top = 2**31 if key_type == "int" else 2**63
    ukeys = rng.integers(-top, top, 25)
    hk = reach._xxh64(ukeys, reach._seeded(seed), key_type)
    frontier = np.unique(rng.integers(0, len(ukeys) * n, 300))
    for reverse in (False, True):
        ptr, nbr, _ = csr[reverse]
        k, u, v, _, c = reach._out_edges(ptr, nbr, frontier, n, hk, reverse)
        src, dst = (v, u) if reverse else (u, v)
        assert len(c) > m / 2
        np.testing.assert_array_equal(
            c, coin(seed, (ukeys[k], key_type), (src, "long"), (dst, "long")))


def test_numpy_hash_matches_spark(spark):
    """Same value as Spark's ``hash`` (its hash partitioning key) on
    (int, int, long) keys over the full value ranges."""
    rng = np.random.default_rng(11)
    i64 = np.iinfo(np.int64)
    pdf = pd.DataFrame({
        "alloc": rng.integers(-(2**31), 2**31, 100_000, dtype=np.int32),
        "world": rng.integers(-(2**31), 2**31, 100_000, dtype=np.int32),
        "node": rng.integers(i64.min, i64.max, 100_000, dtype=np.int64),
    })
    got = (
        spark.createDataFrame(pdf, "alloc int, world int, node long")
        .select("*", F.hash("alloc", "world", "node").alias("h"))
        .toPandas()
    )
    mine = reach.spark_hash((got["alloc"], "int"), (got["world"], "int"), (got["node"], "long"))
    np.testing.assert_array_equal(mine, got["h"].to_numpy())


def test_kernels_pickle_by_reference():
    """A job names its kernel: workers import ``repro`` from the executors'
    ``PYTHONPATH``, so cloudpickle ships the kernels as plain pickle does,
    without their code objects."""
    for kernel in (reach.reach, reach.cascade):
        assert cloudpickle.dumps(kernel) == pickle.dumps(kernel, cloudpickle.DEFAULT_PROTOCOL)


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
        map(list, zip(*(a.tolist() for a in reached(g, [0, 7], n_worlds=8, seed=9))))
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
        k, v = reach.reach(csr, keys, flat, edge_seed=0, key_type="int", reverse=reverse,
                           accept=None)
        for i, s in enumerate(starts):
            want = (
                exact_reachable(fig1, s) if not reverse
                else {u for u in range(7) if exact_reachable(fig1, [u]) & set(s)}
            )
            assert v[k == i].tolist() == sorted(want)


def test_cascade_kernel_alone_is_epic(spark):
    """No Spark in the kernel: with p = 1 and the identity g-table (every
    node adopts all it desires), a scenario's rows are the nodes its seeds
    reach, each adopting the OR of the masks of the seeds that reach it.
    An empty shard (fewer scenarios than tasks) gives no rows."""
    e = np.array(FIG1_EDGES)
    csr = reach.build_csr(7, e[:, 0], e[:, 1], np.ones(len(e)))
    fig1 = fig1_graph(spark)
    seeds = {0: {0: 0b01, 4: 0b10}, 3: {6: 0b11}, 5: {1: 0b01, 2: 0b10, 5: 0b100}, 6: {3: 0b111}}
    scen, starts, masks = (np.array(c) for c in zip(*[
        (s, v, m) for s, alloc in seeds.items() for v, m in alloc.items()
    ]))
    kw = dict(n_worlds=2, tables=np.tile(np.arange(8), (2, 1)), edge_seed=0, cap=10)
    (at, node, adopt, _), steps = reach.cascade(csr, scen, starts, masks, **kw)
    assert steps <= 4
    for s, alloc in seeds.items():
        got = dict(zip(node[at == s].tolist(), adopt[at == s].tolist()))
        assert set(got) == exact_reachable(fig1, list(alloc))
        for v, a in got.items():
            reaching = [m for u, m in alloc.items() if v in exact_reachable(fig1, [u])]
            assert a == np.bitwise_or.reduce(reaching)
    empty = np.zeros(0, np.int64)
    rows, steps = reach.cascade(csr, empty, empty, empty, **kw)
    assert steps == 0 and [len(c) for c in rows] == [0, 0, 0, 0]


def _welfare(res) -> str:
    return _digest({k: [float(x).hex() for x in r.per_world_welfare] for k, r in res.items()})


def _rows(adopt) -> str:
    return _digest(np.column_stack([adopt["world"], adopt["node"], adopt["adopt"]]).tolist())


def _alloc(seed: int, n: int, k: int, n_items: int) -> dict[int, int]:
    rng = np.random.default_rng(seed)
    return {int(v): int(rng.integers(1, 2**n_items)) for v in rng.choice(n, k, replace=False)}


G3, REAL = configs.two_item_model(3), configs.real_model()


# Digests of the per-superstep Spark loop (join, coin, table lookup,
# anti-join + union, checkpoint each step) that the EPIC cascade replaced,
# on ``er`` with 32 shuffle partitions on 4 cores (``epic.LOOP_PARTITIONS``).
# Welfare sums ``util`` in row order, so the per-world welfare digests pin
# the row order too. "g"/"pair" name the adoption table. The last superstep
# touches no row in the "quiet" cases, and touches rows without changing an
# adoption in the "touch" ones. No seed adopts in "none", so no superstep
# runs and the rows come by key, (world, node): its digest is of the
# replaced loop's rows sorted that way, which pins both content and order.
EPIC_CASES = [
    ("g-multi-quiet", lambda g: _welfare(simulate_welfare_multi(
        g, G3, {"a": {0: 1, 1: 2, 2: 1}, "b": _alloc(1, g.n, 10, 2), "c": _alloc(2, g.n, 25, 2)},
        n_worlds=6, seed=3)), "773f0fcf411b0286"),
    ("g-multi-touch", lambda g: _welfare(simulate_welfare_multi(
        g, G3, {"a": _alloc(13, g.n, 8, 2), "b": _alloc(33, g.n, 20, 2)}, n_worlds=4, seed=3)),
     "86d08cb66be7de5a"),
    ("pair-multi-quiet", lambda g: _welfare(simulate_welfare_multi(
        g, REAL, {"a": {0: 31, 1: 31}, "b": _alloc(3, g.n, 12, 5)}, n_worlds=4, seed=2)), "07fbf2b3b6f23463"),
    ("g-rows-quiet", lambda g: _rows(final_adoptions(g, G3, _alloc(61, g.n, 15, 2), n_worlds=5, seed=1)),
     "d00d8d46e08b22c2"),
    ("pair-rows-touch", lambda g: _rows(final_adoptions(g, REAL, _alloc(51, g.n, 10, 5), n_worlds=4, seed=1)),
     "cfc1368282893829"),
    ("pair-rows-none", lambda g: _rows(final_adoptions(g, REAL, _alloc(55, g.n, 10, 5), n_worlds=4, seed=5)),
     "1a768022d4edceb0"),
]


@pytest.mark.parametrize("name,make,digest", EPIC_CASES)
def test_epic_matches_replaced_loop(er, name, make, digest):
    assert make(er) == digest


# The same loop's rows when seeds adopt but no superstep touches a row
# (v4 and v7 have no out-edges), digested sorted by (world, node). One
# quiet superstep runs, so the rows come by (partition, key).
SEEDS_ONLY = "e6d8383daf8e5b28"


def _seeds_only(spark) -> str:
    adopt = final_adoptions(fig1_graph(spark), configs.example_model(), {3: 0b101, 6: 0b111},
                            n_worlds=3, seed=0)
    world, node = adopt["world"], adopt["node"]
    part = reach.spark_hash((0 * world, "int"), (world, "int"), (node, "long")) % LOOP_PARTITIONS
    np.testing.assert_array_equal(np.lexsort((world * 7 + node, part)), np.arange(len(node)))
    return _digest(sorted(np.column_stack([world, node, adopt["adopt"]]).tolist()))


def test_epic_seeds_only_matches_replaced_loop(spark):
    assert _seeds_only(spark) == SEEDS_ONLY


def test_epic_row_order_ignores_the_session(spark, er):
    """The row order of the quiet cases and of those where no superstep
    touches a row comes from ``epic.LOOP_PARTITIONS``, not from the
    session's shuffle partitions: it holds at 7 partitions too."""
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    spark.conf.set(key, "7")
    try:
        for name, make, digest in EPIC_CASES:
            if name in ("g-multi-quiet", "g-rows-quiet", "pair-rows-none"):
                assert make(er) == digest, name
        assert _seeds_only(spark) == SEEDS_ONLY
    finally:
        spark.conf.set(key, old)


# The kernels pack ``(key, node)`` as ``key * n + node``, so node n would
# alias node 0 of the next key: node ids are checked at the engine's entry.
def test_out_of_range_seed_raises_in_reach(spark):
    with pytest.raises(ValueError, match="node ids"):
        spread_mc(fig1_graph(spark), [4, 7], n_worlds=32, seed=0)


def test_out_of_range_seed_raises_in_epic(spark):
    with pytest.raises(ValueError, match="node ids"):
        simulate_welfare_multi(fig1_graph(spark), configs.example_model(),
                               {"a": {4: 0b101, 7: 0b101}}, n_worlds=2, seed=0)
