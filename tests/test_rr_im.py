"""Tests for RR-set sampling, NodeSelection, IMM and PRIMM."""
import hashlib

import numpy as np
import pytest

from repro.alloc.greedy_wm import greedy_wm
from repro.diffusion.ic import spread_mc
from repro.graphs.generator import fig1_graph, power_law_graph
from repro.im.imm import imm
from repro.im.primm import lambda_prime, lambda_star, log_binom, primm
from repro.im.rrsets import RRCollection, RRSets, sample_rr_sets
from tests.oracles import rr_sets


@pytest.fixture(scope="module")
def graph(spark):
    return power_law_graph(spark, name="pl-im", n=250, m_target=1500, directed=True, seed=8)


# ---- RR sets -----------------------------------------------------------


def test_rr_sets_contain_root_ancestors_only(spark):
    """On Fig. 1 (p=1): the RR set of a root is exactly the nodes that
    can reach it."""
    g = fig1_graph(spark)
    sets = sample_rr_sets(g, 40, seed=0)
    # invert: reachable-to relation. fig1 edges 0->1->2->3, 4->2, 4->5->6
    can_reach = {
        0: {0}, 1: {0, 1}, 2: {0, 1, 2, 4}, 3: {0, 1, 2, 3, 4},
        4: {4}, 5: {4, 5}, 6: {4, 5, 6},
    }
    for s in sets:
        root_candidates = [r for r, anc in can_reach.items() if set(s) == anc]
        assert root_candidates, f"RR set {sorted(s)} matches no root's ancestor set"


def test_rr_sets_deterministic(graph):
    a = sample_rr_sets(graph, 50, seed=5)
    b = sample_rr_sets(graph, 50, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_rr_batches_independent(graph):
    a = sample_rr_sets(graph, 30, seed=5, id_offset=0)
    b = sample_rr_sets(graph, 30, seed=5, id_offset=30)
    assert not all(np.array_equal(x, y) for x, y in zip(a, b))


def test_rr_batch_list_is_consecutive_scalar_calls(graph):
    """A list of batch sizes draws each batch from its own offset's root
    stream, in one call: the same sets as one scalar call per batch."""
    batched = sample_rr_sets(graph, [7, 1, 12], seed=5, id_offset=40)
    apart = [s for o, t in ((40, 7), (47, 1), (48, 12))
             for s in sample_rr_sets(graph, t, seed=5, id_offset=o)]
    assert len(batched) == 20
    assert all(np.array_equal(x, y) for x, y in zip(batched, apart))


def test_rr_sample_of_nothing_is_empty(graph):
    """No batch, or one batch of no sets, gives no RR sets."""
    assert len(sample_rr_sets(graph, 0, seed=5)) == 0
    assert len(sample_rr_sets(graph, [], seed=5)) == 0


def test_rr_batch_is_prefix_of_larger_batch(graph):
    """What look-ahead sampling relies on: a batch of ``t`` sets is the
    first ``t`` sets of a batch of ``T > t`` at the same offset."""
    small = sample_rr_sets(graph, 9, seed=5, id_offset=30)
    large = sample_rr_sets(graph, 25, seed=5, id_offset=30)
    assert all(np.array_equal(x, y) for x, y in zip(small, large[:9]))


def test_node_prob_filter_shrinks_sets(graph):
    full = sample_rr_sets(graph, 60, seed=6)
    filtered = sample_rr_sets(
        graph, 60, seed=6, node_probs=np.full(graph.n, 0.2)
    )
    assert sum(map(len, filtered)) < sum(map(len, full))


def test_flat_rr_sets_are_the_split_arrays():
    """``RRSets`` reads as the list ``np.split`` would cut from the same
    arrays: length, slices (views, empty and full included), slices of
    slices and iteration."""
    rng = np.random.default_rng(2)
    sizes = rng.integers(0, 4, 30)
    sizes[[0, 7, 29]] = 0
    nodes = rng.integers(0, 50, sizes.sum())
    ptr = np.r_[0, np.cumsum(sizes)]
    sets, split = RRSets(nodes, ptr), np.split(nodes, ptr[1:-1])

    def same(a, b):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))

    assert same(list(sets), split)
    for sl in (slice(None), slice(3, 11), slice(5, 5), slice(9, 2), slice(20, 100), slice(-4, None)):
        view = sets[sl]
        assert view.nodes is nodes
        assert same(list(view), split[sl])
        assert same(list(view[1:3]), split[sl][1:3])
    assert len(RRSets(nodes[:0], ptr[:1])) == 0


# ---- NodeSelection -----------------------------------------------------


def per_set_node_selection(sets: list[np.ndarray], n: int, k: int) -> tuple[list[int], np.ndarray]:
    """NodeSelection as one loop over the covered sets, each set an array
    of distinct nodes: the oracle of the vectorised ``node_selection``."""
    if not sets:
        return [], np.zeros(0)
    flat_nodes = np.concatenate(sets)
    flat_rrs = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    counts = np.bincount(flat_nodes, minlength=n).astype(np.int64)
    order = np.argsort(flat_nodes, kind="stable")
    sorted_rrs = flat_rrs[order]
    starts = np.searchsorted(flat_nodes[order], np.arange(n + 1))
    covered = np.zeros(len(sets), dtype=bool)
    seeds, coverage, n_cov = [], [], 0
    for _ in range(min(k, n)):
        v = int(counts.argmax())
        seeds.append(v)
        for rr in sorted_rrs[starts[v]:starts[v + 1]]:
            if not covered[rr]:
                covered[rr] = True
                n_cov += 1
                counts[sets[rr]] -= 1
        counts[v] = -1
        coverage.append(n_cov / len(sets))
    return seeds, np.asarray(coverage)


@pytest.mark.parametrize("n,n_sets,max_size,k", [
    (6, 40, 2, 4),        # many ties in every count
    (6, 40, 2, 9),        # k >= n: picks past full coverage, then every node
    (30, 500, 0, 5),      # empty sets only
    (30, 700, 4, 30),     # empty sets among others; the rest covered before the last pick
    (400, 3000, 12, 60),
])
def test_node_selection_is_the_per_set_loop(n, n_sets, max_size, k):
    """Seeds and coverage (bit for bit) equal the per-set loop's, with the
    sets added over several ``extend`` calls, whole and as slices."""
    rng = np.random.default_rng(n * n_sets + k)
    sets = [rng.choice(n, size=rng.integers(0, max_size + 1), replace=False)
            for _ in range(n_sets)]
    rr = RRCollection(n)
    third = n_sets // 3
    rr.extend(rr_sets(sets[:third]))
    flat = rr_sets(sets[third:])
    rr.extend(flat[:third])
    rr.extend(flat[third:])
    seeds, cov = rr.node_selection(k)
    want_seeds, want_cov = per_set_node_selection(sets, n, k)
    assert seeds == want_seeds
    assert [c.hex() for c in cov] == [c.hex() for c in want_cov]


def test_node_selection_greedy_cover():
    rr = RRCollection(5)
    rr.extend(rr_sets([np.array(s) for s in ([0, 1], [0, 2], [0, 3], [4], [4, 1])]))
    seeds, cov = rr.node_selection(2)
    assert seeds[0] == 0                 # covers 3 of 5
    assert cov[0] == pytest.approx(3 / 5)
    assert seeds[1] == 4                 # covers remaining 2
    assert cov[1] == pytest.approx(1.0)
    seeds, cov = rr.node_selection(4)   # all covered after 2: lowest unpicked ids
    assert seeds == [0, 4, 1, 2]
    assert cov[-1] == pytest.approx(1.0)


def test_coverage_of_matches_node_selection():
    rr = RRCollection(6)
    rng = np.random.default_rng(0)
    rr.extend(rr_sets([rng.choice(6, size=rng.integers(1, 4), replace=False) for _ in range(40)]))
    seeds, cov = rr.node_selection(3)
    assert rr.coverage_of(seeds) == pytest.approx(cov[-1])


def test_coverage_of_equals_the_per_set_loop():
    """The vectorised count gives the per-set loop's fraction, bit for bit,
    empty sets and repeated seeds included."""
    rr = RRCollection(50)
    rng = np.random.default_rng(1)
    rr.extend(rr_sets([rng.choice(50, size=rng.integers(0, 6), replace=False) for _ in range(997)]))
    for seeds in ([], [3], [7, 7, 12], list(range(0, 50, 3))):
        mask = np.isin(np.arange(50), seeds)
        hits = sum(1 for s in rr.sets if len(s) and mask[s].any())
        assert rr.coverage_of(seeds) == hits / len(rr)


def test_empty_collection():
    rr = RRCollection(4)
    seeds, cov = rr.node_selection(2)
    assert seeds == [] and len(cov) == 0
    assert rr.coverage_of([1]) == 0.0


# ---- IMM / PRIMM -------------------------------------------------------


def test_imm_fig1_picks_v5_then_v1(spark):
    g = fig1_graph(spark)
    res = imm(g, 2, seed=0)
    assert res.seeds[:2] == [4, 0]


def test_imm_fig1_seeds_are_distinct(spark):
    """Past full coverage NodeSelection adds unpicked nodes, not node 0 again."""
    seeds = imm(fig1_graph(spark), 4, seed=0).seeds
    assert seeds[:2] == [4, 0] and len(set(seeds)) == 4


def test_lambda_formulas_monotone_in_k():
    n = 1000
    lp = [lambda_prime(n, k, 0.7, 1.2) for k in (1, 5, 20, 50)]
    ls = [lambda_star(n, k, 0.5, 1.2) for k in (1, 5, 20, 50)]
    assert lp == sorted(lp) and ls == sorted(ls)


def test_log_binom():
    assert log_binom(10, 2) == pytest.approx(np.log(45))
    assert log_binom(5, 5) == 0.0


def test_imm_quality_vs_random(graph):
    """IMM's seeds should beat random seeds by a clear margin."""
    k = 5
    res = imm(graph, k, seed=1)
    rng = np.random.default_rng(0)
    rand = list(rng.choice(graph.n, size=k, replace=False))
    s_imm = spread_mc(graph, res.seeds[:k], n_worlds=16, seed=2)
    s_rand = spread_mc(graph, rand, n_worlds=16, seed=2)
    assert s_imm > s_rand


def test_primm_prefix_preserving(graph):
    """Definition 1: for every budget b_i, the top-b_i prefix of the
    PRIMM output is within (1-1/e-ε) of a dedicated IMM run (we compare
    against IMM's own achieved spread as the OPT proxy)."""
    budgets = [8, 4, 2]
    pres = primm(graph, budgets, seed=3)
    assert len(pres.seeds) >= 8
    for b in budgets:
        prefix = pres.seeds[:b]
        dedicated = imm(graph, b, seed=4).seeds[:b]
        s_prefix = spread_mc(graph, prefix, n_worlds=16, seed=5)
        s_dedicated = spread_mc(graph, dedicated, n_worlds=16, seed=5)
        assert s_prefix >= (1 - 1 / np.e - 0.5) * s_dedicated


def test_primm_reuses_rr_sets_across_budgets(graph):
    """PRIMM's RR count is governed by the max budget — far below the
    sum of dedicated IMM runs (the Fig. 6 runtime claim)."""
    pres = primm(graph, [8, 6, 4, 2], seed=6)
    total_dedicated = sum(imm(graph, b, seed=6).n_rr for b in (8, 6, 4, 2))
    assert pres.n_rr < total_dedicated


def test_primm_seed_order_is_greedy_order(graph):
    """The returned set is ordered: every prefix is the greedy cover
    prefix, so coverage is non-decreasing and concave-ish."""
    pres = primm(graph, [6], seed=7)
    assert len(pres.coverage) == 6
    assert np.all(np.diff(pres.coverage) >= -1e-12)


# Seeds, n_rr, F_R (as float.hex) and a digest of the RR sets of PRIMM on
# the module graph, recorded before sampling looked ahead, when every top-up
# was its own sampling call. The RR sets drawn and the sampling calls, and
# the moderate-split case, were recorded when the batches sampled ahead were
# still kept by offset.
PRIMM_RECORDED = {
    # IMM: the λ* top-up is a prefix of the next doubling batch
    "lambda-star-prefix": ([6], 7, [174, 84, 181, 185, 58, 160], 1060, [
        "0x1.26a439f656f18p-2", "0x1.8172f55fa342bp-2", "0x1.b0c8ef93cdc42p-2",
        "0x1.cade304d4873fp-2", "0x1.df279b8836192p-2", "0x1.f1826a439f657p-2"],
        "42238c402a41fea6", 11002, 1),
    # IMM: the λ* top-up (548 sets) outruns the doubling batch (546) it starts with
    "lambda-star-longer": ([1], 31, [174], 1095, ["0x1.197bacc55197cp-2"], "a4e2864240ef5e7c",
        4918, 2),
    # the second, equal budget passes on the first one's collection, then tops up
    "equal-budgets": ([10, 10], 0, [174, 84, 181, 191, 117, 147, 35, 66, 189, 115], 1364, [
        "0x1.3b4ed3b4ed3b5p-2", "0x1.8a2288a2288a2p-2", "0x1.afabeafabeafbp-2",
        "0x1.c6318c6318c63p-2", "0x1.d8f63d8f63d8fp-2", "0x1.e8ba2e8ba2e8cp-2",
        "0x1.f7bdef7bdef7cp-2", "0x1.02a0a82a0a82ap-1", "0x1.08a2288a2288ap-1",
        "0x1.0e4390e4390e4p-1"], "ddaf63ae8a4b8e51", 7758, 2),
    # the smaller budget's λ* top-up starts where no batch was sampled ahead
    "distinct-budgets": ([3, 1], 2, [174, 84, 181], 1110, [
        "0x1.0e4c91c230e4dp-2", "0x1.60675290d6067p-2", "0x1.8f73c6cdb8f74p-2"],
        "a9e79cd3fe86e16c", 7561, 2),
    # Fig. 7(c)/8(c)'s moderate split: nine budget switches; the first budget's
    # λ* top-up takes part of a batch, so the second one's samples anew
    "moderate-split": ([9, 8, 7, 6, 5, 5, 4, 3, 2, 1], 1, [174, 84, 181, 35, 45, 191, 86, 100, 183],
                       1378, ["0x1.3521cfb2b78c1p-2", "0x1.826a439f656f2p-2", "0x1.af005f1e1885cp-2",
                              "0x1.c310b84a4f833p-2", "0x1.d662d5457afbfp-2", "0x1.e83879de8f6b6p-2",
                              "0x1.f891a6158cd19p-2", "0x1.03b72cf539974p-1", "0x1.0ac668c727036p-1"],
                       "039dc8c5570088ae", 7514, 2),
}


@pytest.mark.parametrize("case", PRIMM_RECORDED)
def test_primm_lookahead_keeps_recorded_output(graph, case, monkeypatch):
    budgets, seed, seeds, n_rr, coverage, digest, sampled, calls = PRIMM_RECORDED[case]
    selected_from = []

    class Recording(RRCollection):
        def node_selection(self, k):
            h = hashlib.sha256()
            for s in self.sets:
                h.update(np.asarray(s, np.int64).tobytes() + b"|")
            selected_from.append(h.hexdigest()[:16])
            return super().node_selection(k)

    monkeypatch.setattr("repro.im.primm.RRCollection", Recording)
    res = primm(graph, budgets, seed=seed)
    assert res.seeds == seeds
    assert res.n_rr == n_rr
    assert [float(c).hex() for c in res.coverage] == coverage
    assert selected_from[-1] == digest     # line 26's collection, set by set
    assert (res.sampled, res.sampling_calls) == (sampled, calls)


def test_primm_sampling_calls(graph):
    """Look-ahead sampling: IMM draws all its RR sets in one Spark job, and
    greedyWM [10,10] in at most two (the second budget's λ* top-up starts
    at an offset known only after the first budget's check)."""
    res = imm(graph, 6, seed=7)
    assert res.sampling_calls == 1
    assert greedy_wm(graph, [10, 10], seed=0).sampling_calls <= 2
