"""Tests for block accounting (§5.2) — the paper's worked Examples 2-5
plus the structural Properties 1-3 and Lemma 5 on random noise worlds."""
import numpy as np
import pytest

from repro.core import configs
from repro.core.blocks import best_itemset, block_structure, generate_blocks
from repro.core.itemsets import popcount


def example3_utilities():
    """Example 3: U(i1)=U(i2)=U(i3)=U(i1,i2)=-1; U(i1,i3)=U(i2,i3)=1;
    U(i1,i2,i3)=4. Masks: i1=bit0, i2=bit1, i3=bit2."""
    u = np.zeros(8)
    u[0b001] = u[0b010] = u[0b100] = u[0b011] = -1.0
    u[0b101] = u[0b110] = 1.0
    u[0b111] = 4.0
    return u


def test_example2_precedence_is_integer_order():
    """Example 2's enumeration {i1},{i2},{i1,i2},{i3},{i1,i3},{i2,i3},
    {i1,i2,i3} is exactly increasing mask order under our bit mapping."""
    expected = [0b001, 0b010, 0b011, 0b100, 0b101, 0b110, 0b111]
    assert expected == sorted(expected)  # the order IS integer order
    # and generate_blocks scans in that order by construction
    u = example3_utilities()
    assert generate_blocks(u, 0b111)[0] == 0b101  # {i1,i3} precedes {i2,i3}


def test_example3_blocks():
    bs = block_structure(example3_utilities(), np.array([3, 2, 1]), istar=0b111)
    assert bs.blocks == [0b101, 0b010]   # B1={i1,i3}, B2={i2}
    assert bs.deltas == [1.0, 3.0]


def test_example4_budgets():
    """b1 > b2 > b3 = (3,2,1): proposed budgets (b3, b2) = (1, 2);
    effective budgets (1, 1)."""
    bs = block_structure(example3_utilities(), np.array([3, 2, 1]), istar=0b111)
    assert bs.proposed == [1, 2]
    assert bs.effective == [1, 1]


def test_example5_anchors():
    """B2 is over budgeted with anchor block B1 and anchor item i3; B1 is
    properly budgeted and self-anchored with anchor item i3."""
    bs = block_structure(example3_utilities(), np.array([3, 2, 1]), istar=0b111)
    assert bs.anchor_block == [0, 0]
    assert bs.anchor_item == [2, 2]   # i3 = bit 2 in both cases


def _random_supermodular_world(seed, n=4):
    rng = np.random.default_rng(seed)
    quad = popcount(np.arange(1 << n)).astype(float) ** 2 * rng.uniform(0.2, 1.0)
    lin = rng.normal(0, 3, n)
    mod = np.array(
        [sum(lin[j] for j in range(n) if m >> j & 1) for m in range(1 << n)]
    )
    u = quad + mod
    u[0] = 0.0
    return u


@pytest.mark.parametrize("seed", range(10))
def test_property1_blocks_partition_istar(seed):
    u = _random_supermodular_world(seed)
    istar = best_itemset(u)
    blocks = generate_blocks(u, istar)
    union = 0
    for b in blocks:
        assert union & b == 0       # disjoint
        union |= b
    assert union == istar           # cover I*


@pytest.mark.parametrize("seed", range(10))
def test_property2_deltas_nonneg_and_sum_to_istar(seed):
    u = _random_supermodular_world(seed)
    budgets = np.arange(4, 0, -1)
    bs = block_structure(u, budgets)
    assert all(d >= -1e-9 for d in bs.deltas)
    assert sum(bs.deltas) == pytest.approx(u[bs.istar])


@pytest.mark.parametrize("seed", range(10))
def test_lemma5a_partial_blocks_negative_marginal(seed):
    """Lemma 5(a): a partial block has strictly negative marginal utility
    given the preceding partial intersections."""
    rng = np.random.default_rng(1000 + seed)
    u = _random_supermodular_world(seed)
    bs = block_structure(u, np.arange(4, 0, -1))
    a = int(rng.integers(0, bs.istar + 1)) & bs.istar
    prefix = 0
    for b in bs.blocks:
        ai = a & b
        if ai != 0 and ai != b:  # partial
            delta_a = u[prefix | ai] - u[prefix]
            assert delta_a < 1e-9
        prefix |= a & b


@pytest.mark.parametrize("seed", range(10))
def test_lemma5b_partial_marginal_at_most_delta(seed):
    """Lemma 5(b): Δ_i^A ≤ Δ_i for any A ⊆ I*."""
    rng = np.random.default_rng(2000 + seed)
    u = _random_supermodular_world(seed)
    bs = block_structure(u, np.arange(4, 0, -1))
    a = int(rng.integers(0, bs.istar + 1)) & bs.istar
    prefix_a = 0
    for i, b in enumerate(bs.blocks):
        ai = a & b
        delta_a = u[prefix_a | ai] - u[prefix_a]
        assert delta_a <= bs.deltas[i] + 1e-9
        prefix_a |= ai


def test_istar_negative_items_removed():
    """Items outside I* can never be adopted (§5.2 intro): with all
    utilities negative, I* is empty and no blocks are generated."""
    u = np.array([0.0, -1.0, -2.0, -0.5])
    assert best_itemset(u) == 0
    assert generate_blocks(u, 0) == []


def test_istar_is_global_max_with_largest_cardinality():
    u = example3_utilities()
    assert best_itemset(u) == 0b111
    # ties resolve to larger cardinality
    u2 = np.array([0.0, 1.0, 1.0, 1.0])
    assert best_itemset(u2) == 0b11


@pytest.mark.parametrize("cfg", [7, 8, 9, 10])
def test_blocks_on_multi_item_configs(cfg):
    """Block generation runs on every multi-item configuration's zero-
    noise world and the deltas always sum to U(I*)."""
    m = configs.multi_item_model(cfg, 6)
    u = m.utilities_in_world(np.zeros(6))
    bs = block_structure(u, np.arange(6, 0, -1))
    assert sum(bs.deltas) == pytest.approx(u[bs.istar])
    assert all(bs.effective[i] <= bs.proposed[i] for i in range(len(bs.blocks)))
