"""Unit tests for bitmask itemset algebra."""
import numpy as np
import pytest

from repro.core.itemsets import (
    additive_over_masks,
    bits,
    is_monotone,
    is_supermodular,
    mask_item_matrix,
    popcount,
    submasks,
)


@pytest.mark.parametrize(
    "mask,expected",
    [(0, 0), (1, 1), (3, 2), (7, 3), (0b1010, 2), (0b11111, 5), (1023, 10)],
)
def test_popcount_scalar(mask, expected):
    assert popcount(mask) == expected


def test_popcount_vector():
    got = popcount(np.array([0, 1, 3, 7, 15, 1023]))
    assert list(got) == [0, 1, 2, 3, 4, 10]


@pytest.mark.parametrize(
    "mask,expected",
    [(0, []), (1, [0]), (0b101, [0, 2]), (0b110, [1, 2]), (0b11111, [0, 1, 2, 3, 4])],
)
def test_bits(mask, expected):
    assert bits(mask) == expected


@pytest.mark.parametrize("mask", [0, 1, 0b101, 0b111, 0b1011])
def test_submasks_complete(mask):
    subs = submasks(mask)
    assert len(subs) == 2 ** popcount(mask)
    assert set(subs) == {s for s in range(mask + 1) if (s & mask) == s}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_mask_item_matrix_additive(n):
    m = mask_item_matrix(n)
    prices = np.arange(1.0, n + 1)
    per_mask = m @ prices
    # additive price of mask = sum of member prices
    for mask in range(1 << n):
        assert per_mask[mask] == pytest.approx(sum(prices[j] for j in bits(mask)))


def test_additive_over_masks_fixed_order():
    """Five items add as ((x0 + x2) + (x1 + x3)) + x4, absent items as 0."""
    v = np.random.default_rng(3).normal(0, 100, 5)
    got = additive_over_masks(v)
    for mask in range(32):
        x = [float(v[j]) if mask >> j & 1 else 0.0 for j in range(5)]
        assert got[mask].hex() == (((x[0] + x[2]) + (x[1] + x[3])) + x[4]).hex(), mask


@pytest.mark.parametrize("n", [3, 5, 10])
def test_additive_over_masks_batched_rows_are_the_rows_alone(n):
    """A (W, n) batch adds each row in the one-row order, bit for bit."""
    v = np.random.default_rng(n).normal(0, 100, (6, n))
    got = additive_over_masks(v)
    assert got.shape == (6, 1 << n)
    for w in range(6):
        assert got[w].tobytes() == additive_over_masks(v[w]).tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_additive_over_masks_is_the_matvec(n):
    v = np.random.default_rng(n).normal(0, 1, n)
    np.testing.assert_allclose(additive_over_masks(v), mask_item_matrix(n) @ v, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_modular_is_both_sub_and_supermodular(n):
    vals = mask_item_matrix(n) @ np.arange(1.0, n + 1)
    assert is_supermodular(vals, n)
    assert is_monotone(vals, n)


def test_supermodular_detects_violation():
    # f(S) = sqrt(|S|) is submodular, not supermodular
    n = 3
    vals = np.sqrt(popcount(np.arange(1 << n)).astype(float))
    assert not is_supermodular(vals, n)
    assert is_monotone(vals, n)


def test_supermodular_square_of_size():
    # f(S) = |S|^2 is supermodular and monotone
    n = 4
    vals = popcount(np.arange(1 << n)).astype(float) ** 2
    assert is_supermodular(vals, n)
    assert is_monotone(vals, n)


def test_monotone_detects_violation():
    vals = np.array([0.0, 1.0, 2.0, 1.5])  # f({1,2}) < f({2})
    assert not is_monotone(vals, 2)
