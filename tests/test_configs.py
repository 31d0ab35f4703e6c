"""Tests for the paper's utility configurations (§6, Tables 3-5)."""
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core import configs
from repro.core.itemsets import bits, is_monotone, is_supermodular, popcount


# ---- Example 1 / Table 1 ----------------------------------------------


@pytest.mark.parametrize(
    "mask,expected",
    [
        (0b001, -1.0),
        (0b010, -1.0),
        (0b100, -1.0),
        (0b011, 1.0),   # {i1,i2}
        (0b101, 1.0),   # {i1,i3}
        (0b110, -1.0),  # {i2,i3}
        (0b111, 3.0),   # {i1,i2,i3}
    ],
)
def test_example_model_matches_table1(mask, expected):
    assert configs.example_model().det_utility()[mask] == pytest.approx(expected)


def test_example_model_supermodular_and_noiseless():
    m = configs.example_model()
    assert m.supermodular
    assert np.all(m.noise_std == 0)


# ---- Configs 7-9 -------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 10])
def test_additive_model_unit_utilities(n):
    m = configs.additive_model(n)
    det = m.det_utility()
    assert np.allclose(det, popcount(np.arange(1 << n)))
    assert m.supermodular  # modular is (weakly) supermodular


@pytest.mark.parametrize("core", [0, 2, 4])
def test_cone_model_shape(core):
    """Exactly the supersets of the core have positive deterministic
    utility: 5 + 2(|S|-1); all other sets are negative (§6.3.1.1)."""
    n = 5
    m = configs.cone_model(n, core=core, name="cone")
    det = m.det_utility()
    for mask in range(1, 1 << n):
        if mask >> core & 1:
            assert det[mask] == pytest.approx(5.0 + 2.0 * (popcount(mask) - 1))
        else:
            assert det[mask] == pytest.approx(-float(popcount(mask)))
    assert m.supermodular


@pytest.mark.parametrize("cfg,core_bit", [(8, 0), (9, 9)])
def test_cone_configs_core_placement(cfg, core_bit):
    m = configs.multi_item_model(cfg, 10)
    det = m.det_utility()
    assert det[1 << core_bit] == pytest.approx(5.0)


# ---- Config 10 (Lemmas 12-13) -----------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_levelwise_supermodular(seed):
    """Lemma 12: the level-wise construction yields supermodular V."""
    m = configs.levelwise_model(7, seed=seed)
    assert is_supermodular(m.values, 7)


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_levelwise_monotone_and_well_defined(seed):
    """Lemma 13: V is well defined (single consistent value per mask) and
    monotone (marginals include a positive boost)."""
    m = configs.levelwise_model(6, seed=seed)
    assert is_monotone(m.values, 6)
    assert m.values[0] == 0.0
    assert np.all(np.isfinite(m.values))


def test_levelwise_deterministic_in_seed():
    a = configs.levelwise_model(6, seed=5).values
    b = configs.levelwise_model(6, seed=5).values
    assert np.array_equal(a, b)
    c = configs.levelwise_model(6, seed=6).values
    assert not np.array_equal(a, c)


# ---- Real configuration (Table 5) -------------------------------------


@pytest.mark.parametrize(
    "mask,price,value",
    [(m, p, v) for m, (p, v, _n) in configs.TABLE5_ANCHORS.items()],
)
def test_real_model_anchor_values_exact(mask, price, value):
    m = configs.real_model()
    assert m.values[mask] == pytest.approx(value)
    assert m.price_of_masks()[mask] == pytest.approx(price)


def test_real_model_positive_utility_shape():
    """§6.4.1: only itemsets with ps, c and ≥2 games have positive
    deterministic utility."""
    m = configs.real_model()
    det = m.det_utility()
    for mask in range(1, 32):
        has_ps, has_c = mask & 1, mask & 2
        n_games = popcount(mask >> 2)
        if has_ps and has_c and n_games >= 2:
            assert det[mask] > 0, bin(mask)
        else:
            assert det[mask] < 0, bin(mask)


def test_real_model_worthless_without_console():
    m = configs.real_model()
    for mask in range(1, 32):
        if not mask & 1:
            assert m.values[mask] == 0.0


def test_real_model_is_not_supermodular():
    """The published anchors are not completable to a supermodular V
    (DESIGN.md substitution #4) — the model must take the general path."""
    assert not configs.real_model().supermodular


def test_real_model_monotone():
    m = configs.real_model()
    assert is_monotone(m.values, m.n_items)


def test_real_noise_fit_reasonable():
    """The additive least-squares variance fit reproduces the anchor
    variances to within a few units (they are not exactly additive)."""
    m = configs.real_model()
    var = m.noise_std**2
    for mask, (_p, _v, target) in configs.TABLE5_ANCHORS.items():
        fitted = sum(var[j] for j in bits(mask))
        assert abs(fitted - target) < 3.5


def test_real_noise_fit_is_the_least_squares_fit():
    """The committed variances are the least-squares fit of the anchor
    variances: each is within 32 ulps of the largest component of the
    exact solution of the normal equations (solved in rationals). A
    floating-point solve's error scales with the solution's norm, so the
    small games variance is 75 of its own ulps off, 2.3 of ps's."""
    design = [[Fraction(m & 1), Fraction(m >> 1 & 1), Fraction(popcount(m >> 2))]
              for m in configs.TABLE5_ANCHORS]
    target = [Fraction(var) for _p, _v, var in configs.TABLE5_ANCHORS.values()]
    # augmented normal equations [AᵀA | Aᵀb], then Gauss-Jordan elimination
    rows = [[sum(r[i] * r[j] for r in design) for j in range(3)]
            + [sum(r[i] * t for r, t in zip(design, target))] for i in range(3)]
    for i in range(3):
        p = next(k for k in range(i, 3) if rows[k][i])
        rows[i], rows[p] = rows[p], rows[i]
        rows[i] = [x / rows[i][i] for x in rows[i]]
        for k in range(3):
            if k != i:
                rows[k] = [a - rows[k][i] * b for a, b in zip(rows[k], rows[i])]
    exact = [float(r[3]) for r in rows]
    ulp = math.ulp(max(map(abs, exact)))
    for got, want in zip(configs.TABLE5_VARIANCE_FIT, exact):
        assert abs(got - want) <= 32 * ulp, (got.hex(), want.hex())
