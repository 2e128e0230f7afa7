"""Cup product laws: bilinearity, graded commutativity, Leibniz, non-associativity."""

import numpy as np
import pytest

from decfem import abstr, coboundary_apply, cup_product, meshes
from decfem.whitney import Cochain

from conftest import FIXTURE_NAMES, two_tets


@pytest.fixture(scope="module")
def square():
    gc = meshes.split_square()
    return gc, abstr(gc)


def test_zero_cochain_cup_is_pointwise_product(square):
    gc, ac = square
    rng = np.random.default_rng(1)
    a = Cochain(ac, 0, rng.standard_normal(4))
    b = Cochain(ac, 0, rng.standard_normal(4))
    result = cup_product(gc, a, b)
    np.testing.assert_allclose(result.values, a.values * b.values, atol=1e-12)


def test_unit_edge_cochain_squares_to_zero(square):
    gc, ac = square
    values = np.zeros(5)
    values[2] = 1.0
    a = Cochain(ac, 1, values)
    np.testing.assert_array_equal(cup_product(gc, a, a).values, 0.0)


def test_one_one_anticommutes_exactly(square):
    gc, ac = square
    rng = np.random.default_rng(2)
    a = Cochain(ac, 1, rng.standard_normal(5))
    b = Cochain(ac, 1, rng.standard_normal(5))
    total = cup_product(gc, a, b).values + cup_product(gc, b, a).values
    np.testing.assert_array_equal(total, 0.0)


def test_mixed_degree_commutes_exactly(square):
    gc, ac = square
    rng = np.random.default_rng(3)
    a = Cochain(ac, 0, rng.standard_normal(4))
    b = Cochain(ac, 1, rng.standard_normal(5))
    np.testing.assert_array_equal(
        cup_product(gc, a, b).values, cup_product(gc, b, a).values
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["two_tets"])
def test_graded_commutativity_is_exact_on_every_mesh(fixture_set, name):
    gc = two_tets() if name == "two_tets" else fixture_set[name]
    ac = abstr(gc)
    n = ac.complex_dim
    rng = np.random.default_rng(7)
    for p in range(n + 1):
        for q in range(n + 1 - p):
            a = Cochain(ac, p, rng.standard_normal(ac.num_simplices(p)))
            b = Cochain(ac, q, rng.standard_normal(ac.num_simplices(q)))
            np.testing.assert_array_equal(
                cup_product(gc, a, b).values,
                (-1) ** (p * q) * cup_product(gc, b, a).values,
                err_msg=f"degrees ({p}, {q})",
            )


def test_bilinearity(square):
    gc, ac = square
    rng = np.random.default_rng(4)
    a1 = Cochain(ac, 0, rng.standard_normal(4))
    a2 = Cochain(ac, 0, rng.standard_normal(4))
    b = Cochain(ac, 1, rng.standard_normal(5))
    combo = Cochain(ac, 0, 2.0 * a1.values - 0.5 * a2.values)
    lhs = cup_product(gc, combo, b).values
    rhs = 2.0 * cup_product(gc, a1, b).values - 0.5 * cup_product(gc, a2, b).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("name", ["square", "disk", "annulus", "torus"])
def test_leibniz_rule(fixture_set, name):
    gc = fixture_set[name]
    ac = abstr(gc)
    rng = np.random.default_rng(5)
    a = Cochain(ac, 0, rng.standard_normal(ac.num_simplices(0)))
    b = Cochain(ac, 1, rng.standard_normal(ac.num_simplices(1)))
    lhs = coboundary_apply(cup_product(gc, a, b)).values
    rhs = (
        cup_product(gc, coboundary_apply(a), b).values
        + cup_product(gc, a, coboundary_apply(b)).values
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_leibniz_zero_zero(square):
    # d(a cup b) = da cup b + a cup db for two 0-cochains
    gc, ac = square
    rng = np.random.default_rng(6)
    a = Cochain(ac, 0, rng.standard_normal(4))
    b = Cochain(ac, 0, rng.standard_normal(4))
    lhs = coboundary_apply(cup_product(gc, a, b)).values
    rhs = (
        cup_product(gc, coboundary_apply(a), b).values
        + cup_product(gc, a, coboundary_apply(b)).values
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# Witness triple recorded from a verified run: associating the other way
# moves the product by ~0.81 on this mesh, far above interpolation noise.
WITNESS_A = np.array([0.3, -1.2, 0.7, 2.1])
WITNESS_B = np.array([1.5, 0.4, -0.8, 0.6])
WITNESS_C = np.array([1.0, -0.5, 2.0, 0.25, -1.25])


def test_non_associativity_witness(square):
    gc, ac = square
    a = Cochain(ac, 0, WITNESS_A)
    b = Cochain(ac, 0, WITNESS_B)
    c = Cochain(ac, 1, WITNESS_C)
    left = cup_product(gc, cup_product(gc, a, b), c).values
    right = cup_product(gc, a, cup_product(gc, b, c)).values
    assert np.abs(left - right).max() > 1e-6


def test_degree_overflow_rejected(square):
    gc, ac = square
    a = Cochain(ac, 1, np.zeros(5))
    b = Cochain(ac, 2, np.zeros(2))
    with pytest.raises(ValueError, match="exceeds"):
        cup_product(gc, a, b)


def test_factors_must_share_complex(square):
    gc, ac = square
    other = abstr(meshes.split_square())
    a = Cochain(ac, 0, np.zeros(4))
    b = Cochain(other, 0, np.zeros(4))
    with pytest.raises(ValueError, match="same complex"):
        cup_product(gc, a, b)
