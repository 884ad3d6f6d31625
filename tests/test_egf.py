from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rbpa.egf import (
    Egf,
    NotAnIntegerError,
    OrderMismatchError,
    ZeroConstantTermError,
    exp_series,
    one,
)

coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    min_size=1,
    max_size=7,
)


def series(coeffs):
    return Egf.from_coeffs(coeffs)


def test_constructor_checks_length_and_order():
    with pytest.raises(ValueError):
        Egf(2, (Fraction(1),))
    with pytest.raises(ValueError):
        Egf(-1, ())


def test_coeff_access_and_bounds():
    f = series([1, 2, 3])
    assert f.order == 2
    assert f.coeff(1) == 2
    with pytest.raises(IndexError):
        f.coeff(3)
    with pytest.raises(IndexError):
        f.coeff(-1)


def test_coeff_int_rejects_proper_fraction():
    f = series([1, Fraction(1, 2)])
    assert f.coeff_int(0) == 1
    with pytest.raises(NotAnIntegerError):
        f.coeff_int(1)


def test_exp_series_coefficients():
    assert exp_series(3, 4).coeffs == (1, 3, 9, 27, 81)
    assert exp_series(-1, 3).coeffs == (1, -1, 1, -1)
    assert exp_series(2, 2).coeffs == (1, 2, 4)


def test_mixed_orders_rejected():
    with pytest.raises(OrderMismatchError):
        one(2) + one(3)
    with pytest.raises(OrderMismatchError):
        one(2) * one(3)


def test_product_is_binomial_convolution():
    # (e^x)^2 must come out as e^{2x} coefficient-for-coefficient
    f = exp_series(1, 5)
    assert (f * f).coeffs == exp_series(2, 5).coeffs
    g = series([0, 1, 0, 0])  # x itself
    assert (g * g).coeffs == (0, 0, 2, 0)  # x^2 = 2 * x^2/2!


def test_scale_and_add():
    f = series([1, 1, 1])
    assert (f * 3).coeffs == (3, 3, 3)
    assert (f * Fraction(1, 2)).coeffs == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert (f + -f).coeffs == (0, 0, 0)
    assert (2 * f).coeffs == (f * 2).coeffs


def test_pow_matches_repeated_multiplication():
    f = series([1, 2, 0, -1, 5])
    by_mul = one(4)
    for _ in range(5):
        by_mul = by_mul * f
    assert (f ** 5).coeffs == by_mul.coeffs
    assert (f ** 0).coeffs == one(4).coeffs
    with pytest.raises(ValueError):
        f ** -1


def test_reciprocal_of_two_minus_exp_gives_fubini():
    f = 2 * one(7) - exp_series(1, 7)
    assert f.reciprocal().coeffs == (1, 1, 3, 13, 75, 541, 4683, 47293)


def test_reciprocal_needs_nonzero_constant_term():
    with pytest.raises(ZeroConstantTermError):
        series([0, 1, 2]).reciprocal()


@given(coeff_lists)
def test_reciprocal_roundtrip(coeffs):
    f = series(coeffs)
    if f.coeffs[0] == 0:
        with pytest.raises(ZeroConstantTermError):
            f.reciprocal()
        return
    assert (f * f.reciprocal()).coeffs == one(f.order).coeffs


@given(coeff_lists, coeff_lists)
def test_product_commutes(a, b):
    n = min(len(a), len(b))
    f, g = series(a[:n]), series(b[:n])
    assert (f * g).coeffs == (g * f).coeffs


def pow_by_mul(f, k):
    by_mul = one(f.order)
    for _ in range(k):
        by_mul = by_mul * f
    return by_mul


small_orders = st.integers(0, 12).flatmap(
    lambda order: st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        min_size=order + 1,
        max_size=order + 1,
    )
)


@given(small_orders, st.integers(0, 9), st.booleans())
@example((2 * one(30) - exp_series(1, 30)).coeffs, 3, False)  # 2 - e^m
@example((2 * one(30) - exp_series(1, 30)).coeffs, 9, False)
def test_pow_equals_the_k_fold_product(coeffs, k, zero_head):
    if zero_head:
        coeffs = [0] + coeffs[1:]
    f = series(coeffs)
    assert (f ** k).coeffs == pow_by_mul(f, k).coeffs


@pytest.mark.parametrize("operation, message", [
    (lambda f: f + 1, "unsupported operand type(s) for +: 'Egf' and 'int'"),
    (lambda f: f - 1, "unsupported operand type(s) for -: 'Egf' and 'int'"),
    (lambda f: f * "x", "can't multiply sequence by non-int of type 'Egf'"),
    (lambda f: "x" * f, "can't multiply sequence by non-int of type 'Egf'"),
])
def test_arithmetic_with_a_non_series_is_a_type_error(operation, message):
    with pytest.raises(TypeError) as exc:
        operation(series([1, 2, 3]))
    assert str(exc.value) == message
