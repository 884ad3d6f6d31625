import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from rbpa import counts
from rbpa.combinat import binomial
from rbpa.counts import (
    CertificationFailureError,
    SequenceTable,
    TailCertificate,
    last_digit_cycle_check,
    p_binomial_shift,
    p_double_sum,
    p_egf,
    p_inclusion_exclusion,
    p_recurrence,
    p_series_certified,
    two_minus_exp,
)
from rbpa.egf import exp_series


def clear_row_cache():
    counts._p_row.cache_clear()
    counts._row_orders.clear()
    # the shift coefficients read rows through the row cache, so a stale
    # entry would hide a row request from the miss counts below
    counts._shift_coeffs.cache_clear()


def test_known_rows():
    assert p_egf(0, 1, 9).values == (
        1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261,
    )
    assert p_egf(2, 1, 4).values == (1, 3, 11, 51, 299)
    assert p_egf(1, 1, 3).values == (1, 2, 6, 26)
    assert p_egf(0, 2, 6).values == (1, 2, 8, 44, 308, 2612, 25988)
    assert p_egf(4, 2, 3).values == (1, 6, 40, 300)
    # no free sections: pure power sequences
    assert p_egf(3, 0, 3).values == (1, 3, 9, 27)
    assert p_egf(0, 0, 3).values == (1, 0, 0, 0)


def test_p_egf_validates():
    with pytest.raises(ValueError):
        p_egf(-1, 1, 3)
    with pytest.raises(ValueError):
        p_egf(1, -1, 3)
    with pytest.raises(ValueError):
        p_egf(1, 1, -1)


def test_sequence_table_guards():
    table = p_egf(2, 1, 4)
    assert table[2] == 11
    assert len(table) == 5
    with pytest.raises(ValueError):
        SequenceTable(0, 1, (2, 3))
    with pytest.raises(ValueError):
        SequenceTable(0, 1, (1, -3))


def test_routes_agree_on_a_grid():
    for r in range(4):
        for j in range(3):
            row = p_egf(r, j, 6).values
            for n in range(7):
                assert p_recurrence(r, j, n) == row[n]
                assert p_binomial_shift(r, j, n) == row[n]
                if j >= 1:
                    assert p_double_sum(r, j, n) == row[n]


def test_double_sum_needs_a_free_section():
    with pytest.raises(ValueError):
        p_double_sum(1, 0, 3)


def test_series_value_and_certificate():
    value, cert = p_series_certified(0, 1, 0)
    assert value == 1
    assert isinstance(cert, TailCertificate)
    assert cert.truncation_index >= 7
    assert cert.tail_bound < Fraction(1, 2)

    value, cert = p_series_certified(2, 1, 5)
    assert value == p_egf(2, 1, 5)[5]
    assert cert.tail_bound < Fraction(1, 2)


def test_certificate_rejects_weak_bound():
    with pytest.raises(ValueError):
        TailCertificate(10, Fraction(1, 2))


def test_series_certified_needs_a_free_section():
    with pytest.raises(ValueError):
        p_series_certified(1, 0, 3)


def test_inclusion_exclusion_single_marked_section_is_exact():
    for j in range(1, 4):
        for n in range(6):
            assert p_inclusion_exclusion(1, j, n) == p_egf(1, j - 1, n)[n]


def test_inclusion_exclusion_counts_the_union_not_the_intersection():
    # with two marked sections the alternating sum is the union count 8,
    # not the all-restricted count p^2_0(2) = 4
    assert p_inclusion_exclusion(2, 2, 2) == 8
    assert p_egf(2, 0, 2)[2] == 4


def test_inclusion_exclusion_validates():
    with pytest.raises(ValueError):
        p_inclusion_exclusion(0, 2, 3)
    with pytest.raises(ValueError):
        p_inclusion_exclusion(3, 2, 3)
    with pytest.raises(ValueError):
        p_inclusion_exclusion(1, 2, -1)


def test_last_digit_cycle_check():
    row = p_egf(0, 1, 13).values
    assert last_digit_cycle_check(row[1:], offset=1)
    broken = list(row[1:])
    broken[6] += 1
    assert not last_digit_cycle_check(broken, offset=1)
    with pytest.raises(ValueError):
        last_digit_cycle_check(row[1:9], offset=1)
    with pytest.raises(ValueError):
        last_digit_cycle_check(row[1:], offset=-1)


@settings(deadline=None)
@given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 10))
def test_recurrence_agrees_with_generating_function(r, j, n):
    assert p_recurrence(r, j, n) == p_egf(r, j, n)[n]


@settings(deadline=None)
@given(st.integers(0, 4), st.integers(1, 3), st.integers(0, 8))
def test_certified_series_agrees_with_generating_function(r, j, n):
    value, _ = p_series_certified(r, j, n)
    assert value == p_egf(r, j, n)[n]


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 12)),
        min_size=1,
        max_size=8,
    )
)
def test_row_cache_slices_match_fresh_builds(requests):
    # any request order: each answer, sliced from a longer row or not,
    # equals the order-n series built from scratch
    clear_row_cache()
    for r, j, n in requests:
        fresh = exp_series(r, n) * (two_minus_exp(n) ** j).reciprocal()
        expected = tuple(fresh.coeff_int(m) for m in range(n + 1))
        assert p_egf(r, j, n).values == expected


def test_row_cache_builds_each_row_once_per_doubling():
    # a shuffled sweep n = 0..59 over one (r, j) used to build 60 rows;
    # this order opens at n = 12, then n = 45 builds at 45 and a later
    # n > 45 at 2 * 45
    clear_row_cache()
    sweep = list(range(60))
    random.Random(7).shuffle(sweep)
    values = {n: p_binomial_shift(0, 2, n) for n in sweep}
    assert counts._p_row.cache_info().misses == 3
    assert counts._row_orders == {(0, 2): 90}
    assert values == {n: p_recurrence(0, 2, n) for n in range(60)}


def test_certified_round_equals_the_rational_partial_sum():
    for r in range(5):
        for j in range(1, 5):
            for n in range(13):
                cert = counts._certify_truncation(r, j, n)
                terms = [
                    counts._shifted_value(r + s, j - 1, n)
                    for s in range(cert.truncation_index)
                ]
                reference = floor(
                    sum(
                        (Fraction(v, 2 ** (s + 1)) for s, v in enumerate(terms)),
                        Fraction(0),
                    )
                    + Fraction(1, 2)
                )
                value, got_cert = p_series_certified(r, j, n)
                assert got_cert == cert
                assert value == reference


@settings(deadline=None)
@given(st.integers(0, 300), st.integers(0, 4), st.integers(0, 20))
def test_shifted_value_equals_the_literal_binomial_sum(base, j, n):
    literal = sum(
        binomial(n, s) * base ** s * p_recurrence(0, j, n - s)
        for s in range(n + 1)
    )
    assert counts._shifted_value(base, j, n) == literal


def _certify_truncation_reference(r, j, n):
    # the certificate search as first written: every power from scratch
    e = 2 * (n + j + 1)
    for t in range(7, 64 * (n + j + r + 4) + 1):
        c = r + j + t
        if (
            c ** e <= 2 ** t
            and (c + 1) ** e <= 2 ** (t + 1)
            and (c + 1) ** e <= 2 * c ** e
        ):
            if t % 2 == 0:
                bound = Fraction(4, 2 ** (t // 2))
            else:
                bound = Fraction(3, 2 ** ((t - 1) // 2))
            return TailCertificate(truncation_index=t, tail_bound=bound)
    raise AssertionError("reference search found no certificate")


def test_certify_truncation_matches_the_reference_search():
    for r in range(5):
        for j in range(5):
            for n in range(21):
                assert counts._certify_truncation(r, j, n) == (
                    _certify_truncation_reference(r, j, n)
                )


def test_p_recurrence_refuses_a_non_integer():
    # without the check the recursion runs on floats and gives 69.875
    with pytest.raises(TypeError):
        p_recurrence(2.5, 1, 3)


def test_p_recurrence_refuses_an_integral_float_with_a_warm_cache():
    # lru_cache keys 2.0 and 2 alike, so the int's entry must not answer
    assert p_recurrence(2, 1, 3) == 51
    with pytest.raises(TypeError):
        p_recurrence(2.0, 1, 3)
    assert p_recurrence(2, 1, 3) == 51


def test_p_egf_refuses_a_non_integer_with_a_type_error():
    # not NotAnIntegerError from deep inside the series arithmetic
    with pytest.raises(TypeError):
        p_egf(2.5, 1, 3)


@pytest.mark.parametrize("route", [
    p_egf, p_recurrence, p_binomial_shift, p_double_sum, p_series_certified,
    p_inclusion_exclusion,
])
@pytest.mark.parametrize("bad", [(1.0, 1, 3), (1, 1.0, 3), (1, 1, 3.0),
                                 (1, 1, "3"), (Fraction(1), 1, 3)])
def test_every_p_route_refuses_non_integers(route, bad):
    with pytest.raises(TypeError):
        route(*bad)
