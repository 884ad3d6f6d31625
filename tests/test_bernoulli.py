import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from rbpa import bernoulli, counts
from rbpa.combinat import binomial, factorial, stirling2
from rbpa.counts import p_egf
from rbpa.egf import exp_series, one
from rbpa.bernoulli import (
    MuTable,
    as_multi_index,
    corollary_convolution,
    corollary_convolution_check,
    mu_table,
    multi_poly_bernoulli,
    multi_poly_bernoulli_li_oracle,
    multi_poly_bernoulli_li_sequence,
    poly_bernoulli,
    poly_bernoulli_double_sum,
    reciprocal_coefficient,
    u_from_mu,
    u_number,
    u_stirling_sum,
    u_via_shift,
    w_family,
)

small_index = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)


def test_as_multi_index_validates():
    assert as_multi_index([2, 0]) == (2, 0)
    with pytest.raises(ValueError):
        as_multi_index([])
    with pytest.raises(ValueError):
        as_multi_index([1, -1])
    with pytest.raises(TypeError):
        as_multi_index([2.7])


def test_multi_poly_bernoulli_refuses_a_float_entry():
    # int() would truncate the entry to 2 and give this value, 46
    assert multi_poly_bernoulli((2,), 3) == 46
    with pytest.raises(TypeError):
        multi_poly_bernoulli((2.7,), 3)


def test_u_number_refuses_a_float_entry():
    # int() would truncate the entry to 1
    with pytest.raises(TypeError):
        u_number((1.9,), 3)


def test_u_stirling_sum_refuses_a_string_entry():
    # int() would parse the string and give 151/216
    with pytest.raises(TypeError):
        u_stirling_sum(("3",), 2)


def test_poly_bernoulli_refuses_an_integral_float_with_a_warm_cache():
    assert poly_bernoulli(-2, 3) == 46
    with pytest.raises(TypeError):
        poly_bernoulli(-2.0, 3)
    with pytest.raises(TypeError):
        poly_bernoulli(-2, 3.0)


@pytest.mark.parametrize("call", [
    lambda: multi_poly_bernoulli((2,), 3.0),
    lambda: multi_poly_bernoulli_li_oracle((2.0,), 3),
    lambda: multi_poly_bernoulli_li_oracle((2,), 3.0),
    lambda: multi_poly_bernoulli_li_sequence((2,), 3.0),
    lambda: u_number((1,), 3.0),
    lambda: u_via_shift((1.0,), 3),
    lambda: u_via_shift((1,), 3.0),
    lambda: u_from_mu((1.0,), 3),
    lambda: u_from_mu((1,), 3.0),
    lambda: u_stirling_sum((-1,), 3.0),
    lambda: w_family(2.0, 3),
    lambda: w_family(2, 3.0),
    lambda: reciprocal_coefficient(2.0, 3),
])
def test_b_and_u_routes_refuse_non_integers(call):
    with pytest.raises(TypeError):
        call()


def test_mu_table_refuses_a_float_entry_with_a_cold_or_warm_cache():
    bernoulli.clear_caches()
    with pytest.raises(TypeError):
        mu_table((2.0,))
    assert mu_table((2,)).coefficients == (0, -1, 2)
    assert mu_table.cache_info().currsize == 1
    with pytest.raises(TypeError):
        mu_table((2.0,))


def test_poly_bernoulli_closed_forms():
    # upper index -1: B_n = 2^n except at n = 0
    assert [poly_bernoulli(-1, n) for n in range(6)] == [1, 2, 4, 8, 16, 32]
    # upper index -2 satisfies 2*3^n - 2^n
    assert [poly_bernoulli(-2, n) for n in range(9)] == [
        1, 4, 14, 46, 146, 454, 1394, 4246, 12866,
    ]
    assert poly_bernoulli(0, 3) == 1
    assert poly_bernoulli(3, 1) == Fraction(1, 8)


def test_poly_bernoulli_double_sum_matches_reduced_form():
    for k in range(-4, 9):
        for n in range(61):
            assert poly_bernoulli_double_sum(k, n) == poly_bernoulli(k, n)


def _poly_bernoulli_by_terms(k, n):
    # the Stirling-reduced sum with one Fraction per term
    total = 0
    for s in range(n + 1):
        numerator = (-1) ** (n + s) * factorial(s) * stirling2(n, s)
        if k > 0:
            total += Fraction(numerator, (s + 1) ** k)
        else:
            total += numerator * (s + 1) ** -k
    return Fraction(total)


def test_poly_bernoulli_matches_the_term_by_term_sum_in_lowest_terms():
    for k in range(-4, 9):
        for n in range(61):
            value = poly_bernoulli(k, n)
            assert value == _poly_bernoulli_by_terms(k, n)
            # lowest terms, so numerator and denominator compare exactly
            assert value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1
            if k <= 0:
                assert value.denominator == 1


def test_mu_tables():
    assert mu_table((1,)).coefficients == (0, 1)
    assert mu_table((2,)).coefficients == (0, -1, 2)
    assert mu_table((2, 0)).coefficients == (0, -1, 2)
    assert mu_table((1, 1)).coefficients == (0, -1, 3)
    assert mu_table((2, 1)).coefficients == (0, 1, -7, 8)
    assert mu_table((1, 2)).coefficients == (0, 1, -9, 12)
    assert mu_table((0, 1)).coefficients == (0, 2)


def test_mu_table_head_and_weight():
    table = mu_table((2, 1))
    assert isinstance(table, MuTable)
    assert table.weight == 3
    assert table.coefficients[0] == 0
    # mu_0 is 1 exactly for the all-zero index
    assert mu_table((0, 0)).coefficients == (1,)


def test_appending_zero_keeps_the_table():
    for idx in [(1,), (2,), (1, 1), (2, 1)]:
        assert mu_table(idx + (0,)).coefficients == mu_table(idx).coefficients


def test_multi_poly_bernoulli_values():
    assert multi_poly_bernoulli((1, 1), 1) == 9
    assert multi_poly_bernoulli((2, 1), 1) == 15
    assert [multi_poly_bernoulli((1, 2), n) for n in range(3)] == [4, 27, 165]
    assert multi_poly_bernoulli((2, 0, 0), 1) == 6
    # all-zero index: plain power sequence b^n
    assert multi_poly_bernoulli((0, 0), 3) == 8
    # single-entry index agrees with the one-index form
    for j in range(4):
        for n in range(6):
            assert multi_poly_bernoulli((j,), n) == poly_bernoulli(-j, n)


def test_two_pads_closed_form():
    for b in range(4):
        idx = (2,) + (0,) * b
        for n in range(10):
            assert multi_poly_bernoulli(idx, n) == w_family(3 + b, n)


def test_li_oracle_values():
    assert multi_poly_bernoulli_li_oracle((2,), 2) == 14
    assert multi_poly_bernoulli_li_oracle((1, 1), 1) == 9
    assert multi_poly_bernoulli_li_oracle((0,), 4) == 1


@settings(deadline=None)
@given(small_index, st.integers(0, 7))
def test_li_oracle_agrees_with_mu_route(idx, n):
    assert multi_poly_bernoulli_li_oracle(idx, n) == multi_poly_bernoulli(idx, n)


@settings(deadline=None)
@given(small_index, st.integers(0, 9))
def test_li_sequence_agrees_with_li_oracle(idx, n_max):
    seq = multi_poly_bernoulli_li_sequence(idx, n_max)
    assert len(seq) == n_max + 1
    for n in range(n_max + 1):
        assert seq[n] == multi_poly_bernoulli_li_oracle(idx, n)


def test_w_family():
    assert [w_family(3, n) for n in range(4)] == [1, 4, 14, 46]
    assert [w_family(1, n) for n in range(4)] == [1, 2, 2, 2]
    with pytest.raises(ValueError):
        w_family(0, 2)


def test_u_values():
    assert u_number((2,), 0) == 1
    assert u_number((2,), 1) == 3
    assert u_number((0,), 2) == 0
    assert u_number((1, 2), 2) == 115
    assert u_via_shift((2,), 2) == 7
    assert u_via_shift((0, 0), 1) == 1


def test_u_routes_agree():
    for idx in [(1,), (2,), (0,), (1, 1), (2, 0), (1, 2), (0, 0), (2, 1, 1)]:
        for n in range(8):
            expect = u_via_shift(idx, n)
            assert u_number(idx, n) == expect
            assert u_from_mu(idx, n) == expect


def _u_from_mu_reference(idx, n):
    # sum_s mu_s (s+b-1)^n written out, with (b-1)^n at the all-zero index
    b = len(idx)
    if not any(idx):
        return (b - 1) ** n
    table = mu_table(idx)
    return sum(
        table.coefficients[s] * (s + b - 1) ** n
        for s in range(1, table.weight + 1)
    )


def test_u_from_mu_is_the_mu_power_sum_at_base_b_minus_one():
    indices = [
        idx for b in (1, 2, 3) for idx in product(range(4), repeat=b)
    ]
    assert (0,) in indices and (0, 0, 0) in indices
    for idx in indices:
        for n in range(21):
            assert u_from_mu(idx, n) == _u_from_mu_reference(idx, n), (idx, n)


def test_u_stirling_sum_handles_positive_indices():
    assert u_stirling_sum((1,), 0) == 1
    assert u_stirling_sum((1,), 1) == Fraction(-1, 2)
    assert u_stirling_sum((-1, -2), 2) == 115


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2])
def test_integer_sums_still_return_fractions(k):
    # both sums run in ints unless a positive index makes a term
    # rational; the return type must not depend on the index sign
    for n in range(4):
        assert type(poly_bernoulli(k, n)) is Fraction
        assert type(u_stirling_sum((k,), n)) is Fraction
        assert type(u_stirling_sum((-2, k), n)) is Fraction
        assert type(u_stirling_sum((k, -2), n)) is Fraction


def test_u_constant_term_is_the_chain_weight():
    # at n = 0 the value is prod_i i^{j_i}, the weight of the one chain
    # (1, 2, ..., b); it is 1 only when every entry past the first is 0
    assert u_number((1, 1), 0) == 2
    assert u_number((2,), 0) == 1
    assert u_number((1, 2), 0) == 4
    assert u_via_shift((1, 1), 0) == multi_poly_bernoulli((1, 1), 0)


def test_reciprocal_coefficient_alternates_w_values():
    for n in range(6):
        assert reciprocal_coefficient(3, n) == (-1) ** n * w_family(3, n)


def test_sliced_rows_match_fresh_builds_in_any_order():
    # after a cold start, shuffled sweeps read every value from a row
    # built for a longer request; each must equal a build at exactly n
    bernoulli.clear_caches()
    rng = random.Random(11)
    sweep = list(range(20))
    for r in (0, 3, 5):
        rng.shuffle(sweep)
        for n in sweep:
            series = exp_series(r, n) * (
                2 * one(n) - exp_series(1, n)
            ).reciprocal()
            assert reciprocal_coefficient(r, n) == series.reciprocal().coeff_int(n)
    for indices in [(-2,), (1,), (-1, -2), (2, -1), (-3, 0, 1)]:
        rng.shuffle(sweep)
        b = len(indices)
        for n in sweep:
            # entry t of a fresh build carries the scale lcm(1..t)^exponent
            chain = bernoulli._chain_power_rows(indices, n + b)
            exponent = sum(k for k in indices if k > 0)
            fresh = (-1) ** (n + 1) * sum(
                Fraction(chain[t], math.lcm(*range(1, t + 1)) ** exponent)
                * (-1) ** (t - b + 1)
                * factorial(t - b)
                * stirling2(n + 1, t - b + 1)
                for t in range(b, n + b + 1)
            )
            assert u_stirling_sum(indices, n) == fresh


def test_each_row_table_keeps_one_row_per_key():
    # shuffled sweeps over several keys: each table keeps only the
    # longest row per key, and every value read from it equals a build
    # at exactly n
    counts.clear_caches()
    bernoulli.clear_caches()
    rng = random.Random(5)
    sweep = list(range(24))
    p_keys = [(0, 1), (2, 3), (1, 0), (3, 2)]
    for r, j in p_keys:
        rng.shuffle(sweep)
        for n in sweep:
            assert p_egf(r, j, n).values == counts._p_row(r, j, n)
    reciprocal_keys = [0, 2, 4]
    for r in reciprocal_keys:
        rng.shuffle(sweep)
        for n in sweep:
            assert reciprocal_coefficient(r, n) == bernoulli._reciprocal_row(r, n)[n]
    chain_keys = [(-2,), (1,), (2, -1), (-1, 0, 1)]
    for indices in chain_keys:
        rng.shuffle(sweep)
        for n in sweep:
            assert u_stirling_sum(indices, n) == fraction_chain_u(indices, n)
    assert counts._p_row.cache_info().currsize == len(p_keys)
    assert bernoulli._reciprocal_row.cache_info().currsize == len(reciprocal_keys)
    assert bernoulli._chain_power_rows.cache_info().currsize == len(chain_keys)


def fraction_chain_u(indices, n):
    # the chain rows as Fractions, summed term by term: the reference
    # for the scaled integer rows
    b = len(indices)
    chain = [Fraction(0)] * (n + b + 1)
    for t in range(1, n + b + 1):
        chain[t] = Fraction(t) ** -indices[0]
    for k in indices[1:]:
        running, nxt = Fraction(0), [Fraction(0)] * (n + b + 1)
        for t in range(1, n + b + 1):
            running += chain[t - 1]
            nxt[t] = Fraction(t) ** -k * running
        chain = nxt
    return (-1) ** (n + 1) * sum(
        chain[t] * (-1) ** (t - b + 1) * factorial(t - b) * stirling2(n + 1, t - b + 1)
        for t in range(b, n + b + 1)
    )


def test_scaled_chain_rows_match_the_fraction_chain():
    # a cold start, then shuffled sweeps: most values are read from a
    # row built for a longer request
    bernoulli.clear_caches()
    rng = random.Random(23)
    sweep = list(range(26))
    for indices in [(1,), (5,), (3, 3, 3), (2, -1), (1, -2), (-3, 0, 1)]:
        rng.shuffle(sweep)
        for n in sweep:
            assert u_stirling_sum(indices, n) == fraction_chain_u(indices, n)


def test_u_number_refuses_a_non_integral_value(monkeypatch):
    monkeypatch.setattr(bernoulli, "u_stirling_sum", lambda idx, n: Fraction(7, 8))
    with pytest.raises(ArithmeticError):
        u_number((1,), 2)


def test_corollary_convolution_matches_a_fraction_accumulation():
    for j in range(4):
        for b in range(1, 4):
            for n in range(9):
                rhs = Fraction(0)
                for s in range(n + 1):
                    if b == 1:
                        zeros = 1 if s == 0 else 0
                    else:
                        zeros = multi_poly_bernoulli((0,) * (b - 1), s)
                    rhs += binomial(n, s) * zeros * poly_bernoulli(-j, n - s)
                got = corollary_convolution(j, b, n)
                assert got == (multi_poly_bernoulli((j,) + (0,) * (b - 1), n), rhs)
                assert (type(got[0]), type(got[1])) == (int, Fraction)


def test_corollary_convolution_check():
    assert corollary_convolution_check(2, 2, 1)
    assert corollary_convolution_check(0, 3, 2)
    for j in range(4):
        for b in range(1, 4):
            for n in range(6):
                assert corollary_convolution_check(j, b, n)


@settings(deadline=None)
@given(small_index, st.integers(0, 8))
def test_shift_route_equals_mu_route_for_u(idx, n):
    assert u_via_shift(idx, n) == u_from_mu(idx, n)


@settings(deadline=None)
@given(small_index, st.integers(0, 40))
def test_shift_route_is_the_literal_binomial_shift_of_b(idx, n):
    assert u_via_shift(idx, n) == sum(
        binomial(n, s) * (-1) ** (n - s) * multi_poly_bernoulli(idx, s)
        for s in range(n + 1)
    )


def _u_stirling_reference(indices, n):
    # every chain 0 < s_1 < ... < s_b = t written out, one term at a time
    b = len(indices)
    total = Fraction(0)
    for t in range(b, n + b + 1):
        chain = Fraction(0)
        for head in combinations(range(1, t), b - 1):
            term = Fraction(1)
            for s_i, k_i in zip(head + (t,), indices):
                term *= Fraction(s_i) ** -k_i
            chain += term
        total += (
            chain
            * (-1) ** (t - b + 1)
            * factorial(t - b)
            * stirling2(n + 1, t - b + 1)
        )
    return (-1) ** (n + 1) * total


@settings(deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple),
    st.integers(0, 12),
)
def test_u_stirling_sum_matches_the_literal_chain_sum(indices, n):
    assert u_stirling_sum(indices, n) == _u_stirling_reference(indices, n)


@pytest.mark.parametrize("route, args, message", [
    (multi_poly_bernoulli, ((1,), -1), "n must be >= 0"),
    (poly_bernoulli, (1, -1), "n must be >= 0"),
    (poly_bernoulli_double_sum, (1, -1), "n must be >= 0"),
    (multi_poly_bernoulli_li_oracle, ((1,), -1), "n must be >= 0"),
    (multi_poly_bernoulli_li_sequence, ((1,), -1), "n_max must be >= 0"),
    (w_family, (2, -1), "n must be >= 0"),
    (u_via_shift, ((1,), -1), "n must be >= 0"),
    (u_from_mu, ((1,), -1), "n must be >= 0"),
    (reciprocal_coefficient, (1, -1), "r and n must be >= 0"),
    (u_stirling_sum, ((), 2), "need at least one index entry"),
    (u_stirling_sum, ((1,), -1), "n must be >= 0"),
    (corollary_convolution, (1, 0, 2), "b must be >= 1"),
    (corollary_convolution, (-1, 1, 2), "j and n must be >= 0"),
    (corollary_convolution, (1, 1, -1), "j and n must be >= 0"),
])
def test_b_and_u_routes_refuse_bad_arguments(route, args, message):
    with pytest.raises(ValueError) as exc:
        route(*args)
    assert str(exc.value) == message
