import random
import sys
import threading
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings, strategies as st

from rbpa import counts
from rbpa.combinat import binomial, unit_reciprocal
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
    p_reciprocal_row,
    p_series_certified,
)
from rbpa.egf import Egf, exp_series, one


def _two_minus_exp(order):
    return 2 * one(order) - exp_series(1, order)


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
    assert last_digit_cycle_check(row[1:])
    broken = list(row[1:])
    broken[6] += 1
    assert not last_digit_cycle_check(broken)
    with pytest.raises(ValueError):
        last_digit_cycle_check(row[1:9])


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
    counts.clear_caches()
    for r, j, n in requests:
        fresh = exp_series(r, n) * (_two_minus_exp(n) ** j).reciprocal()
        expected = tuple(fresh.coeff_int(m) for m in range(n + 1))
        assert p_egf(r, j, n).values == expected


def test_row_cache_builds_each_row_once_per_doubling():
    # a shuffled sweep n = 0..59 over one (r, j) used to build 60 rows;
    # this order opens at n = 12, then n = 45 builds at 45 and a later
    # n > 45 at 2 * 45
    counts.clear_caches()
    sweep = list(range(60))
    random.Random(7).shuffle(sweep)
    values = {n: p_binomial_shift(0, 2, n) for n in sweep}
    assert counts._p_row.cache_info().misses == 3
    assert counts._p_row.cache_info().currsize == 1
    assert len(counts._p_rows.get((0, 2))) == 91
    assert values == {n: p_recurrence(0, 2, n) for n in range(60)}


def test_series_with_one_free_section_builds_no_row():
    # its terms p^{r+s}_0(n) = (r+s)^n need no r = 0 row
    counts.clear_caches()
    assert p_series_certified(2, 1, 10)[0] == p_recurrence(2, 1, 10)
    assert counts._p_row.cache_info().misses == 0


@settings(deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 60))
@example(0, 0, 30)
@example(0, 5, 0)
@example(7, 0, 20)
def test_binomial_power_row_equals_the_series_power(r, j, order):
    series = exp_series(-r, order) * _two_minus_exp(order) ** j
    assert p_reciprocal_row(r, j, order) == series.coeffs


def test_unit_reciprocal_of_the_p_row_is_the_closed_form():
    counts.clear_caches()
    for r in range(9):
        for j in range(9):
            for order in (0, 1, 5, 40):
                row = p_egf(r, j, order).values
                assert unit_reciprocal(row) == p_reciprocal_row(r, j, order)


def test_p_rows_raise_no_series_to_a_power(monkeypatch):
    def refuse(*args):
        raise AssertionError("a p row raised a series to a power")

    monkeypatch.setattr(Egf, "__pow__", refuse)
    counts.clear_caches()
    for r in range(5):
        for j in range(5):
            expected = tuple(p_recurrence(r, j, n) for n in range(61))
            assert p_egf(r, j, 60).values == expected


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
    # the certificate search as first written: every power from scratch,
    # except where c >= 2^(bit_length(c) - 1) already gives c^e > 2^t
    e = 2 * (n + j + 1)
    for t in range(7, 64 * (n + j + r + 4) + 1):
        c = r + j + t
        if e * (c.bit_length() - 1) > t:
            continue
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
    # every r, j and n that `verify --set` allows, and larger n, where the
    # search starts near S and skips most of the loop
    cases = [(r, j, n) for r in range(9) for j in range(9) for n in range(61)]
    cases += [
        (r, j, n) for r in range(9) for j in range(9) for n in (80, 100, 150, 200)
    ]
    for r, j, n in cases:
        assert counts._certify_truncation(r, j, n) == (
            _certify_truncation_reference(r, j, n)
        )


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=21),
    st.integers(0, 60),
    st.integers(0, 900),
)
@example(coeffs=[0], base=0, t=0)
@example(coeffs=[-3, 0, 5], base=0, t=0)
@example(coeffs=[1], base=0, t=1)
def test_polynomial_round_equals_the_literal_certified_round(coeffs, base, t):
    cert = TailCertificate(truncation_index=t, tail_bound=Fraction(0))

    def term(s):
        return sum(c * (base + s) ** k for k, c in enumerate(coeffs))

    assert counts._polynomial_round(tuple(coeffs), base, cert) == (
        counts.certified_round(term, cert)
    )


@pytest.mark.parametrize("r, j, n", [(0, 1, 0), (2, 1, 4), (1, 3, 6), (4, 2, 9)])
def test_double_sum_vanishing_check_catches_a_wrong_high_base(
    monkeypatch, r, j, n
):
    # the total reads only bases r..r+n, so a value off at base r+n+1
    # changes no returned digit and only the vanishing check can see it
    original = counts._shifted_value

    def off_by_one(base, j_, n_):
        return original(base, j_, n_) + (base == r + n + 1)

    monkeypatch.setattr(counts, "_shifted_value", off_by_one)
    with pytest.raises(ArithmeticError, match=f"k={n + 1} should vanish"):
        p_double_sum(r, j, n)


@pytest.mark.parametrize("r, j, n", [
    (r, j, n) for r in (0, 1, 4) for j in (1, 2, 4) for n in (0, 1, 2, 7, 15)
])
def test_difference_table_gives_the_literal_inner_sums(r, j, n):
    # every inner sum the double sum reads, the vanishing ones included
    shifted = [counts._shifted_value(r + t, j - 1, n) for t in range(n + 4)]
    inner = counts._forward_differences(shifted)
    assert len(inner) == n + 4
    for k in range(n + 4):
        assert inner[k] == sum(
            binomial(k, s) * (-1) ** s * shifted[k - s] for s in range(k + 1)
        )


def test_recurrence_in_j_needs_no_deep_recursion():
    # the memoized recursion nested one call per level of j, so j = 500
    # overflowed the interpreter's default recursion limit
    counts.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        value = p_recurrence(0, 600, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert value == p_egf(0, 600, 2)[2]
    assert counts._recurrence_rows.cache_info().currsize == 600
    assert all(len(counts._recurrence_rows.get((0, i))) == 3 for i in range(1, 601))
    # n = 0 is 1 at once, with no row built for any level
    counts.clear_caches()
    assert p_recurrence(0, 10**7, 0) == 1
    assert counts._recurrence_rows.cache_info().currsize == 0


def test_recurrence_cache_info_counts_row_hits_and_misses():
    counts.clear_caches()
    p_recurrence(2, 3, 10)  # grows rows (2, 1..3): one miss
    p_recurrence(2, 3, 4)  # read from row (2, 3)
    p_recurrence(2, 2, 10)  # read from row (2, 2), built on the way
    p_recurrence(2, 3, 0)  # n = 0 and j = 0 read no row
    p_recurrence(2, 0, 5)
    p_recurrence(2, 3, 11)  # one past the row: a second miss
    info = p_recurrence.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 3)


def test_recurrence_rows_grown_in_any_order_match_the_series():
    counts.clear_caches()
    requests = [(r, j, n) for r in range(4) for j in range(1, 4)
                for n in range(0, 25, 3)]
    random.Random(11).shuffle(requests)
    for r, j, n in requests:
        assert p_recurrence(r, j, n) == p_egf(r, j, n)[n], (r, j, n)
    assert counts._recurrence_rows.cache_info().currsize == 12
    for r in range(4):
        for j in range(1, 4):
            row = counts._recurrence_rows.get((r, j))
            assert type(row) is tuple
            assert row == p_egf(r, j, len(row) - 1).values


def test_cold_recurrence_rows_built_by_racing_threads_stay_correct():
    counts.clear_caches()
    r, j = 3, 4
    targets = (40, 70, 100, 130)  # each thread extends the rows further
    start = threading.Barrier(len(targets))
    got = {}

    def build(n):
        start.wait()
        got[n] = p_recurrence(r, j, n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the row loop
    try:
        threads = [threading.Thread(target=build, args=(n,)) for n in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expect = p_egf(r, j, max(targets)).values
    assert got == {n: expect[n] for n in targets}
    # the longest build wins whatever the order: no row is replaced by
    # a shorter one, and each is the exact prefix of the series
    assert counts._recurrence_rows.cache_info().currsize == j
    for i in range(1, j + 1):
        assert counts._recurrence_rows.get((r, i)) == p_egf(r, i, max(targets)).values


def test_tail_certificate_bounds_the_exact_tail():
    # what the certificate claims, checked on exact sums rather than on
    # the search loop: the next 64 terms after S add less than the bound,
    # and the whole series exceeds its partial sum below S by less
    for r in range(5):
        for j in range(1, 5):
            for n in range(16):
                cert = counts._certify_truncation(r, j, n)
                big_s = cert.truncation_index
                head = tail = 0  # scaled by 2^S and 2^(S+64)
                for s in range(big_s + 64):
                    v = counts._shifted_value(r + s, j - 1, n)
                    if s < big_s:
                        head += v << (big_s - 1 - s)
                    else:
                        tail += v << (big_s + 63 - s)
                partial_tail = Fraction(tail, 1 << (big_s + 64))
                rest = p_recurrence(r, j, n) - Fraction(head, 1 << big_s)
                assert partial_tail < cert.tail_bound
                assert partial_tail <= rest < cert.tail_bound


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
    p_inclusion_exclusion, p_reciprocal_row,
])
@pytest.mark.parametrize("bad", [(1.0, 1, 3), (1, 1.0, 3), (1, 1, 3.0),
                                 (1, 1, "3"), (Fraction(1), 1, 3)])
def test_every_p_route_refuses_non_integers(route, bad):
    with pytest.raises(TypeError):
        route(*bad)


@pytest.mark.parametrize("route, args, message", [
    (p_binomial_shift, (-1, 1, 3), "r, j, n must be >= 0"),
    (p_binomial_shift, (1, 1, -1), "r, j, n must be >= 0"),
    (p_recurrence, (1, -1, 3), "r, j, n must be >= 0"),
    (p_recurrence, (1, 1, -1), "r, j, n must be >= 0"),
    (p_double_sum, (-1, 1, 3), "r, n must be >= 0"),
    (p_double_sum, (1, 1, -1), "r, n must be >= 0"),
    (p_series_certified, (-1, 1, 3), "r, n must be >= 0"),
    (p_series_certified, (1, 1, -1), "r, n must be >= 0"),
    (p_reciprocal_row, (-1, 1, 3), "r, j, order must be >= 0"),
    (p_reciprocal_row, (1, -1, 3), "r, j, order must be >= 0"),
    (p_reciprocal_row, (1, 1, -1), "r, j, order must be >= 0"),
])
def test_p_routes_refuse_negative_arguments(route, args, message):
    with pytest.raises(ValueError) as exc:
        route(*args)
    assert str(exc.value) == message
