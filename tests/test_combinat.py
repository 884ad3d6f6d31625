import math
import sys
import threading

import pytest
from hypothesis import example, given, strategies as st

from rbpa import combinat
from rbpa.combinat import (
    RowCache, binomial, binomial_convolution, factorial, int_pow, lcm_row,
    power_sums, stirling2, stirling2_row, unit_reciprocal,
)
from rbpa.egf import Egf


def test_binomial_small_values():
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(7, 7) == 1
    assert binomial(3, 5) == 0
    assert binomial(4, -1) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(0, 60), st.integers(-3, 63))
def test_binomial_pascal_rule(n, k):
    assert binomial(n + 1, k) == binomial(n, k) + binomial(n, k - 1)


def _convolution_loop(n, left, right, start):
    total = 0
    for s in range(start, n + 1):
        total += math.comb(n, s) * left[s] * right[n - s]
    return total


@pytest.mark.parametrize("start", [0, 1])
def test_binomial_convolution_matches_a_literal_loop(start):
    factors = [
        lambda s: 1,
        lambda s: (-1) ** s * (s + 2),
        lambda s: -(3 ** s) + s,
        lambda s: 1 if s == 0 else 0,
    ]
    rows = [[factor(s) for s in range(12)] for factor in factors]
    for n in range(12):
        for left in rows:
            for right in rows:
                assert binomial_convolution(n, left, right, start) == (
                    _convolution_loop(n, left, right, start)
                )


def test_binomial_convolution_edges():
    # n = 0 is the single term left[0] right[0]; from start 1 it is empty
    assert binomial_convolution(0, [-7], [5]) == -35
    assert binomial_convolution(0, [-7], [5], start=1) == 0
    # sum_s C(n,s) (-1)^s = 0 for n >= 1, and 2^n with both rows all 1
    assert binomial_convolution(6, [(-1) ** s for s in range(7)], [1] * 7) == 0
    assert binomial_convolution(6, [1] * 7, [1] * 7) == 64
    assert binomial_convolution(6, [1] * 7, [1] * 7, start=1) == 63


def test_binomial_convolution_refuses_a_short_row():
    # a row longer than the sum reads changes nothing
    left, right = [1, 2, 3, 4, 5], [5, 4, 3, 2, 1]
    assert binomial_convolution(3, left, right) == binomial_convolution(
        3, left[:4], right[:4]) == 1 * 2 + 3 * 2 * 3 + 3 * 3 * 4 + 4 * 5
    # from start 1, right[0..n-1] is all it reads
    assert binomial_convolution(3, left[:4], right[:3], start=1) == 74
    # a short row is an error, never a sum that starts at the wrong entry
    for n_left, n_right, start in ((3, 5, 0), (5, 3, 0), (5, 2, 1)):
        with pytest.raises(ValueError, match="binomial_convolution"):
            binomial_convolution(3, left[:n_left], right[:n_right], start)
    # past n the sum is empty, whatever the rows
    assert binomial_convolution(3, [], [], start=4) == 0


unit_rows = st.integers(0, 40).flatmap(
    lambda order: st.lists(
        st.integers(-10**6, 10**6), min_size=order, max_size=order
    ).map(lambda tail: (1, *tail))
)


@given(unit_rows)
@example((1,))
def test_unit_reciprocal_equals_the_series_reciprocal(row):
    inverse = unit_reciprocal(row)
    assert all(type(q) is int for q in inverse)
    assert inverse == Egf.from_coeffs(row).reciprocal().coeffs


@pytest.mark.parametrize("row", [(), (0, 1), (2, 1, 1), (-1,), [3]])
def test_unit_reciprocal_refuses_a_row_without_unit_head(row):
    with pytest.raises(ValueError, match="a_0 = 1"):
        unit_reciprocal(row)


def test_stirling2_rows():
    assert stirling2_row(0) == (1,)
    assert stirling2_row(1) == (0, 1)
    assert stirling2_row(4) == (0, 1, 7, 6, 1)
    assert stirling2_row(5) == (0, 1, 15, 25, 10, 1)


def test_stirling_rows_match_the_inclusion_exclusion_sum():
    # k! {n brace k} = sum_i (-1)^i C(k,i) (k-i)^n, from a cold table
    # swept upwards, so every row is built from the one below it
    combinat.clear_caches()
    for n in range(61):
        assert stirling2_row(n) == tuple(
            sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
            // math.factorial(k)
            for k in range(n + 1)
        )


def test_lcm_row_matches_math_lcm():
    combinat.clear_caches()
    for n in (0, 1, 7, 60, 13):  # cold, then grown, then read from a longer row
        row = lcm_row(n)
        assert len(row) > n
        assert all(row[t] == math.lcm(*range(1, t + 1)) for t in range(len(row)))
    with pytest.raises(ValueError):
        lcm_row(-1)


def test_clear_caches_empties_the_lcm_table():
    lcm_row(30)
    assert lcm_row.cache_info().currsize == 1
    combinat.clear_caches()
    assert lcm_row.cache_info() == (0, 0, 0)
    assert combinat._lcm_rows.get(None) == ()


def test_cold_stirling_row_needs_no_deep_recursion():
    combinat.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        n = 1500
        row = stirling2_row(n)
    finally:
        sys.setrecursionlimit(limit)
    assert len(row) == n + 1
    assert row[1] == 1
    assert row[2] == 2 ** (n - 1) - 1
    assert row[n - 1] == binomial(n, 2)
    assert stirling2_row.cache_info().misses == 1


def test_cold_stirling_rows_built_by_racing_threads_stay_in_place():
    combinat.clear_caches()
    n = 300
    start = threading.Barrier(4)
    rows = []

    def build():
        start.wait()
        rows.append(stirling2_row(n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the row loop
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert rows == [combinat._stirling_rows.get(n)] * 4
    # rows 1..n, each under its own key
    assert combinat._stirling_rows.cache_info().currsize == n
    for m in range(1, n + 1):
        row = combinat._stirling_rows.get(m)
        assert len(row) == m + 1
        assert row[m] == 1
        assert row[m - 1] == binomial(m, 2)


def test_racing_puts_keep_the_longest_row():
    # eight threads put rows of eight lengths under each of many keys; a
    # put that checked the length and stored apart from the lock loses
    # a few keys to a shorter row
    cache = RowCache()
    lengths = (5, 40, 17, 3, 29, 11, 39, 8)
    keys = 20000
    start = threading.Barrier(len(lengths))

    def put(length):
        row = tuple(range(length))
        start.wait()
        for key in range(keys):
            cache.put(key, row)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between the check and the store
    try:
        threads = [threading.Thread(target=put, args=(length,)) for length in lengths]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    longest = tuple(range(max(lengths)))
    assert all(cache.get(key) == longest for key in range(keys))
    assert cache.cache_info().currsize == keys


def test_stirling2_out_of_range_is_zero():
    assert stirling2(3, 5) == 0
    assert stirling2(3, -1) == 0
    assert stirling2(0, 0) == 1


@given(st.integers(1, 40), st.integers(1, 40))
def test_stirling2_recurrence(n, k):
    assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@given(st.integers(0, 30))
def test_stirling2_row_sums_to_bell_recurrence(n):
    # Bell(n+1) = sum_k C(n,k) Bell(k), with Bell(n) = sum_k {n brace k}
    bell = lambda m: sum(stirling2_row(m))
    assert bell(n + 1) == sum(binomial(n, k) * bell(k) for k in range(n + 1))


def test_int_pow():
    assert int_pow(0, 0) == 1
    assert int_pow(-2, 3) == -8
    assert int_pow(10, 5) == 100000
    with pytest.raises(ValueError):
        int_pow(2, -1)


@given(
    st.lists(st.tuples(st.integers(-50, 50), st.integers(-6, 6)), max_size=6),
    st.integers(0, 12),
    st.integers(0, 12),
)
def test_power_sums_match_a_literal_sum(terms, n_min, extra):
    weights = [w for w, _ in terms]
    bases = [base for _, base in terms]
    assert power_sums(weights, bases, n_min, n_min + extra) == [
        sum(w * base ** n for w, base in terms)
        for n in range(n_min, n_min + extra + 1)
    ]


def test_power_sums_edges():
    # no weights: every value is 0; base 0 takes 0^0 = 1 only at n = 0
    assert power_sums([], [], 0, 4) == [0] * 5
    assert power_sums((), (), 3, 3) == [0]
    assert power_sums([5], [0], 0, 3) == [5, 0, 0, 0]
    assert power_sums([5], [0], 2, 4) == [0, 0, 0]
    assert power_sums([2, -1, 4], [0, 1, 3], 0, 3) == [5, 11, 35, 107]


def test_factorial():
    assert [factorial(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]


@pytest.mark.parametrize("route, args, message", [
    (stirling2_row, (-1,), "stirling2_row: n must be >= 0, got -1"),
    (stirling2, (-1, 0), "stirling2: n must be >= 0, got -1"),
    (factorial, (-1,), "factorial: n must be >= 0, got -1"),
])
def test_negative_n_is_refused(route, args, message):
    with pytest.raises(ValueError) as exc:
        route(*args)
    assert str(exc.value) == message
