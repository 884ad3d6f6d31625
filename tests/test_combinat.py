import math
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from rbpa import combinat
from rbpa.combinat import (
    RowCache, binomial, binomial_convolution, factorial, int_pow, stirling2,
    stirling2_row,
)


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
        total += math.comb(n, s) * left(s) * right(n - s)
    return total


@pytest.mark.parametrize("start", [0, 1])
def test_binomial_convolution_matches_a_literal_loop(start):
    factors = [
        lambda s: 1,
        lambda s: (-1) ** s * (s + 2),
        lambda s: -(3 ** s) + s,
        lambda s: 1 if s == 0 else 0,
    ]
    for n in range(12):
        for left in factors:
            for right in factors:
                assert binomial_convolution(n, left, right, start) == (
                    _convolution_loop(n, left, right, start)
                )


def test_binomial_convolution_edges():
    # n = 0 is the single term left(0) right(0); from start 1 it is empty
    assert binomial_convolution(0, lambda s: -7, lambda s: 5) == -35
    assert binomial_convolution(0, lambda s: -7, lambda s: 5, start=1) == 0
    # sum_s C(n,s) (-1)^s = 0 for n >= 1, and 2^n with both factors 1
    assert binomial_convolution(6, lambda s: (-1) ** s, lambda s: 1) == 0
    assert binomial_convolution(6, lambda s: 1, lambda s: 1) == 64
    assert binomial_convolution(6, lambda s: 1, lambda s: 1, start=1) == 63


def test_stirling2_rows():
    assert stirling2_row(0) == (1,)
    assert stirling2_row(1) == (0, 1)
    assert stirling2_row(4) == (0, 1, 7, 6, 1)
    assert stirling2_row(5) == (0, 1, 15, 25, 10, 1)


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
