"""Small exact-arithmetic combinatorial primitives shared by every module.

Everything here returns plain Python ints. No floats anywhere; callers
that need rationals wrap these in fractions.Fraction themselves.
`RowCache` keeps every row table of the package: the Stirling rows
here, the p and recurrence rows in `counts`, the chain and reciprocal
rows in `bernoulli`.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple

CacheInfo = namedtuple("CacheInfo", "hits misses currsize")


class RowCache:
    """One row per key, the longest built so far, counted like an lru_cache.

    `row` serves entries 0..n from the stored row or builds one, at
    order n for a cold key and at max(n, 2 * longest) past the longest,
    so a sweep costs a logarithmic number of builds; entry m of a row
    may not depend on the order it was built at. `put` keeps only a
    longer row, under one lock. Racing threads may lose a count. A
    module sets a table's `cache_info` on the function it serves, where
    the benchmark's tracer and the tests read it.
    """

    def __init__(self) -> None:
        self._rows: dict = {}
        self._lock = threading.Lock()
        self.hits = self.misses = 0

    def get(self, key, default: tuple = ()) -> tuple:
        return self._rows.get(key, default)

    def put(self, key, row: tuple) -> None:
        with self._lock:
            if len(row) > len(self._rows.get(key, ())):
                self._rows[key] = row

    def row(self, key, n: int, build, *args) -> tuple:
        """A row for key with more than n entries; build(*args, order) makes one."""
        row = self._rows.get(key, ())
        if n < len(row):
            self.hits += 1
            return row
        self.misses += 1
        row = build(*args, max(n, 2 * (len(row) - 1)))  # n for a cold key
        self.put(key, row)
        return row

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, len(self._rows))

    def cache_clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self.hits = self.misses = 0


def binomial(n: int, k: int) -> int:
    """C(n, k) with C(n, k) = 0 for k < 0 or k > n.

    n must be non-negative; the identities in this package never need
    negative upper arguments and a silent generalized binomial would
    mask indexing bugs.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be >= 0, got {n}")
    if k < 0:
        return 0
    return math.comb(n, k)


def binomial_convolution(n: int, left, right, start: int = 0) -> int:
    """sum_{s=start}^{n} C(n, s) left(s) right(n - s), the one binomial convolution.

    The shape of Eq. 5, 6, 8, 9 and 13 and of the Corollary: coefficient
    n of a product of two exponential generating functions. A sign such
    as (-1)^s goes inside the factor it multiplies. n and start are
    >= 0; both factors are read at every s, even where one is zero.
    """
    total = 0
    for s in range(start, n + 1):
        total += math.comb(n, s) * left(s) * right(n - s)
    return total


def stirling2_row(n: int) -> tuple[int, ...]:
    """Row n of the Stirling set-number triangle: ({n,0}, {n,1}, ..., {n,n}).

    Triangle recurrence {n,k} = k*{n-1,k} + {n-1,k-1}. A missing row is
    built in a loop from the highest stored row below it, row m from
    row m - 1, so a sweep to N costs O(N^2) in total and no row nests
    a call for the row below it.
    """
    if n < 0:
        raise ValueError(f"stirling2_row: n must be >= 0, got {n}")
    return _stirling_rows.row(n, n, _build_stirling_rows)


def _build_stirling_rows(n: int) -> tuple[int, ...]:
    """Row n, storing each row built on the way from the highest stored one."""
    m = n
    while m > 1 and not _stirling_rows.get(m - 1):
        m -= 1
    row = _stirling_rows.get(m - 1, (1,))  # row 0 is (1,)
    for m in range(max(m, 1), n + 1):
        row = tuple(
            (k * row[k] if k < m else 0) + (row[k - 1] if k >= 1 else 0)
            for k in range(m + 1)
        )
        _stirling_rows.put(m, row)
    return row


# row n of the Stirling triangle under key n
_stirling_rows = RowCache()
stirling2_row.cache_info = _stirling_rows.cache_info


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind {n, k}; zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"stirling2: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return stirling2_row(n)[k]


def int_pow(base: int, exp: int) -> int:
    """base ** exp for exp >= 0, with 0 ** 0 == 1."""
    if exp < 0:
        raise ValueError(f"int_pow: exp must be >= 0, got {exp}")
    return base ** exp


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial: n must be >= 0, got {n}")
    return math.factorial(n)


def clear_caches() -> None:
    """Empty the Stirling row cache, as at import."""
    _stirling_rows.cache_clear()
