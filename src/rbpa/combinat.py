"""Small exact-arithmetic combinatorial primitives shared by every module.

Everything here returns plain Python ints. No floats anywhere; callers
that need rationals wrap these in fractions.Fraction themselves.
`RowCache` keeps every row table of the package: the Stirling rows
and the one lcm(1..t) row here, the p and recurrence rows in `counts`,
the chain and reciprocal rows in `bernoulli`. The Stirling row, the
lcm row and `power_sums` are each built in one C-level pass per row
(`map`, `itertools.accumulate`, `zip`), not one Python step per entry.
Exponential series with integer coefficients are multiplied by
`binomial_convolution` and inverted by `unit_reciprocal`, both over
integer rows.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import namedtuple
from itertools import accumulate, repeat

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
    """sum_{s=start}^{n} C(n, s) left[s] right[n - s] over two integer rows.

    The shape of Eq. 5, 6, 8, 9 and 13 and of the Corollary: coefficient
    n of a product of two exponential generating functions. A sign such
    as (-1)^s goes inside the row it multiplies. One C-level pass: the
    binomials times left[start..n] times right[n-start..0]. A row may be
    longer than the sum reads; a shorter one is a ValueError. start >= 0,
    and start > n gives 0.
    """
    if start > n:
        return 0
    if len(left) <= n or len(right) <= n - start:
        raise ValueError(
            f"binomial_convolution: a row is too short for n = {n} from s = {start}")
    return sum(map(
        operator.mul, map(math.comb, repeat(n), range(start, n + 1)),
        map(operator.mul, left[start:n + 1], right[n - start::-1]),
    ))


def unit_reciprocal(row) -> tuple[int, ...]:
    """1/f for the exponential series f with coefficients row and a_0 = 1.

    q_0 = 1 and q_n = -sum_{s=1}^{n} C(n,s) a_s q_{n-s}, one
    binomial_convolution per coefficient and no division, so an integer
    row has an integer inverse. A row with a_0 != 1 is a ValueError.
    """
    head = row[0] if row else None
    if head != 1:
        raise ValueError(f"unit_reciprocal needs a_0 = 1, got {head}")
    inverse = [1]
    for n in range(1, len(row)):
        inverse.append(-binomial_convolution(n, row, inverse, start=1))
    return tuple(inverse)


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
    """Row n, storing each row built on the way from the highest stored one.

    Row m is k * row[m-1][k] + row[m-1][k-1] for k = 0..m, the row
    below padded with a 0 at the end and shifted by a 0 at the start.
    """
    m = n
    while m > 1 and not _stirling_rows.get(m - 1):
        m -= 1
    row = _stirling_rows.get(m - 1, (1,))  # row 0 is (1,)
    for m in range(max(m, 1), n + 1):
        row = tuple(map(
            operator.add, map(operator.mul, range(m + 1), row + (0,)), (0,) + row
        ))
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


def lcm_row(n: int) -> tuple[int, ...]:
    """(lcm(1..0), lcm(1..1), ..., lcm(1..n), ...): at least n + 1 entries.

    Entry t is lcm(1..t), the empty lcm(1..0) being 1. The one table of
    these in the package: the positive-index B and U routes scale by
    it. One row is kept, grown like every RowCache row, and built by
    one `accumulate` of math.lcm.
    """
    if n < 0:
        raise ValueError(f"lcm_row: n must be >= 0, got {n}")
    return _lcm_rows.row(None, n, _build_lcm_row)


def _build_lcm_row(n: int) -> tuple[int, ...]:
    return tuple(accumulate(range(1, n + 1), math.lcm, initial=1))


# the lcm(1..t) row under the one key None
_lcm_rows = RowCache()
lcm_row.cache_info = _lcm_rows.cache_info


def int_pow(base: int, exp: int) -> int:
    """base ** exp for exp >= 0, with 0 ** 0 == 1."""
    if exp < 0:
        raise ValueError(f"int_pow: exp must be >= 0, got {exp}")
    return base ** exp


def power_sums(weights, bases, n_min: int, n_max: int) -> list[int]:
    """sum_i weights[i] * bases[i]^n for n = n_min..n_max, with 0^0 = 1.

    Each term is taken once at n_min; past it, each base's column is
    stepped by one `accumulate` of multiplications and the columns are
    summed entry by entry. The list costs O(len(bases) * (n_max -
    n_min)) integer operations. With no weights every value is 0.
    """
    if n_min < 0:
        raise ValueError(f"power_sums: n_min must be >= 0, got {n_min}")
    terms = list(map(operator.mul, weights, map(pow, bases, repeat(n_min))))
    if n_max <= n_min:
        return [sum(terms)]
    columns = [
        accumulate(repeat(base, n_max - n_min), operator.mul, initial=term)
        for term, base in zip(terms, bases)
    ]
    return list(map(sum, zip(*columns))) or [0] * (n_max - n_min + 1)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial: n must be >= 0, got {n}")
    return math.factorial(n)


def clear_caches() -> None:
    """Empty the Stirling and lcm row tables, as at import."""
    _stirling_rows.cache_clear()
    _lcm_rows.cache_clear()
