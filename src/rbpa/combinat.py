"""Small exact-arithmetic combinatorial primitives shared by every module.

Everything here returns plain Python ints. No floats anywhere; callers
that need rationals wrap these in fractions.Fraction themselves.
`grown_order` is the one growth rule of the build-once-then-slice row
caches in `counts` and `bernoulli`.
"""

from __future__ import annotations

import math
from functools import lru_cache


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


# rows 0, 1, ... of the Stirling triangle built so far, keyed by n and
# grown by stirling2_row; the keys are always 0..len - 1
_stirling_rows: dict[int, tuple[int, ...]] = {0: (1,)}


@lru_cache(maxsize=None)
def stirling2_row(n: int) -> tuple[int, ...]:
    """Row n of the Stirling set-number triangle: ({n,0}, {n,1}, ..., {n,n}).

    Triangle recurrence {n,k} = k*{n-1,k} + {n-1,k-1}. Rows are built
    in a loop, row m from row m - 1, so a sweep to N costs O(N^2) in total
    and no row nests a call for the row below it. Row m is stored with
    setdefault under key m, so a thread that builds it second keeps the
    first copy and no row lands under another row's key.
    """
    if n < 0:
        raise ValueError(f"stirling2_row: n must be >= 0, got {n}")
    for m in range(len(_stirling_rows), n + 1):
        prev = _stirling_rows[m - 1]
        _stirling_rows.setdefault(m, tuple(
            (k * prev[k] if k < m else 0) + (prev[k - 1] if k >= 1 else 0)
            for k in range(m + 1)
        ))
    return _stirling_rows[n]


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


def grown_order(orders: dict, key, n: int) -> int:
    """Order at which to build or slice a cached row for a length-n request.

    orders maps each key to the longest row built for it. A cold key is
    built at exactly n; a request past the longest row rebuilds at
    max(n, 2 * longest), so a sweep of growing requests costs a
    logarithmic number of builds. The caller's row must be sliceable:
    entry m may not depend on the order the row was built at.
    """
    longest = orders.get(key)
    if longest is None or n > longest:
        longest = n if longest is None else max(n, 2 * longest)
        orders[key] = longest
    return longest


def clear_caches() -> None:
    """Empty the Stirling row cache and reseed its table, as at import."""
    stirling2_row.cache_clear()
    _stirling_rows.clear()
    _stirling_rows[0] = (1,)
