"""The p^r_j(n) family: arrangements of an n-set into r restricted and
j free sections, computed by four routes.

* p_egf            coefficient extraction from e^{rm} / (2 - e^m)^j
* p_binomial_shift finite binomial sum over the r = 0 column
* p_recurrence     the recurrence on j, one row per (r, j) grown by a loop
* p_series_certified / p_double_sum
                   the two infinite-series forms, made finite by an
                   explicit tail certificate resp. a vanishing-
                   differences truncation

Every route except p_recurrence reads generating-function rows through
one `combinat.RowCache`: `_p_row(r, j, order)` builds one truncated
series per miss, as e^{rm} times the reciprocal of (2 - e^m)^j. That
power is no series power: `p_reciprocal_row` gives e^{-rm}(2 - e^m)^j
in closed form, one power sum of O(j * order) integer operations.
`_p_values` serves each request for p^r_j(0..n) as a slice of the
longest row built for (r, j), grown by the cache's doubling rule.
Slicing is exact because coefficient n of e^{rm}/(2-e^m)^j does not
depend on the truncation order.

The sums over those rows stay in integers. A shifted value
p^base_j(n) = sum_s C(n,s) base^s p^0_j(n-s) is a degree-n polynomial
in base; `_shift_coeffs(j, n)` caches its coefficients once per (j, n)
and `_shifted_value` evaluates it by Horner's rule, so the series and
the double sum, which ask for many bases at one (j, n), pay the
binomials once. The double sum evaluates each shifted value once and
takes all of its inner alternating sums from one difference table,
by subtraction alone. The certified series never evaluates a term:
its scaled partial sum sum_{s<S} v_s * 2^(S-1-s) is a combination of
the power moments sum_{s<S} (r+s)^k * 2^(S-1-s), k <= n, which obey a
recurrence in k, so it costs O(n^2) integer operations whatever the
truncation index S and is rounded by one shift. None of these sums
builds a Fraction.

p_recurrence keeps a `RowCache` of its own, one row per (r, j) with
j >= 1, extended to exactly n by a loop over n and the levels 1..j
below it, never by a nested call.

Every public route takes r, j and n through `operator.index`, so a
float or a string is a TypeError, never a truncated or float value.
Cross-checks between the routes live in the identity registry; this
module only computes.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .combinat import RowCache, binomial, int_pow, power_sums
from .egf import Egf, exp_series
from .record import FrozenRecord


class CertificationFailureError(ArithmeticError):
    """No truncation index satisfied the tail criterion below the cap."""


class SequenceTable(FrozenRecord):
    """Values p^r_j(0..n_max) for one (r, j) family."""

    _fields = ("r", "j", "values")

    def __init__(self, r: int, j: int, values: tuple[int, ...]) -> None:
        if not values or values[0] != 1:
            raise ValueError("p(0) must be 1")
        if min(values) < 0:
            raise ValueError("family values are counts, must be >= 0")
        fields = self.__dict__
        fields["r"] = r
        fields["j"] = j
        fields["values"] = values

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


class TailCertificate(FrozenRecord):
    """Proof record that a series truncation loses less than 1/2."""

    _fields = ("truncation_index", "tail_bound")

    def __init__(self, truncation_index: int, tail_bound: Fraction) -> None:
        if not tail_bound < Fraction(1, 2):
            raise ValueError("tail bound must be < 1/2 for exact rounding")
        fields = self.__dict__
        fields["truncation_index"] = truncation_index
        fields["tail_bound"] = tail_bound


def p_reciprocal_row(r: int, j: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of e^{-rm}(2 - e^m)^j, the reciprocal of p^r_j's series.

    By the binomial theorem coefficient n is sum_i C(j,i) 2^(j-i) (-1)^i
    (i-r)^n, with 0^0 = 1: one power sum over the bases -r..j-r, of
    O(j * order) integer operations, that inverts and raises no series.
    """
    r, j, order = operator.index(r), operator.index(j), operator.index(order)
    if r < 0 or j < 0 or order < 0:
        raise ValueError("r, j, order must be >= 0")
    weights = [(-1) ** i * math.comb(j, i) << (j - i) for i in range(j + 1)]
    return tuple(power_sums(weights, range(-r, j - r + 1), 0, order))


def _p_row(r: int, j: int, order: int) -> tuple[int, ...]:
    inverse = Egf(order, p_reciprocal_row(0, j, order)).reciprocal()
    series = exp_series(r, order) * inverse
    return tuple(series.coeff_int(n) for n in range(order + 1))


# (r, j) -> the longest _p_row built for it
_p_rows = RowCache()
_p_row.cache_info = _p_rows.cache_info


def _p_values(r: int, j: int, n: int) -> tuple[int, ...]:
    """p^r_j(0..n), sliced from the longest cached row for (r, j)."""
    return _p_rows.row((r, j), n, _p_row, r, j)[: n + 1]


def p_egf(r: int, j: int, n_max: int) -> SequenceTable:
    """p^r_j(0..n_max) via the generating function e^{rm}/(2-e^m)^j."""
    r, j, n_max = operator.index(r), operator.index(j), operator.index(n_max)
    if r < 0 or j < 0 or n_max < 0:
        raise ValueError("r, j, n_max must be >= 0")
    return SequenceTable(r=r, j=j, values=_p_values(r, j, n_max))


def p_binomial_shift(r: int, j: int, n: int) -> int:
    """p^r_j(n) = sum_s C(n,s) r^s p^0_j(n-s)."""
    r, j, n = operator.index(r), operator.index(j), operator.index(n)
    if r < 0 or j < 0 or n < 0:
        raise ValueError("r, j, n must be >= 0")
    return _shifted_value(r, j, n)


# (r, j) -> p^r_j(0..len - 1) for j >= 1, grown by _recurrence_row
_recurrence_rows = RowCache()


def _recurrence_row(r: int, j: int, n: int) -> list[int]:
    """p^r_j(0..n) by the recurrence on j, extending the rows of levels 1..j.

    Level i at index m is p^r_{i-1}(m) + sum_{s<m} C(m,s) p^r_i(s), with
    level 0 the powers r^m and every level starting at p^r_i(0) = 1.
    The loop runs over m outside and the levels inside, so one Pascal
    row serves every level and no level nests a call for the one below.
    Each level is extended in a private list from its stored row and
    published as a new tuple by `RowCache.put`, so a racing thread never
    sees a row change under it.
    """
    keys = [(r, i) for i in range(1, j + 1)]
    levels = [list(_recurrence_rows.get(key, (1,))) for key in keys]
    start = min(map(len, levels))
    pascal = [math.comb(start, s) for s in range(start + 1)]  # C(m, 0..m)
    power = r**start  # r^m, level 0
    for m in range(start, n + 1):
        below = power
        for level in levels:
            if len(level) == m:
                level.append(below + sum(map(operator.mul, pascal, level)))
            below = level[m]
        pascal = [1, *map(operator.add, pascal, pascal[1:]), 1]
        power *= r
    _recurrence_rows.misses += 1
    for key, level in zip(keys, levels):
        _recurrence_rows.put(key, tuple(level))
    return levels[-1]


def p_recurrence(r: int, j: int, n: int) -> int:
    """p^r_j(n) = p^r_{j-1}(n) + sum_{s<n} C(n,s) p^r_j(s), base p^r_0 = r^n.

    Reads row (r, j) of the recurrence, extending it and the rows below
    it by a loop when it is shorter than n + 1, so a large j or n needs
    no deep recursion. The arguments are taken through operator.index
    before any row is read, so a float never answers from a warm row.
    `p_recurrence.cache_info()` counts the calls answered from a row
    (hits) and those that grew one (misses).
    """
    r, j, n = operator.index(r), operator.index(j), operator.index(n)
    if r < 0 or j < 0 or n < 0:
        raise ValueError("r, j, n must be >= 0")
    if j == 0:
        return int_pow(r, n)
    if n == 0:
        return 1
    row = _recurrence_rows.get((r, j))
    if n < len(row):
        _recurrence_rows.hits += 1
        return row[n]
    return _recurrence_row(r, j, n)[n]


p_recurrence.cache_info = _recurrence_rows.cache_info


@lru_cache(maxsize=None)
def _shift_coeffs(j: int, n: int) -> tuple[int, ...]:
    """C(n,s) p^0_j(n-s) for s = 0..n: the coefficients of p^base_j(n) in base.

    At j = 0 the polynomial is base^n, so no row is built.
    """
    if j == 0:
        return (0,) * n + (1,)
    row = _p_values(0, j, n)
    return tuple(binomial(n, s) * row[n - s] for s in range(n + 1))


def _shifted_value(base: int, j: int, n: int) -> int:
    """p^base_j(n) = sum_s C(n,s) base^s p^0_j(n-s).

    base can be large (it runs over the series index), so the value is
    assembled from the cached r = 0 row instead of building a fresh
    generating function per base: the polynomial in base is evaluated
    by Horner's rule on coefficients cached per (j, n).
    """
    if j == 0:
        return int_pow(base, n)
    total = 0
    for coeff in reversed(_shift_coeffs(j, n)):
        total = total * base + coeff
    return total


def _forward_differences(values: list[int]) -> list[int]:
    """Delta^k values[0] = sum_{s<=k} C(k,s)(-1)^s values[k-s], k < len(values).

    Read off the leading edge of one difference table, each row the
    pairwise differences of the row above, so the table costs
    subtractions only: no binomial, sign or product.
    """
    edge = []
    while values:
        edge.append(values[0])
        values = list(map(operator.sub, values[1:], values))
    return edge


def p_double_sum(r: int, j: int, n: int) -> int:
    """p^r_j(n) = sum_k sum_{s<=k} C(k,s)(-1)^s p^{r+k-s}_{j-1}(n), j >= 1.

    The inner alternating sum is the k-th finite difference of a
    degree-n polynomial in the shift variable, so terms with k > n
    vanish; the outer sum is truncated at k = n and the next three
    inner sums are checked to be zero. The n + 4 shifted values are
    each evaluated on their own, and the inner sums are taken from
    their difference table (`_forward_differences`).
    """
    r, j, n = operator.index(r), operator.index(j), operator.index(n)
    if j < 1:
        raise ValueError("the double-sum form needs j >= 1")
    if r < 0 or n < 0:
        raise ValueError("r, n must be >= 0")
    # inner sum k is the k-th forward difference of shifted[t] =
    # p^{r+t}_{j-1}(n) at t = 0, and reads shifted[0..k] only
    inner = _forward_differences(
        [_shifted_value(r + t, j - 1, n) for t in range(n + 4)]
    )
    for k in (n + 1, n + 2, n + 3):
        if inner[k] != 0:
            raise ArithmeticError(
                f"inner sum at k={k} should vanish, got {inner[k]}"
            )
    return sum(inner[: n + 1])


def _certify_truncation(r: int, j: int, n: int) -> TailCertificate:
    """Least S with a proven tail bound below 1/2.

    Summand s contributes p^{r+s}_{j-1}(n)/2^{s+1} <= 2^{-s/2} once
    (r+j+s)^{n+j+1} <= 2^{s/2}. That inequality is tested in squared
    form at s = S and S+1 together with the ratio condition
    (c+1)^e <= 2 c^e, which makes it persist for every s >= S. The
    geometric tail is then < 4 * 2^{-S/2}, recorded as a slightly
    rounded-up rational.

    The search starts at the least t >= 7 with t >= bit_length(c^e) - 1,
    the fixed point of t <- bit_length((r+j+t)^e) - 1 reached from 7.
    c^e >= 2^(bit_length(c^e) - 1) and c^e grows with t, so every t
    below that start fails c^e <= 2^t: S and its bound are those of a
    search from 7, and a start past the cap raises the same error.
    """
    e = 2 * (n + j + 1)
    cap = 64 * (n + j + r + 4)
    start = 7
    power = (r + j + start) ** e  # c^e for the current t
    while (need := power.bit_length() - 1) > start:
        start = need
        power = (r + j + start) ** e
    for t in range(start, cap + 1):
        nxt = (r + j + t + 1) ** e  # (c+1)^e, the next step's c^e
        if power <= 1 << t and nxt <= 1 << (t + 1) and nxt <= power << 1:
            if t % 2 == 0:
                bound = Fraction(4, 1 << (t // 2))
            else:
                bound = Fraction(3, 1 << ((t - 1) // 2))
            return TailCertificate(truncation_index=t, tail_bound=bound)
        power = nxt
    raise CertificationFailureError(
        f"no truncation index up to {cap} certified for r={r}, j={j}, n={n}"
    )


def certified_round(term: Callable[[int], int], cert: TailCertificate) -> int:
    """floor(sum_{s<S} term(s) / 2^{s+1} + 1/2), S = cert.truncation_index.

    The partial sum is scaled by 2^S and accumulated by Horner's rule
    as sum_s term(s) * 2^(S-1-s), so the rounding is one integer shift.
    The certificate's tail bound < 1/2 makes this the value of the
    whole series when its terms are non-negative integers.
    """
    t = cert.truncation_index
    total = 0
    for s in range(t):
        total = (total << 1) + term(s)
    # floor((total + 2^(t-1)) / 2^t), written to hold at t = 0 as well
    return (2 * total + (1 << t)) >> (t + 1)


def _polynomial_round(
    coeffs: tuple[int, ...], base: int, cert: TailCertificate
) -> int:
    """certified_round(lambda s: sum_k coeffs[k] (base+s)^k, cert), by moments.

    The scaled partial sum sum_{s<S} v(s) 2^(S-1-s) is sum_k coeffs[k] A_k
    with A_k = sum_{s<S} (base+s)^k 2^(S-1-s). Shifting s by one gives
    A_k = base^k 2^S - (base+S)^k + sum_{i<k} C(k,i) A_i, so the moments
    cost O(k^2) integer operations for any S and the rounding is the
    same single shift.
    """
    t = cert.truncation_index
    moments: list[int] = []
    pascal = [1]  # C(k, 0..k) for the current k
    low, high = 1, 1  # base^k and (base+S)^k
    total = 0
    for coeff in coeffs:
        moment = (low << t) - high + sum(map(operator.mul, pascal, moments))
        moments.append(moment)
        total += coeff * moment
        pascal = [1, *map(operator.add, pascal, pascal[1:]), 1]
        low *= base
        high *= base + t
    return (2 * total + (1 << t)) >> (t + 1)


def p_series_certified(r: int, j: int, n: int) -> tuple[int, TailCertificate]:
    """p^r_j(n) = (1/2) sum_{s>=0} p^{r+s}_{j-1}(n) / 2^s, j >= 1.

    Sums the series exactly up to a certified truncation index and
    rounds; the certificate's bound < 1/2 makes the rounding exact. The
    partial sum is taken from power moments (`_polynomial_round`), and
    equals `certified_round` over the terms p^{r+s}_{j-1}(n).
    """
    r, j, n = operator.index(r), operator.index(j), operator.index(n)
    if j < 1:
        raise ValueError("the series form needs j >= 1")
    if r < 0 or n < 0:
        raise ValueError("r, n must be >= 0")
    cert = _certify_truncation(r, j, n)
    value = _polynomial_round(_shift_coeffs(j - 1, n), r, cert)
    return value, cert


def p_inclusion_exclusion(r: int, j: int, n: int) -> int:
    """The alternating sum sum_{s=1}^{r} C(r,s)(-1)^{s+1} p^s_{j-s}(n).

    By inclusion-exclusion over which marked sections are collapsed,
    this counts arrangements with j free sections in which AT LEAST ONE
    of r marked sections holds at most one block. It coincides with
    p^r_{j-r}(n), the count with all r marked sections restricted, only
    for r = 1.
    """
    r, j, n = operator.index(r), operator.index(j), operator.index(n)
    if not 1 <= r <= j:
        raise ValueError("need 1 <= r <= j")
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(
        binomial(r, s) * (-1) ** (s + 1) * _p_values(s, j - s, n)[n]
        for s in range(1, r + 1)
    )


def last_digit_cycle_check(values) -> bool:
    """True iff value(n+4) == value(n) mod 10 across the window.

    values are consecutive sequence members; the window must hold at
    least nine of them so every residue class mod 4 is compared at
    least once.
    """
    vals = list(values)
    if len(vals) < 9:
        raise ValueError("need at least 9 consecutive values")
    return all(
        vals[i] % 10 == vals[i + 4] % 10 for i in range(len(vals) - 4)
    )


def clear_caches() -> None:
    """Empty every cache and row table this module keeps, as at import."""
    for cache in (_p_rows, _shift_coeffs, _recurrence_rows):
        cache.cache_clear()
