"""Poly-Bernoulli numbers, their negative-multi-index generalization,
and the shifted U variant.

Index convention: a MultiIndex (j_1, ..., j_b) of non-negative entries
always denotes the upper index tuple (-j_1, ..., -j_b), where the
values are integers. Routes that accept genuine positive upper indices
(where values become rationals) take the actual signed indices and say
so in their name or docstring.

Three independent routes to the same numbers live here:
* the mu recursion (a finite signed combination of powers),
* a truncated expansion in powers of 1 - e^{-m} ("li oracle"), whose
  sequence form reads the U Stirling sum's chain rows,
* for the U variant, a finite Stirling-weighted sum and the binomial
  shift of the B values.

The sums add in ints. A positive upper index makes a value rational;
`poly_bernoulli` and `u_stirling_sum` then scale every term to one
common denominator and build a single Fraction at the end. Where a
Fraction value is known to be an integer (B and U at non-positive
indices), `as_int` takes its int and refuses a non-integral one, so a
wrong rational never passes as a truncated int.

Every public B and U route takes n and each index entry through
`operator.index`, so a float or a string is a TypeError, never a
truncated value.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, repeat
from typing import Sequence

from .combinat import (
    RowCache, binomial, binomial_convolution, int_pow, lcm_row, power_sums,
    stirling2_row, unit_reciprocal,
)
from .record import FrozenRecord

MultiIndex = tuple  # tuple[int, ...], entries >= 0, length >= 1


def as_multi_index(entries: Sequence[int]) -> MultiIndex:
    idx = tuple(map(operator.index, entries))
    if not idx:
        raise ValueError("a multi-index needs at least one entry")
    if min(idx) < 0:
        raise ValueError(f"multi-index entries must be >= 0, got {idx}")
    return idx


class MuTable(FrozenRecord):
    """Signed integer weights mu_0..mu_j attached to one multi-index.

    The represented number family is sum_s mu_s (s+b)^n, b = len(index).
    mu_0 is 1 for the all-zero index and 0 otherwise; the weight j is
    the entry sum. `mu_table` builds it from the all-zero index's
    weights (1,) by integer steps alone.
    """

    _fields = ("index", "weight", "coefficients")

    def __init__(
        self, index: MultiIndex, weight: int, coefficients: tuple[int, ...]
    ) -> None:
        if weight != sum(index):
            raise ValueError("weight must equal the entry sum")
        if len(coefficients) != weight + 1:
            raise ValueError("need exactly weight+1 coefficients")
        expected_head = 1 if all(e == 0 for e in index) else 0
        if coefficients[0] != expected_head:
            raise ValueError(f"mu_0 must be {expected_head} for {index}")
        fields = self.__dict__
        fields["index"] = index
        fields["weight"] = weight
        fields["coefficients"] = coefficients


def _increment_last(prev: tuple[int, ...], b: int) -> tuple[int, ...]:
    # raising the last of b index entries by one, in one C-level pass:
    # new_s = (s+b-1) prev_{s-1} - s prev_s, prev read as 0 outside it
    return tuple(map(
        operator.sub,
        map(operator.mul, range(b - 1, len(prev) + b), (0,) + prev),
        map(operator.mul, range(len(prev) + 1), prev + (0,)),
    ))


def mu_table(idx: Sequence[int]) -> MuTable:
    """Build the mu weights entry by entry, left to right.

    Start from the all-zero index's (1,) and raise each entry pos to
    its value one step at a time, at b = pos + 1. The first entry gives
    mu_s = (-1)^{s+j_1} s! {j_1 brace s} with no Stirling row read. The
    index is validated before the cache is read, so a float entry is a
    TypeError whether or not its int twin is cached.
    """
    return _mu_table(as_multi_index(idx))


@lru_cache(maxsize=None)
def _mu_table(idx: MultiIndex) -> MuTable:
    coeffs = (1,)
    for b, entry in enumerate(idx, 1):
        for _ in range(entry):
            coeffs = _increment_last(coeffs, b)
    return MuTable(index=idx, weight=sum(idx), coefficients=coeffs)


# the cache lives on _mu_table; the benchmark's tracer counts it by the
# public name
mu_table.cache_info = _mu_table.cache_info


def _b_values(
    idx: MultiIndex, n_min: int, n_max: int, b: int | None = None
) -> list[int]:
    """sum_s mu_s (s+b)^n for n = n_min..n_max: B at upper index -idx.

    The one place the mu-weighted power sum is set up, for
    `combinat.power_sums`: b defaults to len(idx), and u_from_mu reads
    U at b = len(idx) - 1. The all-zero index falls outside the mu
    recursion and gives b^n (its generating function is e^{bm}).
    """
    b = len(idx) if b is None else b
    if any(idx):
        weights = _mu_table(idx).coefficients[1:]
        bases = range(b + 1, b + 1 + len(weights))
    else:
        weights, bases = (1,), (b,)
    return power_sums(weights, bases, n_min, n_max)


def multi_poly_bernoulli(idx: Sequence[int], n: int) -> int:
    """B for upper index (-j_1, ..., -j_b): sum_s mu_s (s+b)^n."""
    idx = as_multi_index(idx)
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _b_values(idx, n, n)[0]


@lru_cache(maxsize=None, typed=True)
def poly_bernoulli(k: int, n: int) -> Fraction:
    """B with a single upper index k, any sign.

    Stirling-reduced finite form sum_s (-1)^{n+s} s! {n brace s} / (s+1)^k;
    integral for k <= 0. Terms are added as ints: for k > 0 each is
    scaled to the common denominator lcm(1..n+1)^k, read from
    `combinat.lcm_row`, and one Fraction is built from the total. The
    signed factorials are nested by Horner's rule from s = n down,
    a_0 - 1(a_1 - 2(a_2 - ...)), so no factorial is formed. Cached:
    the convolution identities ask for the same few values again and
    again. The cache is typed, so a float equal to an int never hits
    the int's entry.
    """
    k, n = operator.index(k), operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    row = stirling2_row(n)
    total = 0
    if k > 0:
        # term s is weight_s / (s+1)^k = weight_s (den^k / (s+1)^k) / den^k
        den = lcm_row(n + 1)[n + 1] ** k
        for s in range(n, -1, -1):
            total = row[s] * (den // (s + 1) ** k) - (s + 1) * total
    else:
        den = 1
        for s in range(n, -1, -1):
            total = row[s] * (s + 1) ** -k - (s + 1) * total
    return Fraction(-total if n & 1 else total, den)


def poly_bernoulli_double_sum(k: int, n: int) -> Fraction:
    """The same number as a literal double sum, kept for cross-checking.

    sum_s (s+1)^{-k} sum_i C(s,i)(-1)^{s-i}(i-s)^n, where the inner sum
    vanishes for s > n; three extra outer terms are included so the
    vanishing is exercised rather than assumed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    total = Fraction(0)
    for s in range(n + 4):
        inner = sum(
            binomial(s, i) * (-1) ** (s - i) * int_pow(i - s, n)
            for i in range(s + 1)
        )
        if k > 0:
            total += Fraction(inner, int_pow(s + 1, k))
        else:
            total += inner * int_pow(s + 1, -k)
    return total


# expansion in powers of z = 1 - e^{-m}


@lru_cache(maxsize=None)
def _z_power_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient rows of (1 - e^{-m})^p for p = 0..order.

    Row p + 1 is row p times 1 - e^{-m} (coefficients 0, then
    (-1)^{n+1}), an integer product. Row p starts at order p, so higher
    powers never reach coefficient n <= order and are not needed.
    """
    z = [0] + [(-1) ** (n + 1) for n in range(1, order + 1)]
    rows = [(1,) + (0,) * order]
    for _ in range(order):
        power = rows[-1]
        rows.append(tuple(
            binomial_convolution(n, z, power, start=1) for n in range(order + 1)))
    return tuple(rows)


def multi_poly_bernoulli_li_oracle(idx: Sequence[int], n: int) -> int:
    """Independent value from the truncated 1 - e^{-m} expansion.

    Sums s_1^{j_1} ... s_b^{j_b} times coefficient n of
    (1 - e^{-m})^{s_b - b} over all 0 < s_1 < ... < s_b <= n + b;
    larger s_b contributes a series starting past order n.
    """
    idx = as_multi_index(idx)
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    b = len(idx)
    total = 0
    for chain in combinations(range(1, n + b + 1), b):
        weight = 1
        for s_i, j_i in zip(chain, idx):
            weight *= int_pow(s_i, j_i)
        total += weight * _z_power_rows(n)[chain[-1] - b][n]
    return total


def multi_poly_bernoulli_li_sequence(idx: Sequence[int], n_max: int) -> tuple[int, ...]:
    """Values for n = 0..n_max from the same expansion, reorganized.

    The chain sums over 0 < s_1 < ... < s_b = t are read from the chain
    row of the signed indices that u_stirling_sum reads, so no tuple is
    enumerated: that is hopeless at the last-digit checks' windows.
    """
    idx = as_multi_index(idx)
    n_max = operator.index(n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    b = len(idx)
    signed = tuple(-e for e in idx)
    chain = _chain_rows.row(signed, n_max + b, _chain_power_rows, signed)
    rows = _z_power_rows(n_max)
    values = []
    for n in range(n_max + 1):
        total = 0
        for t in range(b, n + b + 1):
            total += chain[t] * rows[t - b][n]
        values.append(total)
    return tuple(values)


def w_family(r: int, n: int) -> int:
    """W_r(n) = 2 r^n - (r-1)^n, the two-free-choices closed form."""
    r, n = operator.index(r), operator.index(n)
    if r < 1:
        raise ValueError("w_family needs r >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return 2 * int_pow(r, n) - int_pow(r - 1, n)


# U numbers: the B family shifted by one more e^{-m} factor


def _chain_power_rows(indices: tuple, t_max: int) -> tuple[int, ...]:
    """T_b(t) = sum over 0 < s_1 < ... < s_b = t of prod s_i^{-k_i}, in ints.

    indices are the actual signed upper indices. Entry t of the row is
    T_b(t) lcm(1..t)^K, K the sum of the positive indices, an int
    because every s_i <= t divides lcm(1..t). With no positive index
    K is 0 and the row is T_b itself. Built depth by depth with prefix
    sums. With no positive index each depth is one C-level pass: the
    `accumulate` prefix sums times the powers t^{-k}. Otherwise a
    running prefix sum moves from scale lcm(1..t-1) to lcm(1..t) by
    one multiplication where t is a prime power. Either way entry t
    never depends on t_max, so a shorter row is a slice of a longer one.
    """
    if max(indices) <= 0:
        # depth 1 is t^{-k_1} from t = 1; each deeper entry t is t^{-k}
        # times the sum of the row below up to t - 1
        chain = (0, *map(pow, range(1, t_max + 1), repeat(-indices[0])))
        for k in indices[1:]:
            chain = (0, *map(
                operator.mul, map(pow, range(1, t_max + 1), repeat(-k)),
                accumulate(chain),
            ))
        return chain
    lcms = lcm_row(t_max)

    def factor(t: int, k: int) -> int:  # t^{-k} lcm(1..t)^{max(k, 0)}
        if k > 0:
            return int_pow(lcms[t] // t, k)
        return int_pow(t, -k)

    chain = [0] * (t_max + 1)
    for t in range(1, t_max + 1):
        chain[t] = factor(t, indices[0])
    exponent = max(indices[0], 0)
    for k in indices[1:]:
        running = 0  # sum_{s<t} T(s) lcm(1..t)^exponent, T the depth below
        nxt = [0] * (t_max + 1)
        for t in range(1, t_max + 1):
            running += chain[t - 1]
            if exponent and lcms[t] != lcms[t - 1]:
                running *= int_pow(lcms[t] // lcms[t - 1], exponent)
            nxt[t] = factor(t, k) * running
        chain = nxt
        exponent += max(k, 0)
    return tuple(chain)


# indices -> the longest _chain_power_rows built for them
_chain_rows = RowCache()
_chain_power_rows.cache_info = _chain_rows.cache_info


def u_stirling_sum(indices: Sequence[int], n: int) -> Fraction:
    """U for arbitrary signed upper indices, as a finite Stirling sum.

    (-1)^{n+1} sum_{t=b}^{n+b} T_b(t) (-1)^{t-b+1} (t-b)! {n+1 brace t-b+1},
    with T_b the chain sums over increasing tuples ending at t. The
    terms add in ints. With a positive index, chain entry t carries the
    scale lcm(1..t)^K, K the sum of the positive indices; the running
    total is raised to each new scale as t passes a prime power, and
    one Fraction is built over lcm(1..n+b)^K at the end.
    """
    idx = tuple(operator.index(e) for e in indices)
    n = operator.index(n)
    if not idx:
        raise ValueError("need at least one index entry")
    if n < 0:
        raise ValueError("n must be >= 0")
    b = len(idx)
    chain = _chain_rows.row(idx, n + b, _chain_power_rows, idx)
    exponent = sum(k for k in idx if k > 0)
    if not exponent:
        return Fraction(_u_sum(chain, b, n))
    lcms = lcm_row(n + b)
    row = stirling2_row(n + 1)
    # the two signs merge: (-1)^{n+1} (-1)^{t-b+1} (t-b)! runs from (-1)^n
    total, weight = 0, (-1) ** n
    for m in range(n + 1):
        t = b + m
        if lcms[t] != lcms[t - 1]:
            total *= int_pow(lcms[t] // lcms[t - 1], exponent)
        total += chain[t] * (weight * row[m + 1])
        weight *= -(m + 1)
    return Fraction(total, int_pow(lcms[n + b], exponent))


def _u_sum(chain, b: int, n: int) -> int:
    """(-1)^{n+1} sum_{t=b}^{n+b} chain[t] (-1)^{t-b+1} (t-b)! {n+1 brace t-b+1}.

    The two signs merge into (-1)^{n+m} m!, m = t - b, and the signed
    factorials are nested by Horner's rule from m = n down, as in
    poly_bernoulli.
    """
    row = stirling2_row(n + 1)
    total = 0
    for m in range(n, -1, -1):
        total = chain[b + m] * row[m + 1] - (m + 1) * total
    return -total if n & 1 else total


def as_int(value: Fraction) -> int:
    """The int an integral Fraction (or int) equals; ArithmeticError otherwise.

    For B and U values that are integers but come back as Fractions:
    reading .numerator unchecked would turn a wrong rational into a
    plausible int.
    """
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integral value, got {value}")
    return value.numerator


def u_number(idx: Sequence[int], n: int) -> int:
    """U for upper index (-j_1, ..., -j_b); always an integer."""
    idx = as_multi_index(idx)
    return as_int(u_stirling_sum(tuple(-e for e in idx), n))


def u_via_shift(idx: Sequence[int], n: int) -> int:
    """U as the alternating binomial shift of the B values.

    Multiplying a generating function by e^{-m} turns coefficients B_s
    into sum_s C(n,s)(-1)^{n-s} B_s. B_0..B_n come from one read of the
    mu weights, by the same power sum as multi_poly_bernoulli; the
    row C(n,0..n) is dotted with them, and the terms with n - s even
    and odd are summed apart, by slices.
    """
    idx = as_multi_index(idx)
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = list(map(
        operator.mul, map(math.comb, repeat(n), range(n + 1)), _b_values(idx, 0, n)
    ))
    return sum(terms[n & 1::2]) - sum(terms[1 - (n & 1)::2])


def u_from_mu(idx: Sequence[int], n: int) -> int:
    """U from the mu weights directly: sum_s mu_s (s+b-1)^n.

    Shifting sum_s mu_s (s+b)^n by e^{-m} lowers every power base by
    one, so this is the B power sum of `_b_values` at base b - 1; the
    all-zero index gives (b-1)^n.
    """
    idx = as_multi_index(idx)
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _b_values(idx, n, n, len(idx) - 1)[0]


def corollary_convolution(j: int, b: int, n: int) -> int:
    """The convolution side of the split of the b-position index (j, 0, ..., 0).

    sum_s C(n,s) B^{(0^{b-1})}_s B^{(-j)}_{n-s}. The all-zero factor is
    (b-1)^s, one `power_sums` row with 0^0 = 1: at b = 1 that is the
    empty-index factor [s = 0]. The integral poly_bernoulli values add
    as ints, each taken by `as_int`, so a non-integral value raises
    ArithmeticError.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if j < 0 or n < 0:
        raise ValueError("j and n must be >= 0")
    zeros = power_sums((1,), (b - 1,), 0, n)
    b_j = list(map(as_int, map(poly_bernoulli, repeat(-j), range(n + 1))))
    return binomial_convolution(n, zeros, b_j)


def corollary_convolution_check(j: int, b: int, n: int) -> bool:
    """Does the b-position index (j, 0, ..., 0) split as a convolution?"""
    rhs = corollary_convolution(j, b, n)
    return multi_poly_bernoulli((j,) + (0,) * (b - 1), n) == rhs


def _reciprocal_row(r: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of the reciprocal of e^{rm}/(2-e^m).

    The reciprocal of 2 - e^m times e^{rm}, inverted: two
    `unit_reciprocal`s and an integer product.
    """
    one_free = unit_reciprocal((1,) + (-1,) * order)  # 1/(2 - e^m)
    exp_r = [int_pow(r, n) for n in range(order + 1)]  # e^{rm}
    return unit_reciprocal(tuple(
        binomial_convolution(n, exp_r, one_free) for n in range(order + 1)
    ))


# r -> the longest _reciprocal_row built for it
_reciprocal_rows = RowCache()
_reciprocal_row.cache_info = _reciprocal_rows.cache_info


def reciprocal_coefficient(r: int, n: int) -> int:
    """Coefficient n of the reciprocal of the r-restricted one-free series.

    The reciprocal of e^{rm}/(2-e^m) is (2-e^m)e^{-rm}; its n-th
    coefficient is (-1)^n W_r(n), which is how the W family shows up as
    reciprocal coefficients. Read from the longest row built for r.
    """
    r, n = operator.index(r), operator.index(n)
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    return _reciprocal_rows.row(r, n, _reciprocal_row, r)[n]


def clear_caches() -> None:
    """Empty every cache and row table this module keeps, as at import."""
    for cache in (_mu_table, poly_bernoulli, _z_power_rows,
                  _chain_rows, _reciprocal_rows):
        cache.cache_clear()
