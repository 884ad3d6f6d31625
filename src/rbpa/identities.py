"""Registry of every claimed identity, each wired to an executable
check that sets two computation routes against each other.

Each entry holds its two sides as callables, lhs(*binding) and
rhs(*binding), that take the binding's values positionally in domain
order; `lhs_method` and `rhs_method` name their routes in the coverage
table. An optional note(lhs, rhs, *binding) explains the result. A side
whose route makes the note's evidence (a tail certificate, vanished
inner sums, per-pair counts) returns it with its value as a
`Witnessed`, so no note computes a side twice. `run_identity` calls
`IdentitySpec.evaluate(*values)`, the sides and then the note, once per
check. The test suite runs each side alone and pins which entries'
sides reach a shared rbpa function. Convolution sides sum integer rows
by `combinat.binomial_convolution`; a row read again at the next
binding comes from one `RowCache` keyed by its route object, so a
patched or traced route builds its own rows.

A handful of entries run in diagnostic mode: their source statement is
known to hold only under a corrected reading, so a mismatch is flagged
and explained in the report note instead of failing the suite. Nothing
here repairs a statement silently; the note always says which reading
holds.

Each entry's default domain is data: a row of bounds per parameter,
read against the caps that `PROFILES` sets for the profile (see
`_Domain`). Reports and command-line tables serialize exact values
through the one `json_value` and the one `canonical_json`.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from functools import partial
from itertools import cycle, product
from typing import Callable, Optional, Sequence

from . import bernoulli, counts, oracle
from .combinat import RowCache, binomial, binomial_convolution, int_pow
from .counts import _certify_truncation, certified_round, p_egf, p_recurrence
from .record import FrozenRecord


class UnknownIdentityError(KeyError):
    """Identity id not present in the registry."""


class BindingError(ValueError):
    """A binding an identity cannot be checked at: a usage error, not a fault."""


PROFILES = {
    # ncap bounds n; icap bounds r, j and b; mcap bounds the length and the
    # entries of a multi-index; scap and ecap bound L1's base and exponent
    "quick": {"ncap": 8, "icap": 2, "mcap": 2, "scap": 20, "ecap": 8},
    "full": {"ncap": 15, "icap": 4, "mcap": 3, "scap": 50, "ecap": 20},
}


def json_value(value):
    """The JSON form of an exact value.

    An integral Fraction becomes its int and any other Fraction the text
    "num/den"; tuples and lists become lists and dicts keep their keys,
    both serialized entry by entry; ints, bools, str and None stay as
    they are. Text output (csv, bfile) is str() of this form.
    """
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (int, str)):
        return value
    raise TypeError(f"cannot serialize {value!r}")


def canonical_json(payload) -> str:
    """Byte-deterministic JSON text: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class CheckReport(FrozenRecord):
    _fields = ("identity", "params", "lhs", "rhs", "passed", "note")

    def __init__(
        self,
        identity: str,
        params: dict,
        lhs: object,
        rhs: object,
        passed: bool,
        note: Optional[str] = None,
    ) -> None:
        fields = self.__dict__
        fields["identity"] = identity
        fields["params"] = params
        fields["lhs"] = lhs
        fields["rhs"] = rhs
        fields["passed"] = passed
        fields["note"] = note

    def as_dict(self) -> dict:
        return {
            "id": self.identity,
            "params": json_value(self.params),
            "lhs": json_value(self.lhs),
            "rhs": json_value(self.rhs),
            "pass": self.passed,
            "note": self.note,
        }


class Witnessed(FrozenRecord):
    """A side's value with the evidence its route made for the note."""

    _fields = ("value", "evidence")

    def __init__(self, value: object, evidence: object) -> None:
        fields = self.__dict__
        fields["value"] = value
        fields["evidence"] = evidence


class IdentitySpec(FrozenRecord):
    _fields = ("ident", "anchor", "lhs_method", "rhs_method", "domain",
               "lhs", "rhs", "note", "diagnostic", "constraint")

    def __init__(
        self,
        ident: str,
        anchor: str,  # the mathematical statement being checked
        lhs_method: str,
        rhs_method: str,
        domain: Callable[[str], dict],
        lhs: Callable[..., object],  # binding values in domain order -> left side
        rhs: Callable[..., object],  # binding values in domain order -> right side
        note: Optional[Callable[..., Optional[str]]] = None,  # (lhs, rhs, *binding)
        diagnostic: bool = False,
        constraint: Optional[Callable[..., bool]] = None,
    ) -> None:
        fields = self.__dict__
        fields["ident"] = ident
        fields["anchor"] = anchor
        fields["lhs_method"] = lhs_method
        fields["rhs_method"] = rhs_method
        fields["domain"] = domain
        fields["lhs"] = lhs
        fields["rhs"] = rhs
        fields["note"] = note
        fields["diagnostic"] = diagnostic
        fields["constraint"] = constraint

    def evaluate(self, *binding) -> tuple:
        """(lhs, rhs, note) at one binding's values: each side once, then the note.

        The note reads each side as it returned, a `Witnessed` included;
        the report gets the values.
        """
        lhs = self.lhs(*binding)
        rhs = self.rhs(*binding)
        if self.note is None:
            return lhs, rhs, None
        note = self.note(lhs, rhs, *binding)
        if type(lhs) is Witnessed:
            lhs = lhs.value
        if type(rhs) is Witnessed:
            rhs = rhs.value
        return lhs, rhs, note


class Registry:
    def __init__(self) -> None:
        self._specs: dict[str, IdentitySpec] = {}

    def register(self, spec: IdentitySpec) -> None:
        if spec.ident in self._specs:
            raise ValueError(f"duplicate identity id {spec.ident}")
        if spec.lhs_method == spec.rhs_method:
            raise ValueError(
                f"{spec.ident}: both sides declare the same method "
                f"{spec.lhs_method!r}"
            )
        self._specs[spec.ident] = spec

    def get(self, ident: str) -> IdentitySpec:
        try:
            return self._specs[ident]
        except KeyError:
            raise UnknownIdentityError(ident) from None

    def ids(self) -> list[str]:
        return sorted(self._specs)

    def coverage_table(self) -> list[dict]:
        return [
            {
                "id": spec.ident,
                "anchor": spec.anchor,
                "lhs": spec.lhs_method,
                "rhs": spec.rhs_method,
                "diagnostic": spec.diagnostic,
            }
            for spec in (self._specs[i] for i in self.ids())
        ]


# domains


class _Domain:
    """The profile -> {param: values} callable that a row of bounds declares.

    Each bound is a cap name of `PROFILES` or a fixed number. A range
    (low, cap, offset) runs from low to cap + offset, or holds only
    cap + offset when low is None. A multi-index (max length, max entry)
    lists every index of length 1..max length with entries
    0..max entry. Parameters keep the row's order. `lows` holds each
    range's low, the least value an override may bind.
    """

    def __init__(self, row: dict) -> None:
        self.row = row
        self.lows = {
            name: bounds[0] for name, bounds in row.items()
            if len(bounds) == 3 and bounds[0] is not None
        }

    def __call__(self, profile: str) -> dict:
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        caps = PROFILES[profile]

        def cap(bound) -> int:
            return caps[bound] if isinstance(bound, str) else bound

        values = {}
        for name, bounds in self.row.items():
            if len(bounds) == 2:
                length, entry = map(cap, bounds)
                values[name] = [
                    idx for b in range(1, length + 1)
                    for idx in product(range(entry + 1), repeat=b)
                ]
            else:
                low, top, offset = bounds
                top = cap(top) + offset
                values[name] = list(range(top if low is None else low, top + 1))
        return values


def _two_pads(b: int) -> tuple:
    return (2,) + (0,) * b


# helpers for the sides and notes below. A side takes its binding's
# values positionally, one parameter per domain key, and looks each
# route up when it runs, never storing the function, so a patched or
# traced route is the one that runs; `_row` keys its rows by the route


def _cycle_window(n_max: int):
    # like last_digit_cycle_check: nine consecutive values from n = 1, so
    # the window is never empty and every residue mod 4 is compared
    if n_max < 9:
        raise BindingError(
            f"n_max must be >= 9 so every residue mod 4 is compared, got {n_max}"
        )
    return range(1, n_max - 3)


def _digits(window: range, value, ahead: int = 0) -> tuple:
    """Last digits of value(n + ahead) for n in the window."""
    return tuple(value(n + ahead) % 10 for n in window)


def _cycle_note(lhs, rhs, *binding) -> str:  # n_max comes last
    return f"digits at n and n+4 compared for n = 1..{binding[-1] - 4}"


# (sign, route, *args) -> the longest row of sign^m route(*args, m) built
_rows = RowCache()


def _row(n: int, sign: int, route, *args) -> tuple:
    """sign^m route(*args, m) for m = 0..n and on, each taken by `as_int`."""
    return _rows.row((sign, route, *args), n, _build_row, sign, route, args)


def _build_row(sign: int, route, args: tuple, order: int) -> tuple:
    values = (bernoulli.as_int(route(*args, m)) for m in range(order + 1))
    return tuple(map(operator.mul, cycle((1, sign)), values))


def clear_caches() -> None:
    """Empty the row table the sides read, as at import."""
    _rows.cache_clear()


def _alternating_conv(n: int, values, r: int) -> int:
    """sum_{s=1}^{n} C(n,s) (-1)^{s+1} values[s] p^r_1(n-s)."""
    # (-1)^{s+1} = (-1)^{n+1} (-1)^{n-s}: a signed p row, and a sign outside
    total = binomial_convolution(n, values, _row(n, -1, p_recurrence, r, 1), start=1)
    return total if n & 1 else -total


def _power_double_sum(r: int, n: int) -> Witnessed:
    # the value, with the inner sums for k = n+1..n+3, which must vanish
    powers = [int_pow(m + r, n) for m in range(n + 4)]  # (m+r)^n, m = k - s

    def inner(k: int) -> int:
        return sum(
            binomial(k, s) * (-1) ** s * powers[k - s] for s in range(k + 1)
        )

    total = sum(inner(k) for k in range(n + 1))
    return Witnessed(total, [inner(k) for k in (n + 1, n + 2, n + 3)])


def _weighted_powers(r: int, n: int) -> Witnessed:
    # p^r_1(n) = sum_{s>=0} (s+r)^n / 2^{s+1}: SER_L7 at r = 0, and at
    # r = 2 SER_L8's 2 sum_{s>=2} s^n / 2^s, reindexed from s = 2
    cert = _certify_truncation(r, 1, n)
    return Witnessed(certified_round(lambda s: int_pow(s + r, n), cert), cert)


def _truncation_note(lhs, rhs, *_) -> str:
    cert = rhs.evidence
    return f"truncated at S = {cert.truncation_index}, tail < {cert.tail_bound}"


def _incl_excl_note(lhs, rhs, r, j, n) -> str:
    if r == 1:
        return "single-term case, the claim holds"
    note = (
        "alternating sum counts structures where AT LEAST ONE of the "
        "r marked free sections has at most one block; the left side "
        "counts ALL marked sections restricted; equal only for r = 1"
    )
    if n <= 5 and j <= 3:
        union = oracle.count_some_section_at_most_one_block(n, j, r)
        note += f"; brute-forced union = {union}, matches sum: {union == rhs}"
    return note


def _recurrence_step(r: int, j: int, n: int) -> int:
    row = p_egf(r, j, n).values
    return p_egf(r, j - 1, n)[n] + sum(binomial(n, s) * row[s] for s in range(n))


def _section_pair_counts(b: int, n: int) -> Witnessed:
    # the first pair's count, with every pair's
    bars = 3 + b
    per_pair = [
        oracle.enumerate_rbpa_with_empty(n, bars, i, jj)
        for i in range(bars + 1) for jj in range(i + 1, bars + 1)
    ]
    return Witnessed(per_pair[0], per_pair)


def _interp_note(lhs, rhs, b, n) -> str:
    per_pair = lhs.evidence
    w_here = bernoulli.w_family(3 + b, n)
    w_up = bernoulli.w_family(4 + b, n)
    return (
        f"all {len(per_pair)} section pairs agree: {len(set(per_pair)) == 1}; "
        f"count equals 2(3+b)^n-(2+b)^n = {w_here}; a 2(4+b)^n-(3+b)^n "
        f"reading (= {w_up}) would need 4+b bars, one more than stated"
    )


def _urel_note(lhs, rhs, b, n) -> str:
    return (
        f"left side follows the shift convention and equals "
        f"2(2+b)^n-(1+b)^n: {lhs == bernoulli.w_family(2 + b, n)}; the "
        f"claimed right side equals 2(4+b)^n-(3+b)^n: "
        f"{rhs == bernoulli.w_family(4 + b, n)}; the readings only meet at n = 0"
    )


def _eq13_note(lhs, rhs, b, n) -> str:
    padded_u = _alternating_conv(n, bernoulli._b_values(_two_pads(b + 1), 0, n), 4 + b)
    return (
        f"with the shift-convention U the sum gives {rhs}; reading U_s "
        f"as the (b+1)-padded B value gives {padded_u}, matching: "
        f"{lhs == padded_u}"
    )


def _build_registry(specs: Sequence[IdentitySpec]) -> Registry:
    reg = Registry()
    for spec in specs:
        reg.register(spec)
    return reg


_CYCLE = (None, "ncap", 4)  # n_max: the one window ncap + 4

REGISTRY = _build_registry((
    IdentitySpec(
        "T3",
        "p^r_j(n) = sum_{s=0}^{n} C(n,s) r^s p^0_j(n-s)",
        "counts.p_recurrence",
        "counts.p_binomial_shift",
        _Domain({"r": (0, "icap", 0), "j": (0, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda r, j, n: p_recurrence(r, j, n),
        rhs=lambda r, j, n: counts.p_binomial_shift(r, j, n),
    ),
    IdentitySpec(
        "L1",
        "s^{n+4} == s^n (mod 10) for n >= 1",
        "builtins.pow with modulus 10",
        "combinat.int_pow reduced mod 10",
        _Domain({"s": (0, "scap", 0), "n": (1, "ecap", 0)}),
        lhs=lambda s, n: pow(s, n + 4, 10),
        rhs=lambda s, n: int_pow(s, n) % 10,
    ),
    IdentitySpec(
        "CYCLE_P",
        "last digit of p^r_j(n) repeats with period 4 from n = 1",
        "counts.p_egf digits",
        "counts.p_recurrence digits four steps on",
        _Domain({"r": (0, "icap", 0), "j": (0, "icap", 0), "n_max": _CYCLE}),
        lhs=lambda r, j, n_max: _digits(
            _cycle_window(n_max), p_egf(r, j, n_max).values.__getitem__),
        rhs=lambda r, j, n_max: _digits(
            _cycle_window(n_max), partial(p_recurrence, r, j), 4),
        note=_cycle_note,
        constraint=lambda r, j, n_max: r + j >= 1,
    ),
    IdentitySpec(
        "DSUM_L",
        "p^r_1(n) = sum_k sum_{s<=k} C(k,s)(-1)^s (k-s+r)^n",
        "counts.p_egf",
        "literal alternating power double sum",
        _Domain({"r": (0, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda r, n: p_egf(r, 1, n)[n],
        rhs=_power_double_sum,
        note=lambda lhs, rhs, *_: (
            "outer sum cut at k = n; inner sums beyond vanish: "
            f"{rhs.evidence == [0, 0, 0]}"),
    ),
    IdentitySpec(
        "DSUM_T",
        "p^r_j(n) = sum_k sum_{s<=k} C(k,s)(-1)^s p^{r+k-s}_{j-1}(n)",
        "counts.p_egf",
        "counts.p_double_sum",
        _Domain({"r": (0, "icap", 0), "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda r, j, n: p_egf(r, j, n)[n],
        rhs=lambda r, j, n: counts.p_double_sum(r, j, n),
        note=lambda lhs, rhs, *_: (
            "outer sum cut at k = n; k = n+1..n+3 rechecked to vanish"),
    ),
    IdentitySpec(
        "INCL_EXCL",
        "claim: p^r_{j-r}(n) = sum_{s=1}^{r} C(r,s)(-1)^{s+1} p^s_{j-s}(n)",
        "counts.p_egf at the all-marked-restricted family",
        "counts.p_inclusion_exclusion",
        _Domain({"r": (1, "icap", 0), "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda r, j, n: p_egf(r, j - r, n)[n],
        rhs=lambda r, j, n: counts.p_inclusion_exclusion(r, j, n),
        note=_incl_excl_note,
        diagnostic=True,
        constraint=lambda r, j, n: r <= j,
    ),
    IdentitySpec(
        "SER_L7",
        "p^0_1(n) = sum_{s>=0} s^n / 2^{s+1}",
        "counts.p_egf",
        "literal certified series of weighted powers",
        _Domain({"n": (0, "ncap", 0)}),
        lhs=lambda n: p_egf(0, 1, n)[n],
        rhs=lambda n: _weighted_powers(0, n),
        note=_truncation_note,
    ),
    IdentitySpec(
        "SER_L8",
        "p^2_1(n) = 2 sum_{s>=2} s^n / 2^s",
        "counts.p_egf",
        "literal certified series of weighted powers, reindexed",
        _Domain({"n": (0, "ncap", 0)}),
        lhs=lambda n: p_egf(2, 1, n)[n],
        rhs=lambda n: _weighted_powers(2, n),
        note=_truncation_note,
    ),
    IdentitySpec(
        "SER_T",
        "p^r_j(n) = (1/2) sum_{s>=0} p^{r+s}_{j-1}(n) / 2^s",
        "counts.p_egf",
        "counts.p_series_certified",
        _Domain({"r": (0, "icap", 0), "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda r, j, n: p_egf(r, j, n)[n],
        rhs=lambda r, j, n: Witnessed(*counts.p_series_certified(r, j, n)),
        note=_truncation_note,
    ),
    IdentitySpec(
        "REC_L10",
        "p^0_1(n) = sum_{s=1}^{n-1} C(n,s) p^0_1(n-s) + 1 for n >= 1",
        "counts.p_egf",
        "binomial sum over counts.p_recurrence values plus one",
        _Domain({"n": (1, "ncap", 0)}),
        lhs=lambda n: p_egf(0, 1, n)[n],
        rhs=lambda n: sum(
            binomial(n, s) * p_recurrence(0, 1, n - s) for s in range(1, n)
        ) + 1,
    ),
    IdentitySpec(
        "REC_L11",
        "p^2_1(n+1) = sum_{s=0}^{n} C(n+1,s) p^2_1(s) + 2^{n+1}",
        "counts.p_egf",
        "binomial sum over counts.p_recurrence values plus a power of two",
        _Domain({"n": (0, "ncap", 0)}),
        lhs=lambda n: p_egf(2, 1, n + 1)[n + 1],
        rhs=lambda n: sum(
            binomial(n + 1, s) * p_recurrence(2, 1, s) for s in range(n + 1)
        ) + 2 ** (n + 1),
        note=lambda lhs, rhs, *_: (
            "holds as stated at every checked point" if lhs == rhs else None),
        diagnostic=True,
    ),
    IdentitySpec(
        "REC_T",
        "p^r_j(n) = p^r_{j-1}(n) + sum_{s<n} C(n,s) p^r_j(s) for j, n >= 1",
        "counts.p_recurrence",
        "one recurrence step assembled from counts.p_egf values",
        _Domain({"r": (0, "icap", 0), "j": (1, "icap", 0), "n": (1, "ncap", 0)}),
        lhs=lambda r, j, n: p_recurrence(r, j, n),
        rhs=_recurrence_step,
    ),
    IdentitySpec(
        "EQ5",
        "p^{r-3}_{j-1}(n) = sum_s C(n,s)(-1)^s B^{-2}_s p^r_j(n-s), r >= 3",
        "counts.p_egf at the shifted family",
        "bernoulli.poly_bernoulli convolution over counts.p_egf",
        _Domain({"r": (3, "icap", 3), "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda r, j, n: p_egf(r - 3, j - 1, n)[n],
        rhs=lambda r, j, n: binomial_convolution(  # (-1)^s B^{-2}_s as a row
            n, _row(n, -1, bernoulli.poly_bernoulli, -2), p_egf(r, j, n).values),
    ),
    IdentitySpec(
        "EQ6",
        "p^3_1(n) = sum_{s=1}^{n} C(n,s)(-1)^{s+1} B^{-2}_s p^3_1(n-s)",
        "counts.p_egf",
        "reciprocal-coefficient convolution over counts.p_recurrence",
        _Domain({"n": (1, "ncap", 0)}),
        lhs=lambda n: p_egf(3, 1, n)[n],
        # (-1)^{s+1} B^{-2}_s = -c_s, as B^{-2}_s = (-1)^s c_s, c_s the coefficient
        rhs=lambda n: -binomial_convolution(
            n, _row(n, 1, bernoulli.reciprocal_coefficient, 3),
            _row(n, 1, p_recurrence, 3, 1), start=1),
        note=lambda lhs, rhs, *_: (
            "B values read off the reciprocal series coefficients"),
    ),
    IdentitySpec(
        "EQ8",
        "p^{3+b}_1(n) = sum_{s=1}^{n} C(n,s)(-1)^{s+1} B^{(-2,0^b)}_s p^{3+b}_1(n-s)",
        "counts.p_egf",
        "bernoulli.multi_poly_bernoulli convolution over counts.p_recurrence",
        _Domain({"b": (0, "icap", 0), "n": (1, "ncap", 0)}),
        lhs=lambda b, n: p_egf(3 + b, 1, n)[n],
        rhs=lambda b, n: _alternating_conv(  # B^{(-2,0^b)}_0..n as one row
            n, bernoulli._b_values(_two_pads(b), 0, n), 3 + b),
    ),
    IdentitySpec(
        "EQ8_REARRANGED",
        "claim: B^{(-2,0^b)}_n = sum_{s=1}^{n} C(n,s) p^{3+b}_1(s)(-1)^{n-s+1} B^{(-2,0^b)}_{n-s}",
        "bernoulli.multi_poly_bernoulli",
        "printed-sign convolution of counts.p_egf with bernoulli.w_family",
        _Domain({"b": (0, "icap", 0), "n": (1, "ncap", 0)}),
        lhs=lambda b, n: bernoulli.multi_poly_bernoulli(_two_pads(b), n),
        # (-1)^(m+1) W(m) is minus the signed W row EQ9 reads
        rhs=lambda b, n: -binomial_convolution(
            n, p_egf(3 + b, 1, n).values, _row(n, -1, bernoulli.w_family, 3 + b),
            start=1),
        # in every term the corrected sign (-1)^(s+1) is (-1)^n times the
        # printed (-1)^(n-s+1), so the corrected sum is (-1)^n rhs
        note=lambda lhs, rhs, b, n: (
            f"printed sign (-1)^(n-s+1) agrees only for even n; with "
            f"(-1)^(s+1) the identity holds: {lhs == (-rhs if n & 1 else rhs)}"),
        diagnostic=True,
    ),
    IdentitySpec(
        "EQ9",
        "p^{r-(3+b)}_{j-1}(n) = sum_s C(n,s) p^r_j(s)(-1)^{n-s} B^{(-2,0^b)}_{n-s}, r >= 3+b",
        "counts.p_recurrence at the shifted family",
        "w_family convolution over counts.p_egf",
        _Domain({"b": (0, "icap", 0), "r": (3, "icap", 3),
                 "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda b, r, j, n: p_recurrence(r - (3 + b), j - 1, n),
        rhs=lambda b, r, j, n: binomial_convolution(
            n, p_egf(r, j, n).values, _row(n, -1, bernoulli.w_family, 3 + b)),
        constraint=lambda b, r, j, n: r >= 3 + b,
    ),
    IdentitySpec(
        "COR",
        "B^{(-j,0^{b-1})}_n = sum_s C(n,s) B^{(0^{b-1})}_s B^{-j}_{n-s}",
        "bernoulli.multi_poly_bernoulli (mu route)",
        "binomial convolution of bernoulli.poly_bernoulli with the all-zero family",
        _Domain({"j": (0, "icap", 0), "b": (1, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda j, b, n: bernoulli.multi_poly_bernoulli((j,) + (0,) * (b - 1), n),
        rhs=lambda j, b, n: bernoulli.corollary_convolution(j, b, n),
    ),
    IdentitySpec(
        "CYCLE_B2",
        "last digit of B^{(-2,0^b)}_n repeats with period 4 from n = 1",
        "bernoulli.multi_poly_bernoulli digits",
        "bernoulli.w_family digits four steps on",
        _Domain({"b": (0, "icap", 0), "n_max": _CYCLE}),
        lhs=lambda b, n_max: _digits(
            _cycle_window(n_max),
            partial(bernoulli.multi_poly_bernoulli, _two_pads(b))),
        rhs=lambda b, n_max: _digits(
            _cycle_window(n_max), partial(bernoulli.w_family, 3 + b), 4),
        note=_cycle_note,
    ),
    IdentitySpec(
        "CYCLE_BMULTI",
        "last digit of B at any non-positive multi-index repeats with period 4 from n = 1",
        "bernoulli.multi_poly_bernoulli digits",
        "bernoulli.multi_poly_bernoulli_li_sequence digits four steps on",
        _Domain({"idx": ("mcap", "mcap"), "n_max": _CYCLE}),
        lhs=lambda idx, n_max: _digits(
            _cycle_window(n_max), partial(bernoulli.multi_poly_bernoulli, idx)),
        rhs=lambda idx, n_max: _digits(
            _cycle_window(n_max),
            bernoulli.multi_poly_bernoulli_li_sequence(idx, n_max).__getitem__, 4),
        note=_cycle_note,
    ),
    IdentitySpec(
        "CYCLE_U",
        "last digit of U at any non-positive multi-index repeats with period 4 from n = 1",
        "bernoulli.u_number digits (finite Stirling sum)",
        "bernoulli.u_from_mu digits four steps on",
        _Domain({"idx": ("mcap", "mcap"), "n_max": _CYCLE}),
        lhs=lambda idx, n_max: _digits(
            _cycle_window(n_max), partial(bernoulli.u_number, idx)),
        rhs=lambda idx, n_max: _digits(
            _cycle_window(n_max), partial(bernoulli.u_from_mu, idx), 4),
        note=_cycle_note,
    ),
    IdentitySpec(
        "INTERP",
        "with 3+b bars, all sections restricted, the arrangements with section i or jj empty number B^{(-2,0^b)}_n",
        "oracle.enumerate_rbpa_with_empty",
        "bernoulli.multi_poly_bernoulli (mu route)",
        _Domain({"b": (0, 2, 0), "n": (0, 6, 0)}),
        lhs=_section_pair_counts,
        rhs=lambda b, n: bernoulli.multi_poly_bernoulli(_two_pads(b), n),
        note=_interp_note,
    ),
    IdentitySpec(
        "T3B",
        "U^{(k_1..k_b)}_n = (-1)^{n+1} sum_{t=b}^{n+b} chain(t) (-1)^{t-b+1}(t-b)! {n+1 brace t-b+1}",
        "bernoulli.u_stirling_sum",
        "bernoulli.u_via_shift",
        _Domain({"idx": (2, "mcap"), "n": (0, "ncap", 0)}),
        lhs=lambda idx, n: bernoulli.as_int(
            bernoulli.u_stirling_sum(tuple(-e for e in idx), n)),
        rhs=lambda idx, n: bernoulli.u_via_shift(idx, n),
    ),
    IdentitySpec(
        "UREL",
        "claim: U^{(-2,0^b)}_n = B^{(-2,0^{b+1})}_n",
        "bernoulli.u_number",
        "bernoulli.multi_poly_bernoulli at the once-padded index",
        _Domain({"b": (0, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda b, n: bernoulli.u_number(_two_pads(b), n),
        rhs=lambda b, n: bernoulli.multi_poly_bernoulli(_two_pads(b + 1), n),
        note=_urel_note,
        diagnostic=True,
    ),
    IdentitySpec(
        "EQ13",
        "claim: p^{4+b}_1(n) = sum_{s=1}^{n} C(n,s)(-1)^{s+1} U^{(-2,0^b)}_s p^{4+b}_1(n-s)",
        "counts.p_egf",
        "U convolution over counts.p_recurrence, both U readings",
        _Domain({"b": (0, "icap", 0), "n": (1, "ncap", 0)}),
        lhs=lambda b, n: p_egf(4 + b, 1, n)[n],
        rhs=lambda b, n: _alternating_conv(  # shift-convention U_0..n as one row
            n, _row(n, 1, bernoulli.u_stirling_sum, (-2,) + (0,) * b), 4 + b),
        note=_eq13_note,
        diagnostic=True,
    ),
    IdentitySpec(
        "EQ11B_SIGN",
        "claim: sum_n B^{(-2,0^b)}_n m^n/n! = (2-e^m) e^{-(3+b)m}",
        "bernoulli.multi_poly_bernoulli",
        "coefficient of the stated product series",
        _Domain({"b": (0, "icap", 0), "n": (0, "ncap", 0)}),
        lhs=lambda b, n: bernoulli.multi_poly_bernoulli(_two_pads(b), n),
        # coefficient n of (2 - e^m) e^{-(3+b)m}, a product of two EGFs
        rhs=lambda b, n: binomial_convolution(
            n, (1,) + (-1,) * n, _row(n, 1, int_pow, -(3 + b))),
        note=lambda lhs, rhs, b, n: (
            f"stated series carries coefficients (-1)^n times the values; "
            f"absolute values agree: {abs(rhs) == lhs}"),
        diagnostic=True,
    ),
))


def bindings(
    ident: str,
    overrides: Optional[dict] = None,
    profile: str = "full",
) -> list[dict]:
    """The bindings run_identity checks, in lexicographic order.

    overrides replaces whole domain lists, e.g. {"n": [0, 1, 2]}; a bare
    value is treated as a one-element list, and a multi-index list takes
    only tuples. A value below its range's low, or a domain that leaves
    no binding to check, is a BindingError (a ValueError), never an
    empty (passing) report.
    """
    spec = REGISTRY.get(ident)
    domain = dict(spec.domain(profile))
    lows = getattr(spec.domain, "lows", {})
    for key, value in (overrides or {}).items():
        if key not in domain:
            raise BindingError(
                f"{ident} has no parameter {key!r}; knows {sorted(domain)}"
            )
        multi = isinstance(domain[key][0], tuple)
        if isinstance(value, (list, tuple, range)):
            domain[key] = list(value)
        else:
            domain[key] = [value]
        if multi and not all(isinstance(v, tuple) for v in domain[key]):
            raise BindingError(f"{ident}: {key} takes multi-indices, not {value!r}")
        if key in lows and any(v < lows[key] for v in domain[key]):
            raise BindingError(
                f"{ident}: {key} takes values from {lows[key]}, "
                f"got {min(domain[key])}"
            )
    names = list(domain)
    found = [
        dict(zip(names, combo)) for combo in product(*domain.values())
        if spec.constraint is None or spec.constraint(*combo)
    ]
    if not found:
        raise BindingError(
            f"{ident}: no binding to check; the domain is empty or the "
            f"constraint rejects every binding"
        )
    return found


def run_identity(
    ident: str,
    overrides: Optional[dict] = None,
    profile: str = "full",
) -> list[CheckReport]:
    """All checks for one identity, one per binding of `bindings`."""
    spec = REGISTRY.get(ident)
    reports = []
    for binding in bindings(ident, overrides, profile):
        lhs, rhs, note = spec.evaluate(*binding.values())
        reports.append(CheckReport(ident, binding, lhs, rhs, lhs == rhs, note))
    return reports


class Summary(FrozenRecord):
    _fields = ("profile", "identities", "checks", "passed", "failed",
               "flagged", "failures", "diagnostics")

    def __init__(
        self,
        profile: str,
        identities: int,
        checks: int,
        passed: int,
        failed: int,
        flagged: int,
        failures: tuple,
        diagnostics: tuple,
    ) -> None:
        fields = self.__dict__
        fields["profile"] = profile
        fields["identities"] = identities
        fields["checks"] = checks
        fields["passed"] = passed
        fields["failed"] = failed
        fields["flagged"] = flagged
        fields["failures"] = failures
        fields["diagnostics"] = diagnostics

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def as_dict(self) -> dict:
        return {
            "profile": self.profile,
            "identities": self.identities,
            "checks": self.checks,
            "passed": self.passed,
            "failed": self.failed,
            "flagged": self.flagged,
            "failures": [r.as_dict() for r in self.failures],
            "diagnostics": [r.as_dict() for r in self.diagnostics],
        }

    def to_json(self) -> str:
        return canonical_json(self.as_dict())


def run_all(profile: str = "quick") -> Summary:
    """Every registered identity on its default domain for the profile."""
    failures = []
    diagnostics = []
    checks = passed = 0
    for ident in REGISTRY.ids():
        spec = REGISTRY.get(ident)
        for report in run_identity(ident, profile=profile):
            checks += 1
            if report.passed:
                passed += 1
            elif spec.diagnostic:
                diagnostics.append(report)
            else:
                failures.append(report)
    return Summary(
        profile=profile,
        identities=len(REGISTRY.ids()),
        checks=checks,
        passed=passed,
        failed=len(failures),
        flagged=len(diagnostics),
        failures=tuple(failures),
        diagnostics=tuple(diagnostics),
    )


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    return canonical_json([r.as_dict() for r in reports])
