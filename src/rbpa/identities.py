"""Registry of every claimed identity, each wired to an executable
check with declared, distinct computation routes for its two sides.

A handful of entries run in diagnostic mode: their source statement is
known to hold only under a corrected reading, so a mismatch is flagged
and explained in the report note instead of failing the suite. Nothing
here repairs a statement silently; the note always says which reading
holds.

Each entry's default domain is data: a row of bounds per parameter,
read against the caps that `PROFILES` sets for the profile (see
`_domain`). Reports and command-line tables serialize exact values
through the one `json_value` and the one `canonical_json`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Optional, Sequence

from . import bernoulli, counts, oracle
from .combinat import binomial, binomial_convolution, int_pow
from .counts import _certify_truncation, certified_round, p_egf, p_recurrence
from .egf import exp_series
from .record import FrozenRecord


class UnknownIdentityError(KeyError):
    """Identity id not present in the registry."""


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


class IdentitySpec(FrozenRecord):
    _fields = ("ident", "anchor", "lhs_method", "rhs_method", "domain",
               "evaluate", "diagnostic", "constraint")

    def __init__(
        self,
        ident: str,
        anchor: str,  # the mathematical statement being checked
        lhs_method: str,
        rhs_method: str,
        domain: Callable[[str], dict],
        evaluate: Callable[..., tuple],  # binding by keyword -> (lhs, rhs, note)
        diagnostic: bool = False,
        constraint: Optional[Callable[..., bool]] = None,
    ) -> None:
        fields = self.__dict__
        fields["ident"] = ident
        fields["anchor"] = anchor
        fields["lhs_method"] = lhs_method
        fields["rhs_method"] = rhs_method
        fields["domain"] = domain
        fields["evaluate"] = evaluate
        fields["diagnostic"] = diagnostic
        fields["constraint"] = constraint


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


def _domain(row: dict) -> Callable[[str], dict]:
    """The profile -> {param: values} callable that a row of bounds declares.

    Each bound is a cap name of `PROFILES` or a fixed number. A range
    (low, cap, offset) runs from low to cap + offset, or holds only
    cap + offset when low is None. A multi-index (max length, max entry)
    lists every index of length 1..max length with entries
    0..max entry. Parameters keep the row's order.
    """

    def domain(profile: str) -> dict:
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        caps = PROFILES[profile]

        def cap(bound) -> int:
            return caps[bound] if isinstance(bound, str) else bound

        values = {}
        for name, bounds in row.items():
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

    return domain


def _two_pads(b: int) -> tuple:
    return (2,) + (0,) * b


# evaluators; each takes its binding by keyword, one parameter per
# domain key, and returns (lhs, rhs, note)


def _eval_t3(r, j, n):
    return p_recurrence(r, j, n), counts.p_binomial_shift(r, j, n), None


def _eval_l1(s, n):
    return pow(s, n + 4, 10), int_pow(s, n) % 10, None


def _cycle_window(n_max: int):
    # like last_digit_cycle_check: nine consecutive values from n = 1, so
    # the window is never empty and every residue mod 4 is compared
    if n_max < 9:
        raise ValueError(
            f"n_max must be >= 9 so every residue mod 4 is compared, got {n_max}"
        )
    return range(1, n_max - 3)


def _digit_cycle(window: range, here, ahead):
    """Last digits of here(n) and of ahead(n + 4) for n in the window."""
    lhs = tuple(here(n) % 10 for n in window)
    rhs = tuple(ahead(n + 4) % 10 for n in window)
    return lhs, rhs, f"digits at n and n+4 compared for n = 1..{window[-1]}"


def _eval_cycle_p(r, j, n_max):
    row = p_egf(r, j, n_max).values
    return _digit_cycle(
        _cycle_window(n_max), row.__getitem__, partial(p_recurrence, r, j)
    )


def _eval_dsum_l(r, n):
    lhs = p_egf(r, 1, n)[n]

    def inner(k: int) -> int:
        return sum(
            binomial(k, s) * (-1) ** s * int_pow(k - s + r, n)
            for s in range(k + 1)
        )

    rhs = sum(inner(k) for k in range(n + 1))
    leftovers = [inner(k) for k in (n + 1, n + 2, n + 3)]
    note = f"outer sum cut at k = n; inner sums beyond vanish: {leftovers == [0, 0, 0]}"
    return lhs, rhs, note


def _eval_dsum_t(r, j, n):
    lhs = p_egf(r, j, n)[n]
    rhs = counts.p_double_sum(r, j, n)
    return lhs, rhs, "outer sum cut at k = n; k = n+1..n+3 rechecked to vanish"


def _eval_incl_excl(r, j, n):
    lhs = p_egf(r, j - r, n)[n]
    rhs = counts.p_inclusion_exclusion(r, j, n)
    if r == 1:
        note = "single-term case, the claim holds"
    else:
        note = (
            "alternating sum counts structures where AT LEAST ONE of the "
            "r marked free sections has at most one block; the left side "
            "counts ALL marked sections restricted; equal only for r = 1"
        )
        if n <= 5 and j <= 3:
            union = oracle.count_some_section_at_most_one_block(n, j, r)
            note += f"; brute-forced union = {union}, matches sum: {union == rhs}"
    return lhs, rhs, note


def _truncation_note(cert) -> str:
    return f"truncated at S = {cert.truncation_index}, tail < {cert.tail_bound}"


def _eval_ser_powers(r, n):
    # p^r_1(n) = sum_{s>=0} (s+r)^n / 2^{s+1}: SER_L7 at r = 0, and at
    # r = 2 SER_L8's 2 sum_{s>=2} s^n / 2^s, reindexed from s = 2
    lhs = p_egf(r, 1, n)[n]
    cert = _certify_truncation(r, 1, n)
    rhs = certified_round(lambda s: int_pow(s + r, n), cert)
    return lhs, rhs, _truncation_note(cert)


def _eval_ser_t(r, j, n):
    lhs = p_egf(r, j, n)[n]
    value, cert = counts.p_series_certified(r, j, n)
    return lhs, value, _truncation_note(cert)


def _eval_rec_l10(n):
    lhs = p_egf(0, 1, n)[n]
    rhs = sum(binomial(n, s) * p_recurrence(0, 1, n - s) for s in range(1, n)) + 1
    return lhs, rhs, None


def _eval_rec_l11(n):
    lhs = p_egf(2, 1, n + 1)[n + 1]
    rhs = sum(
        binomial(n + 1, s) * p_recurrence(2, 1, s) for s in range(n + 1)
    ) + 2 ** (n + 1)
    note = "holds as stated at every checked point" if lhs == rhs else None
    return lhs, rhs, note


def _eval_rec_t(r, j, n):
    lhs = p_recurrence(r, j, n)
    row = p_egf(r, j, n).values
    rhs = p_egf(r, j - 1, n)[n] + sum(
        binomial(n, s) * row[s] for s in range(n)
    )
    return lhs, rhs, None


def _eval_eq5(r, j, n):
    lhs = p_egf(r - 3, j - 1, n)[n]
    row = p_egf(r, j, n).values

    def signed_b(s: int) -> int:  # (-1)^s B^{-2}_s
        b_s = bernoulli.as_int(bernoulli.poly_bernoulli(-2, s))
        return -b_s if s & 1 else b_s

    return lhs, binomial_convolution(n, signed_b, row.__getitem__), None


def _eval_eq6(n):
    lhs = p_egf(3, 1, n)[n]
    # (-1)^{s+1} B^{-2}_s = -c_s, as B^{-2}_s = (-1)^s c_s, c_s the coefficient
    rhs = binomial_convolution(
        n,
        lambda s: -bernoulli.reciprocal_coefficient(3, s),
        partial(p_recurrence, 3, 1),
        start=1,
    )
    return lhs, rhs, "B values read off the reciprocal series coefficients"


def _eval_eq8(b, n):
    lhs = p_egf(3 + b, 1, n)[n]
    pads = _two_pads(b)
    rhs = binomial_convolution(
        n,
        lambda s: (-1) ** (s + 1) * bernoulli.multi_poly_bernoulli(pads, s),
        partial(p_recurrence, 3 + b, 1),
        start=1,
    )
    return lhs, rhs, None


def _eval_eq8_rearranged(b, n):
    lhs = bernoulli.multi_poly_bernoulli(_two_pads(b), n)
    row = p_egf(3 + b, 1, n).values
    w = partial(bernoulli.w_family, 3 + b)
    printed = binomial_convolution(
        n, row.__getitem__, lambda m: (-1) ** (m + 1) * w(m), start=1
    )
    corrected = binomial_convolution(
        n, lambda s: (-1) ** (s + 1) * row[s], w, start=1
    )
    note = (
        f"printed sign (-1)^(n-s+1) agrees only for even n; "
        f"with (-1)^(s+1) the identity holds: {lhs == corrected}"
    )
    return lhs, printed, note


def _eval_eq9(b, r, j, n):
    lhs = p_recurrence(r - (3 + b), j - 1, n)
    row = p_egf(r, j, n).values
    rhs = binomial_convolution(
        n, row.__getitem__, lambda m: (-1) ** m * bernoulli.w_family(3 + b, m)
    )
    return lhs, rhs, None


def _eval_cor(j, b, n):
    lhs, rhs = bernoulli.corollary_convolution(j, b, n)
    return lhs, bernoulli.as_int(rhs), None


def _eval_cycle_b2(b, n_max):
    return _digit_cycle(
        _cycle_window(n_max),
        partial(bernoulli.multi_poly_bernoulli, _two_pads(b)),
        partial(bernoulli.w_family, 3 + b),
    )


def _eval_cycle_bmulti(idx, n_max):
    window = _cycle_window(n_max)
    seq = bernoulli.multi_poly_bernoulli_li_sequence(idx, n_max)
    return _digit_cycle(
        window, partial(bernoulli.multi_poly_bernoulli, idx), seq.__getitem__
    )


def _eval_cycle_u(idx, n_max):
    return _digit_cycle(
        _cycle_window(n_max), partial(bernoulli.u_number, idx), partial(bernoulli.u_from_mu, idx)
    )


def _eval_interp(b, n):
    bars = 3 + b
    pairs = [
        (i, jj) for i in range(bars + 1) for jj in range(i + 1, bars + 1)
    ]
    per_pair = [
        oracle.enumerate_rbpa_with_empty(n, bars, i, jj) for i, jj in pairs
    ]
    lhs = per_pair[0]
    rhs = bernoulli.multi_poly_bernoulli(_two_pads(b), n)
    w_here = bernoulli.w_family(3 + b, n)
    w_up = bernoulli.w_family(4 + b, n)
    note = (
        f"all {len(pairs)} section pairs agree: {len(set(per_pair)) == 1}; "
        f"count equals 2(3+b)^n-(2+b)^n = {w_here}; a 2(4+b)^n-(3+b)^n "
        f"reading (= {w_up}) would need 4+b bars, one more than stated"
    )
    return lhs, rhs, note


def _eval_t3b(idx, n):
    lhs = bernoulli.u_stirling_sum(tuple(-e for e in idx), n)
    return bernoulli.as_int(lhs), bernoulli.u_via_shift(idx, n), None


def _eval_urel(b, n):
    lhs = bernoulli.u_number(_two_pads(b), n)
    rhs = bernoulli.multi_poly_bernoulli(_two_pads(b + 1), n)
    note = (
        f"left side follows the shift convention and equals "
        f"2(2+b)^n-(1+b)^n: {lhs == bernoulli.w_family(2 + b, n)}; the "
        f"claimed right side equals 2(4+b)^n-(3+b)^n: "
        f"{rhs == bernoulli.w_family(4 + b, n)}; the readings only meet at n = 0"
    )
    return lhs, rhs, note


def _eval_eq13(b, n):
    lhs = p_egf(4 + b, 1, n)[n]

    def conv(u_value) -> int:
        return binomial_convolution(
            n,
            lambda s: (-1) ** (s + 1) * u_value(s),
            partial(p_recurrence, 4 + b, 1),
            start=1,
        )

    shift_u = conv(lambda s: bernoulli.u_number(_two_pads(b), s))
    padded_u = conv(
        lambda s: bernoulli.multi_poly_bernoulli(_two_pads(b + 1), s)
    )
    note = (
        f"with the shift-convention U the sum gives {shift_u}; reading U_s "
        f"as the (b+1)-padded B value gives {padded_u}, matching: "
        f"{lhs == padded_u}"
    )
    return lhs, shift_u, note


def _eval_eq11b_sign(b, n):
    lhs = bernoulli.multi_poly_bernoulli(_two_pads(b), n)
    series = counts.two_minus_exp(n) * exp_series(-(3 + b), n)
    rhs = series.coeff_int(n)
    note = (
        f"stated series carries coefficients (-1)^n times the values; "
        f"absolute values agree: {abs(rhs) == lhs}"
    )
    return lhs, rhs, note


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
        _domain({"r": (0, "icap", 0), "j": (0, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_t3,
    ),
    IdentitySpec(
        "L1",
        "s^{n+4} == s^n (mod 10) for n >= 1",
        "builtins.pow with modulus 10",
        "combinat.int_pow reduced mod 10",
        _domain({"s": (0, "scap", 0), "n": (1, "ecap", 0)}),
        _eval_l1,
    ),
    IdentitySpec(
        "CYCLE_P",
        "last digit of p^r_j(n) repeats with period 4 from n = 1",
        "counts.p_egf digits",
        "counts.p_recurrence digits four steps on",
        _domain({"r": (0, "icap", 0), "j": (0, "icap", 0), "n_max": _CYCLE}),
        _eval_cycle_p,
        constraint=lambda r, j, n_max: r + j >= 1,
    ),
    IdentitySpec(
        "DSUM_L",
        "p^r_1(n) = sum_k sum_{s<=k} C(k,s)(-1)^s (k-s+r)^n",
        "counts.p_egf",
        "literal alternating power double sum",
        _domain({"r": (0, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_dsum_l,
    ),
    IdentitySpec(
        "DSUM_T",
        "p^r_j(n) = sum_k sum_{s<=k} C(k,s)(-1)^s p^{r+k-s}_{j-1}(n)",
        "counts.p_egf",
        "counts.p_double_sum",
        _domain({"r": (0, "icap", 0), "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_dsum_t,
    ),
    IdentitySpec(
        "INCL_EXCL",
        "claim: p^r_{j-r}(n) = sum_{s=1}^{r} C(r,s)(-1)^{s+1} p^s_{j-s}(n)",
        "counts.p_egf at the all-marked-restricted family",
        "counts.p_inclusion_exclusion",
        _domain({"r": (1, "icap", 0), "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_incl_excl,
        diagnostic=True,
        constraint=lambda r, j, n: r <= j,
    ),
    IdentitySpec(
        "SER_L7",
        "p^0_1(n) = sum_{s>=0} s^n / 2^{s+1}",
        "counts.p_egf",
        "literal certified series of weighted powers",
        _domain({"n": (0, "ncap", 0)}),
        partial(_eval_ser_powers, 0),
    ),
    IdentitySpec(
        "SER_L8",
        "p^2_1(n) = 2 sum_{s>=2} s^n / 2^s",
        "counts.p_egf",
        "literal certified series of weighted powers, reindexed",
        _domain({"n": (0, "ncap", 0)}),
        partial(_eval_ser_powers, 2),
    ),
    IdentitySpec(
        "SER_T",
        "p^r_j(n) = (1/2) sum_{s>=0} p^{r+s}_{j-1}(n) / 2^s",
        "counts.p_egf",
        "counts.p_series_certified",
        _domain({"r": (0, "icap", 0), "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_ser_t,
    ),
    IdentitySpec(
        "REC_L10",
        "p^0_1(n) = sum_{s=1}^{n-1} C(n,s) p^0_1(n-s) + 1 for n >= 1",
        "counts.p_egf",
        "binomial sum over counts.p_recurrence values plus one",
        _domain({"n": (1, "ncap", 0)}),
        _eval_rec_l10,
    ),
    IdentitySpec(
        "REC_L11",
        "p^2_1(n+1) = sum_{s=0}^{n} C(n+1,s) p^2_1(s) + 2^{n+1}",
        "counts.p_egf",
        "binomial sum over counts.p_recurrence values plus a power of two",
        _domain({"n": (0, "ncap", 0)}),
        _eval_rec_l11,
        diagnostic=True,
    ),
    IdentitySpec(
        "REC_T",
        "p^r_j(n) = p^r_{j-1}(n) + sum_{s<n} C(n,s) p^r_j(s) for j, n >= 1",
        "counts.p_recurrence",
        "one recurrence step assembled from counts.p_egf values",
        _domain({"r": (0, "icap", 0), "j": (1, "icap", 0), "n": (1, "ncap", 0)}),
        _eval_rec_t,
    ),
    IdentitySpec(
        "EQ5",
        "p^{r-3}_{j-1}(n) = sum_s C(n,s)(-1)^s B^{-2}_s p^r_j(n-s), r >= 3",
        "counts.p_egf at the shifted family",
        "bernoulli.poly_bernoulli convolution over counts.p_egf",
        _domain({"r": (3, "icap", 3), "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_eq5,
    ),
    IdentitySpec(
        "EQ6",
        "p^3_1(n) = sum_{s=1}^{n} C(n,s)(-1)^{s+1} B^{-2}_s p^3_1(n-s)",
        "counts.p_egf",
        "reciprocal-coefficient convolution over counts.p_recurrence",
        _domain({"n": (1, "ncap", 0)}),
        _eval_eq6,
    ),
    IdentitySpec(
        "EQ8",
        "p^{3+b}_1(n) = sum_{s=1}^{n} C(n,s)(-1)^{s+1} B^{(-2,0^b)}_s p^{3+b}_1(n-s)",
        "counts.p_egf",
        "bernoulli.multi_poly_bernoulli convolution over counts.p_recurrence",
        _domain({"b": (0, "icap", 0), "n": (1, "ncap", 0)}),
        _eval_eq8,
    ),
    IdentitySpec(
        "EQ8_REARRANGED",
        "claim: B^{(-2,0^b)}_n = sum_{s=1}^{n} C(n,s) p^{3+b}_1(s)(-1)^{n-s+1} B^{(-2,0^b)}_{n-s}",
        "bernoulli.multi_poly_bernoulli",
        "printed-sign convolution of counts.p_egf with bernoulli.w_family",
        _domain({"b": (0, "icap", 0), "n": (1, "ncap", 0)}),
        _eval_eq8_rearranged,
        diagnostic=True,
    ),
    IdentitySpec(
        "EQ9",
        "p^{r-(3+b)}_{j-1}(n) = sum_s C(n,s) p^r_j(s)(-1)^{n-s} B^{(-2,0^b)}_{n-s}, r >= 3+b",
        "counts.p_recurrence at the shifted family",
        "w_family convolution over counts.p_egf",
        _domain({"b": (0, "icap", 0), "r": (3, "icap", 3),
                 "j": (1, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_eq9,
        constraint=lambda b, r, j, n: r >= 3 + b,
    ),
    IdentitySpec(
        "COR",
        "B^{(-j,0^{b-1})}_n = sum_s C(n,s) B^{(0^{b-1})}_s B^{-j}_{n-s}",
        "bernoulli.multi_poly_bernoulli (mu route)",
        "binomial convolution of bernoulli.poly_bernoulli with the all-zero family",
        _domain({"j": (0, "icap", 0), "b": (1, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_cor,
    ),
    IdentitySpec(
        "CYCLE_B2",
        "last digit of B^{(-2,0^b)}_n repeats with period 4 from n = 1",
        "bernoulli.multi_poly_bernoulli digits",
        "bernoulli.w_family digits four steps on",
        _domain({"b": (0, "icap", 0), "n_max": _CYCLE}),
        _eval_cycle_b2,
    ),
    IdentitySpec(
        "CYCLE_BMULTI",
        "last digit of B at any non-positive multi-index repeats with period 4 from n = 1",
        "bernoulli.multi_poly_bernoulli digits",
        "bernoulli.multi_poly_bernoulli_li_sequence digits four steps on",
        _domain({"idx": ("mcap", "mcap"), "n_max": _CYCLE}),
        _eval_cycle_bmulti,
    ),
    IdentitySpec(
        "CYCLE_U",
        "last digit of U at any non-positive multi-index repeats with period 4 from n = 1",
        "bernoulli.u_number digits (finite Stirling sum)",
        "bernoulli.u_from_mu digits four steps on",
        _domain({"idx": ("mcap", "mcap"), "n_max": _CYCLE}),
        _eval_cycle_u,
    ),
    IdentitySpec(
        "INTERP",
        "with 3+b bars, all sections restricted, the arrangements with section i or jj empty number B^{(-2,0^b)}_n",
        "oracle.enumerate_rbpa_with_empty",
        "bernoulli.multi_poly_bernoulli (mu route)",
        _domain({"b": (0, 2, 0), "n": (0, 6, 0)}),
        _eval_interp,
    ),
    IdentitySpec(
        "T3B",
        "U^{(k_1..k_b)}_n = (-1)^{n+1} sum_{t=b}^{n+b} chain(t) (-1)^{t-b+1}(t-b)! {n+1 brace t-b+1}",
        "bernoulli.u_stirling_sum",
        "bernoulli.u_via_shift",
        _domain({"idx": (2, "mcap"), "n": (0, "ncap", 0)}),
        _eval_t3b,
    ),
    IdentitySpec(
        "UREL",
        "claim: U^{(-2,0^b)}_n = B^{(-2,0^{b+1})}_n",
        "bernoulli.u_number",
        "bernoulli.multi_poly_bernoulli at the once-padded index",
        _domain({"b": (0, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_urel,
        diagnostic=True,
    ),
    IdentitySpec(
        "EQ13",
        "claim: p^{4+b}_1(n) = sum_{s=1}^{n} C(n,s)(-1)^{s+1} U^{(-2,0^b)}_s p^{4+b}_1(n-s)",
        "counts.p_egf",
        "U convolution over counts.p_recurrence, both U readings",
        _domain({"b": (0, "icap", 0), "n": (1, "ncap", 0)}),
        _eval_eq13,
        diagnostic=True,
    ),
    IdentitySpec(
        "EQ11B_SIGN",
        "claim: sum_n B^{(-2,0^b)}_n m^n/n! = (2-e^m) e^{-(3+b)m}",
        "bernoulli.multi_poly_bernoulli",
        "coefficient of the stated product series",
        _domain({"b": (0, "icap", 0), "n": (0, "ncap", 0)}),
        _eval_eq11b_sign,
        diagnostic=True,
    ),
))


def run_identity(
    ident: str,
    overrides: Optional[dict] = None,
    profile: str = "full",
) -> list[CheckReport]:
    """All checks for one identity, in lexicographic binding order.

    overrides replaces whole domain lists, e.g. {"n": [0, 1, 2]}; a bare
    value is treated as a one-element list, and a multi-index list takes
    only tuples. A domain that leaves no binding to check is a
    ValueError, never an empty (passing) report.
    """
    spec = REGISTRY.get(ident)
    domain = dict(spec.domain(profile))
    if overrides:
        for key, value in overrides.items():
            if key not in domain:
                raise ValueError(
                    f"{ident} has no parameter {key!r}; knows {sorted(domain)}"
                )
            multi = isinstance(domain[key][0], tuple)
            if isinstance(value, (list, tuple, range)):
                domain[key] = list(value)
            else:
                domain[key] = [value]
            if multi and not all(isinstance(v, tuple) for v in domain[key]):
                raise ValueError(f"{ident}: {key} takes multi-indices, not {value!r}")
    reports = []
    names = list(domain)
    for combo in product(*(domain[k] for k in names)):
        binding = dict(zip(names, combo))
        if spec.constraint is not None and not spec.constraint(**binding):
            continue
        lhs, rhs, note = spec.evaluate(**binding)
        reports.append(
            CheckReport(
                identity=ident,
                params=binding,
                lhs=lhs,
                rhs=rhs,
                passed=lhs == rhs,
                note=note,
            )
        )
    if not reports:
        raise ValueError(
            f"{ident}: no binding to check; the domain is empty or the "
            f"constraint rejects every binding"
        )
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
