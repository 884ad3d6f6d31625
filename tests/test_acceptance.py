"""Acceptance gate: one test per shipped claim, at the stated ranges
and time budgets. Each test prints a single summary line; the -v listing
is the pass/fail report.
"""

import itertools
import time
import warnings
from fractions import Fraction

from rbpa import bernoulli, counts, identities, oracle
from rbpa.combinat import int_pow


def _indices(max_b, max_entry):
    out = []
    for b in range(1, max_b + 1):
        out.extend(itertools.product(range(max_entry + 1), repeat=b))
    return out


def test_criterion_01_enumeration_matches_generating_function():
    t0 = time.monotonic()
    checked = 0
    for r in range(4):
        for j in range(3):
            row = counts.p_egf(r, j, 7).values
            for n in range(8):
                assert oracle.enumerate_rbpa(n, r, j) == row[n], (r, j, n)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"enumeration sweep took {elapsed:.1f}s"
    print(f"[criterion 01] PASS: {checked} enumerated counts match, {elapsed:.1f}s")


def test_criterion_02_four_routes_agree_and_series_is_certified():
    checked = 0
    for r in range(5):
        for j in range(5):
            row = counts.p_egf(r, j, 12).values
            for n in range(13):
                expect = row[n]
                assert counts.p_recurrence(r, j, n) == expect
                assert counts.p_binomial_shift(r, j, n) == expect
                if j >= 1:
                    assert counts.p_double_sum(r, j, n) == expect
                    value, cert = counts.p_series_certified(r, j, n)
                    assert value == expect
                    assert cert.tail_bound < Fraction(1, 2)
                checked += 1
    print(f"[criterion 02] PASS: all routes agree at {checked} points")


def test_criterion_03_closed_forms_for_the_padded_two_index():
    for n in range(31):
        assert bernoulli.poly_bernoulli(-2, n) == 2 * int_pow(3, n) - int_pow(2, n)
    for b in range(6):
        idx = (2,) + (0,) * b
        for n in range(21):
            expect = 2 * int_pow(3 + b, n) - int_pow(2 + b, n)
            assert bernoulli.multi_poly_bernoulli(idx, n) == expect
    print("[criterion 03] PASS: closed forms hold to n = 30 and (b <= 5, n <= 20)")


def test_criterion_04_mu_route_matches_nested_sum_oracle():
    t0 = time.monotonic()
    checked = 0
    for idx in _indices(3, 3):
        for n in range(11):
            assert bernoulli.multi_poly_bernoulli(
                idx, n
            ) == bernoulli.multi_poly_bernoulli_li_oracle(idx, n), (idx, n)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"mu/oracle sweep took {elapsed:.1f}s"
    print(f"[criterion 04] PASS: {checked} index/order points, {elapsed:.1f}s")


def test_criterion_05_convolution_identities_exact_on_the_wide_grid():
    failures = []
    grids = {
        "EQ5": {"r": range(3, 7), "j": range(1, 4), "n": range(13)},
        "EQ6": {"n": range(1, 13)},
        "EQ8": {"b": range(4), "n": range(1, 13)},
        "EQ9": {"b": range(4), "r": range(3, 7), "j": range(1, 4), "n": range(13)},
        "COR": {"j": range(4), "b": range(1, 4), "n": range(13)},
    }
    total = 0
    for ident, overrides in grids.items():
        reports = identities.run_identity(ident, overrides=dict(overrides))
        total += len(reports)
        failures.extend(r for r in reports if not r.passed)
    assert not failures, failures[:3]
    print(f"[criterion 05] PASS: {total} convolution checks exact")


def test_criterion_06_last_digit_four_cycles_to_n_50():
    def window_ok(values):
        # values[n] for n = 0..54; compare n with n + 4 for n = 1..50
        return counts.last_digit_cycle_check(values[1:])

    families = 0
    for r in range(6):
        for j in range(6):
            if r == 0 and j == 0:
                continue
            assert window_ok(counts.p_egf(r, j, 54).values), (r, j)
            families += 1
    for b in range(6):
        idx = (2,) + (0,) * b
        vals = [bernoulli.multi_poly_bernoulli(idx, n) for n in range(55)]
        assert window_ok(vals), idx
        families += 1
    for idx in _indices(3, 3):
        vals = [bernoulli.multi_poly_bernoulli(idx, n) for n in range(55)]
        assert window_ok(vals), idx
        uvals = [bernoulli.u_from_mu(idx, n) for n in range(55)]
        assert window_ok(uvals), idx
        families += 2
    print(f"[criterion 06] PASS: period-4 last digits, {families} families to n = 50")


def test_criterion_07_or_empty_interpretation_with_bar_count_flag():
    for b in range(3):
        for n in range(7):
            # stated bar count: 3+b bars, i.e. 4+b sections; the count
            # equals B^{(-2,0^b)}_n, the value the interpretation names
            bars = 3 + b
            expect_stated = bernoulli.multi_poly_bernoulli((2,) + (0,) * b, n)
            assert expect_stated == bernoulli.w_family(3 + b, n)
            for i in range(bars + 1):
                for jj in range(i + 1, bars + 1):
                    got = oracle.enumerate_rbpa_with_empty(n, bars, i, jj)
                    assert got == expect_stated, (b, n, i, jj, got)
            # the value 2(4+b)^n - (3+b)^n is reached one bar up
            expect_up = bernoulli.w_family(4 + b, n)
            for i in range(bars + 2):
                for jj in range(i + 1, bars + 2):
                    got = oracle.enumerate_rbpa_with_empty(n, bars + 1, i, jj)
                    assert got == expect_up, (b, n, i, jj, got)
    warnings.warn(
        "bar count off-by-one: with the stated 3+b bars the or-empty count "
        "is 2(3+b)^n-(2+b)^n = B^{(-2,0^b)}_n; the value 2(4+b)^n-(3+b)^n "
        "requires 4+b bars. Both equalities verified; the '3+b bars' phrasing "
        "undercounts the bars for the latter by one."
    )
    print(
        "[criterion 07] PASS: or-empty counts match B^{(-2,0^b)}_n at 3+b bars "
        "and w_family(4+b, n) at 4+b bars (off-by-one flagged)"
    )


def test_criterion_08_stirling_chain_sum_equals_binomial_shift():
    t0 = time.monotonic()
    checked = 0
    for idx in _indices(2, 3):
        for n in range(11):
            via_chain = bernoulli.u_stirling_sum(tuple(-e for e in idx), n)
            assert via_chain == bernoulli.u_via_shift(idx, n), (idx, n)
            checked += 1
    elapsed = time.monotonic() - t0
    print(f"[criterion 08] PASS: {checked} chain-sum values match, {elapsed:.1f}s")


def test_criterion_09_defective_statements_run_as_diagnostics():
    for ident in ("UREL", "EQ13", "EQ11B_SIGN"):
        spec = identities.REGISTRY.get(ident)
        assert spec.diagnostic, ident
        reports = identities.run_identity(ident, profile="quick")
        assert reports
        assert all(r.note for r in reports), f"{ident} must explain itself"
    # which-reading content, spot checked
    urel = identities.run_identity("UREL", overrides={"b": [0], "n": [3]})[0]
    assert "2(2+b)^n-(1+b)^n: True" in urel.note
    assert "2(4+b)^n-(3+b)^n: True" in urel.note
    eq13 = identities.run_identity("EQ13", overrides={"b": [0], "n": [3]})[0]
    assert "matching: True" in eq13.note
    sign = identities.run_identity("EQ11B_SIGN", overrides={"b": [1], "n": [3]})[0]
    assert "absolute values agree: True" in sign.note
    summary = identities.run_all("quick")
    assert summary.failed == 0, "diagnostics must not fail the suite"
    print("[criterion 09] PASS: dual readings reported, suite stays green")


def test_criterion_10_quick_profile_is_fast_and_deterministic():
    t0 = time.monotonic()
    first = identities.run_all("quick").to_json()
    second = identities.run_all("quick").to_json()
    elapsed = time.monotonic() - t0
    assert first == second, "run_all(quick) must be byte-deterministic"
    assert elapsed / 2 < 120, f"run_all(quick) took {elapsed / 2:.1f}s"
    print(
        f"[criterion 10] PASS: run_all(quick) deterministic, "
        f"{elapsed / 2:.2f}s per run"
    )
