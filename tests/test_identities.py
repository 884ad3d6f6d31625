import hashlib
import inspect
import json
import sys
from fractions import Fraction

import pytest

from rbpa import bernoulli, identities
from rbpa.egf import exp_series, one
from rbpa.identities import (
    REGISTRY,
    CheckReport,
    IdentitySpec,
    Registry,
    UnknownIdentityError,
    bindings,
    json_value,
    run_all,
    run_identity,
)

MANDATED_IDS = {
    "T3", "L1", "CYCLE_P", "DSUM_L", "DSUM_T", "INCL_EXCL",
    "SER_L7", "SER_L8", "SER_T", "REC_L10", "REC_L11", "REC_T",
    "EQ5", "EQ6", "EQ8", "EQ9", "COR",
    "CYCLE_B2", "CYCLE_BMULTI", "CYCLE_U",
    "INTERP", "T3B", "UREL", "EQ13",
}


def test_registry_contains_every_required_identity():
    assert MANDATED_IDS <= set(REGISTRY.ids())


def test_registry_routes_are_distinct():
    for row in REGISTRY.coverage_table():
        assert row["lhs"] != row["rhs"], row["id"]


def test_registering_identical_routes_is_rejected():
    reg = Registry()
    spec = IdentitySpec(
        ident="X",
        anchor="x = x",
        lhs_method="same.route",
        rhs_method="same.route",
        domain=lambda pr: {"n": [0]},
        lhs=lambda n: 0,
        rhs=lambda n: 0,
    )
    with pytest.raises(ValueError):
        reg.register(spec)


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        run_identity("NOPE")
    with pytest.raises(UnknownIdentityError):
        REGISTRY.get("NOPE")


def test_override_replaces_a_domain_list():
    reports = run_identity("T3", overrides={"r": [1], "j": [1], "n": [0, 1, 2]})
    assert len(reports) == 3
    assert all(r.passed for r in reports)
    assert {r.params["n"] for r in reports} == {0, 1, 2}


def test_override_accepts_a_bare_scalar():
    reports = run_identity("REC_L10", overrides={"n": 4})
    assert len(reports) == 1
    assert reports[0].params == {"n": 4}


def test_override_unknown_parameter():
    with pytest.raises(ValueError):
        run_identity("T3", overrides={"q": [1]})


def test_report_dict_shape():
    report = run_identity("SER_T", overrides={"r": [0], "j": [1], "n": [3]})[0]
    d = report.as_dict()
    assert set(d) == {"id", "params", "lhs", "rhs", "pass", "note"}
    assert d["id"] == "SER_T"
    assert d["pass"] is True
    assert "tail" in d["note"]


def test_every_non_diagnostic_identity_passes_quick():
    summary = run_all("quick")
    assert summary.failed == 0
    assert summary.exit_code == 0
    assert summary.identities == len(REGISTRY.ids())
    assert summary.checks == summary.passed + summary.failed + summary.flagged


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        run_all("exhaustive")


def test_diagnostics_flag_the_known_defects():
    summary = run_all("quick")
    flagged_ids = {r.identity for r in summary.diagnostics}
    # these four statements fail as printed; the reports must say so
    assert flagged_ids == {
        "INCL_EXCL", "EQ8_REARRANGED", "UREL", "EQ13", "EQ11B_SIGN",
    }


def test_rec_l11_is_diagnostic_but_holds():
    spec = REGISTRY.get("REC_L11")
    assert spec.diagnostic
    assert all(r.passed for r in run_identity("REC_L11", profile="quick"))


def test_eq8_rearranged_printed_sign_fails_exactly_at_odd_n():
    for report in run_identity("EQ8_REARRANGED", profile="quick"):
        assert report.passed == (report.params["n"] % 2 == 0)
        assert "holds: True" in report.note


def test_urel_readings_meet_only_at_zero():
    for report in run_identity("UREL", profile="quick"):
        assert report.passed == (report.params["n"] == 0)


def test_eq13_padded_reading_matches():
    for report in run_identity("EQ13", overrides={"b": [0, 1], "n": [1, 2, 3]}):
        assert not report.passed  # shift-convention side differs
        assert "matching: True" in report.note


def test_eq11b_sign_convolution_is_the_series_product_coefficient():
    # coefficient n of (2 - e^m) e^{-(3+b)m}; a coefficient does not
    # depend on the order the product is truncated at
    evaluate = REGISTRY.get("EQ11B_SIGN").evaluate
    for b in range(9):
        series = (2 * one(60) - exp_series(1, 60)) * exp_series(-(3 + b), 60)
        for n in range(61):
            assert evaluate(b, n)[1] == series.coeff_int(n)


@pytest.mark.parametrize("ident, binding, calls", [
    ("COR", {"j": 2, "b": 3}, 1),  # its left side
    ("EQ8", {"b": 1}, 0),
    ("EQ13", {"b": 1}, 0),
])
def test_a_b_factor_is_read_as_one_row(monkeypatch, ident, binding, calls):
    # one check at n = 15 reads B_0..B_15 as one power-sum row, not one
    # multi_poly_bernoulli call per convolution term
    expected = run_identity(ident, {**binding, "n": 15})
    real = bernoulli.multi_poly_bernoulli
    seen = []

    def counted(idx, n):
        seen.append((idx, n))
        return real(idx, n)

    monkeypatch.setattr(bernoulli, "multi_poly_bernoulli", counted)
    assert run_identity(ident, {**binding, "n": 15}) == expected
    assert len(seen) == calls


def test_eq13_reads_u_as_one_row(monkeypatch):
    # one check at n = 15 reads U_0..U_15 of the shift convention as one
    # row on the u_stirling_sum route, not one u_number call per term
    expected = run_identity("EQ13", {"b": 1, "n": 15})
    real = bernoulli.u_number
    seen = []

    def counted(idx, n):
        seen.append((idx, n))
        return real(idx, n)

    monkeypatch.setattr(bernoulli, "u_number", counted)
    assert run_identity("EQ13", {"b": 1, "n": 15}) == expected
    assert seen == []


def test_the_u_row_equals_the_binomial_shift():
    # the row EQ13's shift-convention side reads
    bernoulli.clear_caches()
    identities.clear_caches()
    for b in range(9):
        idx = identities._two_pads(b)
        row = identities._row(60, 1, bernoulli.u_stirling_sum, (-2,) + (0,) * b)
        assert len(row) == 61
        assert row == tuple(bernoulli.u_via_shift(idx, n) for n in range(61))


def test_interp_note_reports_the_bar_count_discrepancy():
    report = run_identity("INTERP", overrides={"b": [0], "n": [2]})[0]
    assert report.passed
    assert "section pairs agree: True" in report.note
    assert "one more than stated" in report.note


def test_incl_excl_union_note():
    report = run_identity(
        "INCL_EXCL", overrides={"r": [2], "j": [2], "n": [2]}
    )[0]
    assert not report.passed
    assert report.lhs == 4 and report.rhs == 8
    assert "matches sum: True" in report.note


def test_summary_json_is_byte_deterministic():
    a = run_all("quick").to_json()
    b = run_all("quick").to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["profile"] == "quick"
    assert parsed["failed"] == 0
    for entry in parsed["diagnostics"]:
        assert set(entry) == {"id", "params", "lhs", "rhs", "pass", "note"}


def test_constraint_prunes_the_domain():
    # EQ9 requires r >= 3+b; with b = 2 the r = 3, 4 bindings must be gone
    reports = run_identity(
        "EQ9", overrides={"b": [2], "r": [3, 4, 5], "j": [1], "n": [2]}
    )
    assert {r.params["r"] for r in reports} == {5}


@pytest.mark.parametrize("ident, overrides", [
    ("EQ9", {"n": [3], "b": [1]}),
    ("EQ5", {"n": [2, 5], "r": [3, 6]}),
])
def test_overrides_in_any_key_order_bind_in_domain_order(ident, overrides):
    # evaluate passes the binding's values positionally, so every binding
    # lists them in domain order, whatever order the overrides name them
    domain = list(REGISTRY.get(ident).domain("full"))
    in_order = {key: overrides[key] for key in domain if key in overrides}
    assert list(in_order) != list(overrides)
    reports = run_identity(ident, overrides)
    assert reports == run_identity(ident, in_order)
    assert all(list(r.params) == domain and r.passed for r in reports)


def test_a_check_without_bindings_is_an_error():
    # r >= 3+b rejects every binding at b = 4, r = 3; an empty report
    # list would read as a pass
    with pytest.raises(ValueError, match="EQ9"):
        run_identity("EQ9", overrides={"r": 3, "b": 4})
    with pytest.raises(ValueError, match="T3"):
        run_identity("T3", overrides={"n": []})


def test_bindings_are_what_run_identity_checks():
    # EQ9's full lists hold 5 * 5 * 4 * 16 = 1600 bindings; r >= 3+b keeps 960
    assert len(bindings("EQ9")) == 960
    overrides = {"b": [0, 1], "n": [3]}
    assert bindings("EQ9", overrides, "quick") == [
        report.params for report in run_identity("EQ9", overrides, "quick")
    ]


@pytest.mark.parametrize("ident, overrides, message", [
    # INTERP used to end in an IndexError, EQ8 in failed reports
    ("INTERP", {"b": [-5]}, "INTERP: b takes values from 0, got -5"),
    ("EQ8", {"b": [2, -2]}, "EQ8: b takes values from 0, got -2"),
    ("L1", {"n": 0}, "L1: n takes values from 1, got 0"),
    ("EQ5", {"r": [2, 3]}, "EQ5: r takes values from 3, got 2"),
])
def test_an_override_below_its_domain_row_is_refused(ident, overrides, message):
    with pytest.raises(ValueError) as info:
        run_identity(ident, overrides=overrides)
    assert str(info.value) == message


def test_coverage_table_lists_anchor_text():
    table = REGISTRY.coverage_table()
    by_id = {row["id"]: row for row in table}
    assert "(2-e^m)" in by_id["EQ11B_SIGN"]["anchor"]
    assert by_id["T3"]["diagnostic"] is False
    assert by_id["UREL"]["diagnostic"] is True


# sha256 of every default domain, parameter order included; the verify
# output pins cannot see a shifted domain, because a summary carries only
# counts, failures and diagnostics
DOMAIN_DIGESTS = {
    "quick": "ceff31689ae079cb42d92da60a18293cfbe779ae321ad360af4225590321d386",
    "full": "be152e50a17e8b602f95adca44706f18f67ad2c00d802ba7f1f570394c8b5758",
}


@pytest.mark.parametrize("profile", sorted(DOMAIN_DIGESTS))
def test_every_default_domain_is_pinned(profile):
    domains = [
        [ident, [[param, list(values)]
                 for param, values in REGISTRY.get(ident).domain(profile).items()]]
        for ident in REGISTRY.ids()
    ]
    text = json.dumps(domains, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DOMAIN_DIGESTS[profile]


# value, its JSON form, and str() of that form (the csv and bfile text)
EXACT_FORMS = [
    (0, 0, "0"),
    (-7, -7, "-7"),
    (10 ** 30, 10 ** 30, str(10 ** 30)),
    (True, True, "True"),
    (None, None, "None"),
    ("x", "x", "x"),
    (Fraction(6, 3), 2, "2"),
    (Fraction(-4, 2), -2, "-2"),
    (Fraction(1, 3), "1/3", "1/3"),
    (Fraction(-5, 4), "-5/4", "-5/4"),
]


@pytest.mark.parametrize("value, form, text", EXACT_FORMS)
def test_json_value_of_a_scalar(value, form, text):
    assert json_value(value) == form
    assert type(json_value(value)) is type(form)
    assert str(json_value(value)) == text


def test_json_value_of_nested_containers():
    value = (1, Fraction(1, 2), [Fraction(3), (None, "a", ())], {"q": Fraction(-1, 6)})
    form = [1, "1/2", [3, [None, "a", []]], {"q": "-1/6"}]
    assert json_value(value) == form
    assert json.loads(json.dumps(json_value(value))) == form


@pytest.mark.parametrize("value", [0.5, 1j, {1, 2}, object(), (1, [2.0])])
def test_json_value_refuses_an_inexact_or_unknown_value(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        json_value(value)


def _outcome(ident, binding):
    try:
        reports = run_identity(ident, binding)
    except ArithmeticError:
        return "raised"
    return "passed" if all(r.passed for r in reports) else "failed"


@pytest.mark.parametrize("ident, binding", [
    ("EQ5", {"r": 3, "j": 1, "n": 3}),
    ("COR", {"j": 2, "b": 2, "n": 3}),
])
def test_a_non_integral_b_value_never_passes(monkeypatch, ident, binding):
    # both convolutions add B^{(-2)}_s as ints; a wrong rational value
    # must fail or raise, never pass as its numerator or its truncation
    real = bernoulli.poly_bernoulli
    assert real(-2, 2) == 14

    def with_b_2(wrong):
        monkeypatch.setattr(
            bernoulli, "poly_bernoulli",
            lambda k, n: wrong if (k, n) == (-2, 2) else real(k, n),
        )
        return _outcome(ident, binding)

    assert _outcome(ident, binding) == "passed"
    # an integral error fails, so the binding reads B^{(-2)}_2
    assert with_b_2(Fraction(15)) == "failed"
    # 14/15 has numerator 14, and 29/2 truncates to 14
    assert with_b_2(Fraction(14, 15)) in ("failed", "raised")
    assert with_b_2(Fraction(29, 2)) in ("failed", "raised")


def test_registering_a_duplicate_id_is_rejected():
    reg = Registry()
    reg.register(REGISTRY.get("T3"))
    with pytest.raises(ValueError) as exc:
        reg.register(REGISTRY.get("T3"))
    assert str(exc.value) == "duplicate identity id T3"


def test_run_all_counts_a_failing_check(monkeypatch):
    # L1 is not diagnostic; one wrong binding out of its domain fails the run
    spec = REGISTRY.get("L1")
    monkeypatch.setitem(REGISTRY._specs, "L1", IdentitySpec(
        ident=spec.ident, anchor=spec.anchor, lhs_method=spec.lhs_method,
        rhs_method=spec.rhs_method, domain=spec.domain,
        lhs=lambda s, n: 0, rhs=lambda s, n: int((s, n) == (3, 1)),
        diagnostic=spec.diagnostic, constraint=spec.constraint,
    ))
    summary = run_all("quick")
    assert summary.failed == 1
    assert summary.exit_code == 1
    assert [r.params for r in summary.failures] == [{"s": 3, "n": 1}]


@pytest.mark.parametrize("profile", sorted(identities.PROFILES))
def test_every_evaluator_takes_its_domain_by_keyword(profile):
    # a misspelled parameter, or a domain key a side ignores or takes out
    # of order, shows here; spec.evaluate calls each side with the
    # binding's values in domain order, and the note with both sides and
    # those values
    for ident in REGISTRY.ids():
        spec = REGISTRY.get(ident)
        domain = spec.domain(profile)
        for side in (spec.lhs, spec.rhs):
            assert list(inspect.signature(side).parameters) == list(domain), ident
        if spec.note is not None:
            values = [values[0] for values in domain.values()]
            inspect.signature(spec.note).bind(None, None, *values)


# Route provenance: which rbpa functions each side of an entry reaches.
# Shared by design, and no route: combinat's kernels, the record base,
# the argument validators, constructors, comprehension and lambda
# frames, and the registry's own glue (padded indices, the cycle window
# and the digit reader).
_GLUE_MODULES = {"rbpa.combinat", "rbpa.record"}
_GLUE_NAMES = {"as_multi_index", "as_int", "__init__",
               "_two_pads", "_cycle_window", "_digits"}


def _reached(side, binding) -> set:
    """The rbpa functions side(**binding) calls from cold caches, less the glue."""
    for module in [m for name, m in sys.modules.items() if name.startswith("rbpa.")]:
        getattr(module, "clear_caches", lambda: None)()
    seen = set()

    def record(frame, event, arg):
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        name = frame.f_code.co_name
        if (module.startswith("rbpa.") and module not in _GLUE_MODULES
                and name not in _GLUE_NAMES and not name.startswith("<")):
            seen.add(f"{module[5:]}.{name}")

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        side(**binding)
    finally:
        sys.setprofile(previous)
    return seen


def test_the_sides_of_few_identities_share_a_function():
    # every quick binding, each side on its own. DSUM_T, EQ5 and SER_T
    # read p_egf's engine on both sides, through _p_row and the Egf
    # pipeline; the r-Stirling triangle of ROADMAP item 2 empties this
    # set. COR's right side once computed its left side as well.
    shared = {}
    for ident in REGISTRY.ids():
        spec = REGISTRY.get(ident)
        if spec.diagnostic:
            continue
        for binding in bindings(ident, profile="quick"):
            both = _reached(spec.lhs, binding) & _reached(spec.rhs, binding)
            if both:
                shared.setdefault(ident, set()).update(both)
    assert set(shared) == {"DSUM_T", "EQ5", "SER_T"}, shared
    for functions in shared.values():
        assert {"counts._p_row", "egf.reciprocal"} <= functions
