import hashlib
import json
from fractions import Fraction

import pytest

from rbpa import bernoulli, identities
from rbpa.identities import (
    REGISTRY,
    CheckReport,
    IdentitySpec,
    Registry,
    UnknownIdentityError,
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
        evaluate=lambda bd: (0, 0, None),
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


def test_a_check_without_bindings_is_an_error():
    # r >= 3+b rejects every binding at b = 4, r = 3; an empty report
    # list would read as a pass
    with pytest.raises(ValueError, match="EQ9"):
        run_identity("EQ9", overrides={"r": 3, "b": 4})
    with pytest.raises(ValueError, match="T3"):
        run_identity("T3", overrides={"n": []})


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
