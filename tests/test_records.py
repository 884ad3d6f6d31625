"""The package's seven frozen value classes behave as frozen records.

Each class is built through its public constructor or route and checked
for constructor signature, repr, equality, hashing, assignment refusal,
and pickle and copy round trips. Nothing here depends on how the
classes are implemented.
"""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from rbpa import (
    CheckReport,
    Egf,
    MuTable,
    SequenceTable,
    Summary,
    TailCertificate,
    mu_table,
    p_egf,
    p_series_certified,
)
from rbpa.identities import IdentitySpec, Witnessed


def _report(note=None):
    return CheckReport("T3", {"r": 2, "n": 4}, 299, 299, True, note)


def _spec():
    # builtins stand in for the domain and evaluator, so the record pickles
    return IdentitySpec(ident="X", anchor="a = b", lhs_method="m1",
                        rhs_method="m2", domain=len, lhs=abs, rhs=round)


def _summary():
    return Summary("quick", 1, 2, 2, 0, 0, (), ())


# (factory, an equal but separately built record, a different record, repr)
RECORDS = {
    "Egf": (
        lambda: Egf.from_coeffs([1, 2]),
        lambda: Egf(1, (1, 2)),
        lambda: Egf(1, (1, 3)),
        "Egf(order=1, coeffs=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    "SequenceTable": (
        lambda: p_egf(2, 1, 4),
        lambda: SequenceTable(2, 1, (1, 3, 11, 51, 299)),
        lambda: SequenceTable(2, 1, (1, 3, 11, 51)),
        "SequenceTable(r=2, j=1, values=(1, 3, 11, 51, 299))",
    ),
    "TailCertificate": (
        lambda: p_series_certified(2, 1, 4)[1],
        lambda: TailCertificate(76, Fraction(1, 68719476736)),
        lambda: TailCertificate(77, Fraction(1, 68719476736)),
        "TailCertificate(truncation_index=76, tail_bound=Fraction(1, 68719476736))",
    ),
    "MuTable": (
        lambda: mu_table((2, 1)),
        lambda: MuTable((2, 1), 3, (0, 1, -7, 8)),
        lambda: mu_table((1, 2)),
        "MuTable(index=(2, 1), weight=3, coefficients=(0, 1, -7, 8))",
    ),
    "CheckReport": (
        _report,
        lambda: CheckReport(identity="T3", params={"r": 2, "n": 4}, lhs=299,
                            rhs=299, passed=True),
        lambda: _report(note="x"),
        "CheckReport(identity='T3', params={'r': 2, 'n': 4}, lhs=299, "
        "rhs=299, passed=True, note=None)",
    ),
    "IdentitySpec": (
        _spec,
        lambda: IdentitySpec(ident="X", anchor="a = b", lhs_method="m1",
                             rhs_method="m2", domain=len, lhs=abs, rhs=round,
                             note=None, diagnostic=False, constraint=None),
        lambda: IdentitySpec(ident="X", anchor="a = b", lhs_method="m1",
                             rhs_method="m2", domain=len, lhs=abs, rhs=round,
                             diagnostic=True),
        "IdentitySpec(ident='X', anchor='a = b', lhs_method='m1', "
        "rhs_method='m2', domain=<built-in function len>, "
        "lhs=<built-in function abs>, rhs=<built-in function round>, "
        "note=None, diagnostic=False, constraint=None)",
    ),
    "Witnessed": (
        lambda: Witnessed(3, (1, 2)),
        lambda: Witnessed(value=3, evidence=(1, 2)),
        lambda: Witnessed(3, (1, 3)),
        "Witnessed(value=3, evidence=(1, 2))",
    ),
    "Summary": (
        _summary,
        lambda: Summary(profile="quick", identities=1, checks=2, passed=2,
                        failed=0, flagged=0, failures=(), diagnostics=()),
        lambda: Summary("full", 1, 2, 2, 0, 0, (), ()),
        "Summary(profile='quick', identities=1, checks=2, passed=2, failed=0, "
        "flagged=0, failures=(), diagnostics=())",
    ),
}

# constructor parameters, in order, with their defaults
SIGNATURES = {
    Egf: "order coeffs",
    SequenceTable: "r j values",
    TailCertificate: "truncation_index tail_bound",
    MuTable: "index weight coefficients",
    CheckReport: "identity params lhs rhs passed note=None",
    IdentitySpec: "ident anchor lhs_method rhs_method domain lhs rhs "
                  "note=None diagnostic=False constraint=None",
    Witnessed: "value evidence",
    Summary: "profile identities checks passed failed flagged failures diagnostics",
}

NAMES = sorted(RECORDS)


def test_every_record_class_is_covered():
    assert {cls.__name__ for cls in SIGNATURES} == set(RECORDS)


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    shown = " ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in params
    )
    assert shown == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_form(name):
    make, _, _, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", NAMES)
def test_equality(name):
    make, same, other, _ = RECORDS[name]
    assert make() == same()
    assert not make() != same()
    assert make() != other()
    assert make() != tuple(vars(make()).values())


@pytest.mark.parametrize("name", NAMES)
def test_hash_follows_equality(name):
    make, same, _, _ = RECORDS[name]
    if name == "CheckReport":
        # params is a dict, so a report is unhashable, as a frozen
        # dataclass with a dict field is
        with pytest.raises(TypeError):
            hash(make())
        return
    assert hash(make()) == hash(same())
    assert len({make(), same()}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_assignment_is_refused(name):
    record = RECORDS[name][0]()
    field = next(iter(vars(record)))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) is before
    assert not hasattr(record, "not_a_field")


def test_object_setattr_still_rebinds_a_field():
    # the benchmark wraps each registry entry's evaluate method this way;
    # the instance attribute shadows the method
    spec = _spec()
    object.__setattr__(spec, "evaluate", round)
    assert spec.evaluate is round


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(name, protocol):
    record = RECORDS[name][0]()
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is type(record)
    assert back == record
    assert repr(back) == repr(record)
    with pytest.raises(AttributeError):
        setattr(back, next(iter(vars(back))), None)


@pytest.mark.parametrize("name", NAMES)
def test_copy_round_trip(name):
    record = RECORDS[name][0]()
    for dup in (copy.copy(record), copy.deepcopy(record)):
        assert type(dup) is type(record)
        assert dup == record
        assert repr(dup) == repr(record)


@pytest.mark.parametrize("build", [
    lambda: Egf(-1, ()),
    lambda: Egf(2, (1, 2)),
    lambda: SequenceTable(0, 1, (2, 1)),
    lambda: SequenceTable(0, 1, (1, -1)),
    lambda: SequenceTable(0, 1, ()),
    lambda: TailCertificate(3, Fraction(1, 2)),
    lambda: MuTable((2,), 3, (0, 1, 1, 1)),
    lambda: MuTable((2,), 2, (0, 1)),
    lambda: MuTable((2,), 2, (1, -1, 2)),
])
def test_constructors_still_validate(build):
    with pytest.raises(ValueError):
        build()


def test_egf_coefficients_become_fractions():
    series = Egf(1, (1, 2))
    assert all(type(c) is Fraction for c in series.coeffs)
