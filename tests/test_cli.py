import json

import pytest

from rbpa import bernoulli, cli, combinat, counts, oracle
from rbpa.bernoulli import multi_poly_bernoulli_li_sequence, u_number
from rbpa.cli import J_CLI_MAX, R_CLI_MAX, SEQ_CLI_MAX, _glue_index, main
from rbpa.counts import p_egf, two_minus_exp
from rbpa.egf import exp_series
from rbpa.identities import REGISTRY, IdentitySpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_p_json(capsys):
    code, out, _ = run(capsys, "seq", "--family", "p", "--r", "2", "--j", "1",
                       "--n-max", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [1, 3, 11, 51, 299]
    assert payload["params"] == {"r": 2, "j": 1}


def test_seq_b_multi_index_csv(capsys):
    code, out, _ = run(capsys, "seq", "--family", "B", "--index", "-2,0",
                       "--n-max", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,5", "2,23", "3,101"]


def test_seq_b_single_positive_index_renders_rationals(capsys):
    code, out, _ = run(capsys, "seq", "--family", "B", "--index", "2",
                       "--n-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [1, "1/4", "-1/36"]


def test_seq_bfile_format(capsys):
    code, out, _ = run(capsys, "seq", "--family", "W", "--r", "3",
                       "--n-max", "3", "--format", "bfile")
    assert code == 0
    assert out == "0 1\n1 4\n2 14\n3 46\n"


def test_bfile_refuses_proper_fractions(capsys):
    code, _, err = run(capsys, "seq", "--family", "B", "--index", "2",
                       "--n-max", "2", "--format", "bfile")
    assert code == 2
    assert "bfile" in err


def test_seq_u_rational_branch(capsys):
    code, out, _ = run(capsys, "seq", "--family", "U", "--index", "1",
                       "--n-max", "1")
    assert code == 0
    assert json.loads(out)["values"] == [1, "-1/2"]


def test_index_glues_only_a_value_token():
    assert _glue_index(["--index", "-2,0", "--n-max", "3"]) == [
        "--index=-2,0", "--n-max", "3",
    ]
    assert _glue_index(["--index", "--n-max", "3"]) == [
        "--index", "--n-max", "3",
    ]


def test_seq_index_without_value_is_reported(capsys):
    # the next flag used to be swallowed as the index, and the error
    # then blamed the missing --n-max
    with pytest.raises(SystemExit) as exc:
        main(["seq", "--family", "B", "--index", "--n-max", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--index: expected one argument" in err


def test_seq_missing_family_parameter(capsys):
    code, _, err = run(capsys, "seq", "--family", "p", "--r", "1",
                       "--n-max", "3")
    assert code == 2
    assert "--j" in err


def test_seq_bad_index(capsys):
    code, _, err = run(capsys, "seq", "--family", "B", "--index", "2;0",
                       "--n-max", "3")
    assert code == 2
    assert "index" in err


def test_seq_multi_index_must_be_non_positive(capsys):
    code, _, err = run(capsys, "seq", "--family", "B", "--index", "1,1",
                       "--n-max", "3")
    assert code == 2
    assert "non-positive" in err


def test_egf_base_and_reciprocal(capsys):
    code, out, _ = run(capsys, "egf", "--r", "3", "--j", "1", "--order", "3")
    assert code == 0
    assert json.loads(out)["values"] == [1, 4, 18, 94]
    code, out, _ = run(capsys, "egf", "--r", "3", "--j", "1", "--order", "3",
                       "--reciprocal")
    assert code == 0
    assert json.loads(out)["values"] == [1, -4, 14, -46]


def test_egf_output_matches_the_library_series(capsys):
    expected = {
        (): p_egf(2, 3, 30).values,
        ("--reciprocal",): tuple(
            (exp_series(-2, 30) * two_minus_exp(30) ** 3).coeff_int(n)
            for n in range(31)
        ),
    }
    for flags, values in expected.items():
        code, out, _ = run(capsys, "egf", "--r", "2", "--j", "3", "--order", "30",
                           *flags)
        assert code == 0
        assert json.loads(out)["values"] == list(values)


def test_seq_b_with_a_large_index_entry_runs_cold(capsys):
    # mu_table reads Stirling row 1200, which used to recurse once per row
    combinat.clear_caches()
    code, out, _ = run(capsys, "seq", "--family", "B", "--index", "-1200,0",
                       "--n-max", "2")
    assert code == 0
    assert json.loads(out)["values"] == list(
        multi_poly_bernoulli_li_sequence((1200, 0), 2)
    )


def test_oracle_matches_direct_counts(capsys):
    code, out, _ = run(capsys, "oracle", "--r", "1", "--j", "1", "--n-max", "4")
    assert code == 0
    assert json.loads(out)["values"] == [1, 2, 6, 26, 150]


def test_oracle_size_cap(capsys):
    code, _, err = run(capsys, "oracle", "--r", "1", "--j", "1", "--n-max", "8")
    assert code == 2
    assert "--n-max" in err


def _no_enumeration(*args):
    raise AssertionError(f"enumerated {args}")


@pytest.mark.parametrize("r, j, n_max", [
    ("1000", "1", "7"),
    ("1000000000", "0", "0"),   # one assignment, but a billion counters
    ("10", "1", "6"),           # 11^7 is just over the bound
])
def test_oracle_refuses_a_large_run_before_enumerating(capsys, monkeypatch,
                                                      r, j, n_max):
    monkeypatch.setattr(oracle, "enumerate_rbpa", _no_enumeration)
    code, out, err = run(capsys, "oracle", "--r", r, "--j", j, "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert err == ("rbpa: (r+j)^(n_max+1) must be at most "
                   f"{oracle.ORACLE_WORK_MAX}; lower --r, --j or --n-max\n")


def test_oracle_runs_at_the_work_bound(capsys, monkeypatch):
    # 10^7 is allowed; a stub stands in for the seconds-long enumeration
    assert oracle.ORACLE_WORK_MAX == 10 ** 7
    monkeypatch.setattr(oracle, "enumerate_rbpa", lambda n, r, j: n)
    code, out, _ = run(capsys, "oracle", "--r", "3", "--j", "7", "--n-max", "6")
    assert code == 0
    assert json.loads(out)["values"] == list(range(7))


def test_seq_n_max_has_an_upper_bound(capsys):
    code, out, _ = run(capsys, "seq", "--family", "W", "--r", "2",
                       "--n-max", str(SEQ_CLI_MAX))
    assert code == 0
    assert len(json.loads(out)["values"]) == SEQ_CLI_MAX + 1
    for command in (["seq", "--family", "B", "--index", "-2"],
                    ["cycle", "--family", "B", "--index", "-2"]):
        code, out, err = run(capsys, *command, "--n-max", "100000")
        assert code == 2
        assert out == ""
        assert err == f"rbpa: --n-max must be at most {SEQ_CLI_MAX}\n"


def test_egf_order_has_an_upper_bound(capsys):
    code, out, err = run(capsys, "egf", "--r", "1", "--j", "1",
                         "--order", str(SEQ_CLI_MAX + 1))
    assert code == 2
    assert out == ""
    assert err == f"rbpa: --order must be at most {SEQ_CLI_MAX}\n"


def test_j_has_an_upper_bound(capsys):
    too_many = str(J_CLI_MAX + 1)
    for command in (["seq", "--family", "p", "--r", "1", "--n-max", "3"],
                    ["egf", "--r", "1", "--order", "3"]):
        code, out, err = run(capsys, *command, "--j", too_many)
        assert code == 2
        assert out == ""
        assert err == f"rbpa: --j must be at most {J_CLI_MAX}\n"


def _no_route(*args):
    raise AssertionError(f"a route ran with {args}")


@pytest.fixture
def no_routes(monkeypatch):
    """Every value route that seq, cycle and egf reach raises if called."""
    for module, name in [
        (counts, "p_egf"), (counts, "two_minus_exp"),
        (bernoulli, "poly_bernoulli"), (bernoulli, "multi_poly_bernoulli"),
        (bernoulli, "u_number"), (bernoulli, "u_stirling_sum"),
        (bernoulli, "w_family"),
    ]:
        monkeypatch.setattr(module, name, _no_route)


R_TOO_LARGE = f"rbpa: --r must be at most {R_CLI_MAX}\n"
INDEX_ENTRY = "rbpa: --index entries must be between -1200 and 1200\n"
INDEX_SUM = ("rbpa: the absolute values of the --index entries must sum to "
             "at most 2400\n")
INDEX_WORK = ("rbpa: (n_max+1) times the sum of |--index entries| must be at "
              "most 6000; lower --index or --n-max\n")
INDEX_LENGTH = "rbpa: --index has at most 10 entries\n"


@pytest.mark.parametrize("argv, message", [
    ("seq --family p --r 1000000000 --j 1 --n-max 500", R_TOO_LARGE),
    ("seq --family p --r 101 --j 1 --n-max 3", R_TOO_LARGE),
    ("seq --family W --r 101 --n-max 3", R_TOO_LARGE),
    ("cycle --family p --r 101 --j 1 --n-max 9", R_TOO_LARGE),
    ("cycle --family W --r 1000000000 --n-max 9", R_TOO_LARGE),
    ("egf --r 1000000000 --j 1 --order 500", R_TOO_LARGE),
    ("egf --r 101 --j 1 --order 3 --reciprocal", R_TOO_LARGE),
    ("seq --family B --index 20 --n-max 500", INDEX_WORK),
    ("seq --family B --index 100 --n-max 500", INDEX_WORK),
    ("seq --family B --index -1200,0 --n-max 500", INDEX_WORK),
    ("seq --family U --index 13 --n-max 499", INDEX_WORK),
    ("cycle --family B --index -601 --n-max 9", INDEX_WORK),
    ("seq --family B --index -2999,0 --n-max 1", INDEX_ENTRY),
    ("seq --family B --index -5999,0 --n-max 0", INDEX_ENTRY),
    ("seq --family U --index 200000 --n-max 5", INDEX_ENTRY),
    ("cycle --family U --index 0,1201 --n-max 9", INDEX_ENTRY),
    ("seq --family B --index -1200,-1200,-1 --n-max 0", INDEX_SUM),
    ("seq --family U --index " + ",".join(["0"] * 11) + " --n-max 3",
     INDEX_LENGTH),
])
def test_oversized_r_and_index_are_refused_before_any_route_runs(
        capsys, no_routes, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err == message


def test_r_and_index_run_at_their_bounds(capsys):
    code, out, _ = run(capsys, "seq", "--family", "p", "--r", str(R_CLI_MAX),
                       "--j", "1", "--n-max", "3")
    assert code == 0
    assert json.loads(out)["values"] == list(p_egf(R_CLI_MAX, 1, 3).values)
    code, out, _ = run(capsys, "egf", "--r", str(R_CLI_MAX), "--j", "1",
                       "--order", "2")
    assert code == 0
    # (n_max+1) * 600 = 6000 at n_max = 9; 2400 in sum; ten entries
    for argv in (["cycle", "--family", "B", "--index", "-600", "--n-max", "9"],
                 ["seq", "--family", "B", "--index", "600", "--n-max", "9"],
                 ["seq", "--family", "U", "--index", "-1200,-1200",
                  "--n-max", "1"],
                 ["seq", "--family", "U", "--index", ",".join(["0"] * 10),
                  "--n-max", "3"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
    assert json.loads(out)["values"] == [u_number((0,) * 10, n) for n in range(4)]


def test_cycle_holds(capsys):
    code, out, _ = run(capsys, "cycle", "--family", "B", "--index", "-2",
                       "--n-max", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["offset"] == 1


def test_cycle_requires_enough_values(capsys):
    code, _, err = run(capsys, "cycle", "--family", "W", "--r", "2",
                       "--n-max", "8")
    assert code == 2
    assert "9" in err


def test_cycle_rejects_rational_family(capsys):
    code, _, err = run(capsys, "cycle", "--family", "B", "--index", "2",
                       "--n-max", "13")
    assert code == 2
    assert "integer" in err


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "T3", "--set", "r=1", "--set", "j=1",
                       "--set", "n=0,1,2,3")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 4
    assert all(r["pass"] for r in reports)
    assert set(reports[0]) == {"id", "params", "lhs", "rhs", "pass", "note"}


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "TYPO")
    assert code == 2
    assert "unknown identity" in err


def test_verify_bad_override(capsys):
    code, _, err = run(capsys, "verify", "T3", "--set", "r=a,b")
    assert code == 2
    assert "integers" in err
    code, _, err = run(capsys, "verify", "T3", "--set", "nope")
    assert code == 2


def test_verify_set_without_identity(capsys):
    code, _, err = run(capsys, "verify", "--set", "n=1")
    assert code == 2


@pytest.mark.parametrize(
    "ident, n_max",
    [("CYCLE_P", "3"), ("CYCLE_B2", "8"), ("CYCLE_BMULTI", "8"), ("CYCLE_U", "8")],
)
def test_verify_cycle_window_too_short_is_a_usage_error(capsys, ident, n_max):
    # a window shorter than nine values used to compare (almost) nothing
    # and report a pass
    code, out, err = run(capsys, "verify", ident, "--set", f"n_max={n_max}")
    assert code == 2
    assert out == ""
    assert err.startswith("rbpa: n_max must be >= 9")


@pytest.mark.parametrize("ident", ["T3B", "CYCLE_U", "CYCLE_BMULTI"])
def test_verify_refuses_an_int_for_a_multi_index(capsys, monkeypatch, no_routes, ident):
    # --set gives ints, which no multi-index evaluator can take
    monkeypatch.setattr(bernoulli, "multi_poly_bernoulli_li_sequence", _no_route)
    code, out, err = run(capsys, "verify", ident, "--set", "idx=3")
    assert code == 2
    assert out == ""
    assert err == f"rbpa: {ident}: idx takes multi-indices, not [3]\n"


def test_verify_without_bindings_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "EQ9", "--set", "r=3", "--set", "b=4")
    assert code == 2
    assert out == ""
    assert err.startswith("rbpa: EQ9: no binding to check")


def test_verify_diagnostic_identity_does_not_fail_the_run(capsys):
    code, out, _ = run(capsys, "verify", "UREL", "--set", "b=0",
                       "--set", "n=0,1")
    assert code == 0
    reports = json.loads(out)
    assert [r["pass"] for r in reports] == [True, False]


def test_verify_all_quick(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    summary = json.loads(out)
    assert summary["failed"] == 0
    assert summary["flagged"] > 0
    assert summary["profile"] == "quick"


def test_verify_list_prints_coverage(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert "T3" in out
    assert "diagnostic" in out
    assert "identities registered" in out


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "--family", "zzz", "--n-max", "3"])
    assert exc.value.code == 2


def _counting(monkeypatch, name):
    calls = []
    real = getattr(bernoulli, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bernoulli, name, counted)
    return calls


CYCLE_INTEGER = "rbpa: cycle check needs an integer family\n"
BFILE_INTEGER = "rbpa: bfile output needs integer values; use json or csv\n"


@pytest.mark.parametrize("argv, route, most_calls, message", [
    # B^{(11)}_0 = 1 and B^{(11)}_1 = 1/2048
    ("cycle --family B --index 11 --n-max 499", "poly_bernoulli", 2,
     CYCLE_INTEGER),
    ("seq --family B --index 11 --n-max 499 --format bfile",
     "poly_bernoulli", 2, BFILE_INTEGER),
    # U^{(3,3,3)}_0 = 1/216
    ("cycle --family U --index 3,3,3 --n-max 499", "u_stirling_sum", 1,
     CYCLE_INTEGER),
    ("seq --family U --index 3,3,3 --n-max 499 --format bfile",
     "u_stirling_sum", 1, BFILE_INTEGER),
])
def test_a_rational_family_is_refused_at_its_first_proper_fraction(
        capsys, monkeypatch, argv, route, most_calls, message):
    calls = _counting(monkeypatch, route)
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err == message
    assert 1 <= len(calls) <= most_calls


@pytest.mark.parametrize("argv, message", [
    ("seq --family B --n-max 3", "rbpa: family B needs --index\n"),
    ("seq --family U --n-max 3", "rbpa: family U needs --index\n"),
    ("seq --family W --n-max 3", "rbpa: family W needs --r\n"),
    ("seq --family W --r 0 --n-max 3", "rbpa: family W needs --r >= 1\n"),
    ("seq --family W --r 2 --n-max -1", "rbpa: --n-max must be >= 0\n"),
    ("egf --r 1 --j 1 --order -1", "rbpa: --order must be >= 0\n"),
    ("egf --r -1 --j 1 --order 3", "rbpa: --r and --j must be >= 0\n"),
    ("oracle --r 1 --j -1 --n-max 3", "rbpa: --r and --j must be >= 0\n"),
])
def test_missing_or_negative_arguments_are_usage_errors(
        capsys, no_routes, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err == message


def test_verify_exits_1_when_a_check_fails(capsys, monkeypatch):
    spec = REGISTRY.get("L1")
    monkeypatch.setitem(REGISTRY._specs, "L1", IdentitySpec(
        spec.ident, spec.anchor, spec.lhs_method, spec.rhs_method,
        spec.domain, lambda s, n: (0, 1, None), spec.diagnostic,
        spec.constraint,
    ))
    code, out, err = run(capsys, "verify", "L1", "--set", "s=2", "--set", "n=1")
    assert code == 1
    assert err == ""
    assert [r["pass"] for r in json.loads(out)] == [False]
