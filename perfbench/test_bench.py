"""Self-test of the benchmark at toy size.

    python3 -m pytest -q perfbench/test_bench.py

Runs each workload through run.main with the smallest inputs and shows
that a wrong expected value is caught: it raises `failed` and the exit
code. Not part of the package's test suite, because it starts dozens
of interpreters.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(capsys, workload, trace=0):
    rc = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--size", "toy",
    ])
    lines = capsys.readouterr().out.splitlines()
    return rc, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_run_is_correct_and_reports_every_end_to_end_metric(capsys, workload):
    rc, result = bench(capsys, workload)
    assert rc == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt(record):
    if isinstance(record, str):  # point_queries: encoded value
        return record + "0"
    record = dict(record)
    if "sha256" in record:  # verify_full
        record["sha256"] = "0" * 64
    else:  # seq_tables
        record["values"] = record["values"][:-1] + [str(int(record["values"][-1]) + 1)]
    return record


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_expected_value_raises_failed_and_exit_code(
    capsys, monkeypatch, workload
):
    real = workloads.expected_outputs

    def corrupted(*args):
        expected = real(*args)
        expected[0] = _corrupt(expected[0])
        return expected

    monkeypatch.setattr(workloads, "expected_outputs", corrupted)
    rc, result = bench(capsys, workload)
    assert rc == 1
    assert result["correct"] is False
    runs = result["attempted"] // len(real(
        workload, workloads.make_inputs(workload, 3, "toy"), "toy"
    ))
    assert result["failed"] == runs  # the first operation of every run


def test_traced_verify_reports_every_per_layer_metric(capsys):
    rc, result = bench(capsys, "verify_full", trace=1)
    assert rc == 0 and result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["identities.checks"]["value"] == workloads.VERIFY_EXPECTED["toy"]["checks"]
    # every product is one binomial per convolution term, plus the
    # binomials other layers call directly
    assert 0 < metrics["egf.conv_terms"]["value"] <= metrics["combinat.binomial.calls"]["value"]
    assert metrics["oracle.calls"]["value"] > 0


def test_missing_functions_are_absent_not_zero():
    values, absent = tracer.Tracer().metrics()  # nothing installed
    for name in ("counts.p_row.hits", "counts.p_egf.calls", "egf.mul.calls",
                 "counts.cert.terms", "combinat.binomial.calls"):
        assert name in absent
        assert name not in values
