"""Workload inputs, execution and output checks for the rbpa benchmark.

Every workload is a pure function of (seed, size): `make_inputs` draws
parameters from fixed ranges, so every seed gives work of comparable
size. `execute` runs inside a fresh interpreter (see child.py) and
returns the operations' outputs as strings together with the latency
of each user-visible operation. `expected_outputs` computes the same
outputs along a second route; it runs in the parent, after timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time

WORKLOADS = ("verify_full", "seq_tables", "point_queries")
SIZES = ("full", "toy")

# `rbpa verify` stdout at the commit that defined this benchmark. The
# output is byte-deterministic, so any change here is a regression.
VERIFY_EXPECTED = {
    "full": {
        "profile": "full",
        "rc": 0,
        "checks": 5201,
        "failed": 0,
        "flagged": 314,
        "sha256": "2c857455a0f539663ae970cfdb9c6c44ed824ae7a9fbedc379ee50339b1c726c",
    },
    "toy": {
        "profile": "quick",
        "rc": 0,
        "checks": 1008,
        "failed": 0,
        "flagged": 79,
        "sha256": "0f1dda3df1cb603f4a5e79a0ad180dea9a9a4ee9df0976ec7057e6a47f41231a",
    },
}

SEQ_N_MAX = {"full": 200, "toy": 30}

# point_queries: calls per function, and the n range each group sweeps
P_FUNCS = ("p_recurrence", "p_binomial_shift", "p_double_sum", "p_series_certified")
BU_FUNCS = ("multi_poly_bernoulli", "u_number", "u_via_shift", "poly_bernoulli")
# multi-indices for the B/U calls: lengths 1..3, entries 0..3
MULTI_INDICES = ([1], [2], [3], [0, 1], [1, 1], [2, 1], [3, 2], [1, 0, 1],
                 [2, 1, 1], [3, 2, 1], [0, 0, 3], [3, 3, 3])
POINT_SIZES = {
    # size: (p calls per function, p n_max, B/U calls per function, B/U n_max)
    "full": (40, 40, 60, 60),
    "toy": (5, 10, 5, 12),
}


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """The workload's parameters; the same (seed, size) gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_full":
        return {"profile": VERIFY_EXPECTED[size]["profile"]}
    if workload == "seq_tables":
        # one table per j = 1..4 with distinct seed-chosen r in 0..4, so
        # the cost mix of the four Egf chains is the same for every seed
        rs = rng.sample(range(5), 4)
        tables = [(r, j, SEQ_N_MAX[size]) for j, r in zip((1, 2, 3, 4), rs)]
        rng.shuffle(tables)
        return {"tables": tables}
    if workload == "point_queries":
        # Each function sweeps n evenly and takes every j, k or index
        # equally often, so every seed has the same mix of call costs.
        # All p routes share one j offset: p_binomial_shift then needs
        # the r = 0 rows (j, n) and the series forms the rows (j-1, n),
        # the same number of distinct _p_row tables for every seed.
        # The seed decides r, which parameters meet and the call order.
        p_calls, p_n, bu_calls, bu_n = POINT_SIZES[size]
        calls = []
        offset = rng.randrange(4)
        for func in P_FUNCS:
            for i in range(p_calls):
                n = 1 + i * p_n // p_calls
                calls.append([func, rng.randrange(5), 1 + (n + offset) % 4, n])
        for func in BU_FUNCS:
            pool = [1, 2, 3, 4] if func == "poly_bernoulli" else list(MULTI_INDICES)
            params = [pool[i % len(pool)] for i in range(bu_calls)]
            rng.shuffle(params)
            for i, param in enumerate(params):
                calls.append([func, param, 1 + i * bu_n // bu_calls])
        rng.shuffle(calls)
        return {"calls": calls, "bu_n_max": bu_n}
    raise ValueError(f"unknown workload {workload!r}")


def encode(value) -> str:
    """Canonical text for an int or Fraction result."""
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


# execution, inside the measured child process


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def execute(workload: str, inputs: dict) -> tuple[list, list, float]:
    """Run the workload once: (raw outputs, per-operation seconds, wall seconds).

    An operation of verify_full is one check of the verify run (one
    evaluation of both sides of an identity at one binding), timed
    through a thin wrapper on the registry entries.
    """
    if workload == "verify_full":
        return _execute_verify(inputs)
    if workload == "seq_tables":
        return _execute_seq(inputs)
    return _execute_points(inputs)


def _timed(fn, latencies: list):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - t0)

    return timed


def _execute_verify(inputs: dict):
    from rbpa import cli, identities

    latencies = []
    registry = identities.REGISTRY
    for ident in registry.ids():
        spec = registry.get(ident)
        # registry entries are frozen dataclasses
        object.__setattr__(spec, "evaluate", _timed(spec.evaluate, latencies))
    t0 = time.perf_counter()
    rc, out = _run_cli(cli, ["verify", "--profile", inputs["profile"]])
    wall = time.perf_counter() - t0
    return [(rc, out)], latencies, wall


def _execute_seq(inputs: dict):
    from rbpa import cli

    outputs, latencies = [], []
    t_start = time.perf_counter()
    for r, j, n_max in inputs["tables"]:
        argv = ["seq", "--family", "p", "--r", str(r), "--j", str(j),
                "--n-max", str(n_max)]
        t0 = time.perf_counter()
        outputs.append(_run_cli(cli, argv))
        latencies.append(time.perf_counter() - t0)
    return outputs, latencies, time.perf_counter() - t_start


def _execute_points(inputs: dict):
    from rbpa import bernoulli, counts

    modules = {name: counts for name in P_FUNCS}
    modules.update({name: bernoulli for name in BU_FUNCS})
    outputs, latencies = [], []
    t_start = time.perf_counter()
    for func, *args in inputs["calls"]:
        if func in BU_FUNCS and isinstance(args[0], list):
            args[0] = tuple(args[0])
        target = getattr(modules[func], func)
        t0 = time.perf_counter()
        try:
            value = target(*args)
        except Exception as exc:  # a raising call is a failed operation
            value = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(value)
    wall = time.perf_counter() - t_start
    encoded = []
    for value in outputs:
        if isinstance(value, Exception):
            encoded.append(f"error: {type(value).__name__}: {value}")
        elif isinstance(value, tuple):  # p_series_certified: (value, certificate)
            encoded.append(encode(value[0]))
        else:
            encoded.append(encode(value))
    return encoded, latencies, wall


def summarize(workload: str, raw: list) -> list:
    """Reduce raw outputs to the comparable per-operation records."""
    if workload == "verify_full":
        (rc, out), = raw
        try:
            summary = json.loads(out)
            counts = [summary["checks"], summary["failed"], summary["flagged"]]
        except (ValueError, KeyError, TypeError):
            counts = None
        return [{
            "rc": rc,
            "counts": counts,
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
        }]
    if workload == "seq_tables":
        records = []
        for rc, out in raw:
            try:
                values = [str(v) for v in json.loads(out)["values"]]
            except (ValueError, KeyError, TypeError):
                values = None
            records.append({"rc": rc, "values": values})
        return records
    return raw


# second routes, in the parent after timing


def expected_outputs(workload: str, inputs: dict, size: str) -> list:
    """Per-operation records every run must reproduce, from a second route."""
    if workload == "verify_full":
        exp = VERIFY_EXPECTED[size]
        return [{
            "rc": exp["rc"],
            "counts": [exp["checks"], exp["failed"], exp["flagged"]],
            "sha256": exp["sha256"],
        }]
    if workload == "seq_tables":
        from rbpa.counts import p_recurrence

        return [
            {"rc": 0, "values": [str(p_recurrence(r, j, n)) for n in range(n_max + 1)]}
            for r, j, n_max in inputs["tables"]
        ]
    return _expected_points(inputs)


def _expected_points(inputs: dict) -> list:
    from rbpa import bernoulli, counts

    li_rows = {}
    out = []
    for func, *args in inputs["calls"]:
        if func == "p_recurrence":
            r, j, n = args
            value = counts.p_egf(r, j, n)[n]
        elif func in P_FUNCS:
            value = counts.p_recurrence(*args)
        elif func == "u_number":
            value = bernoulli.u_via_shift(tuple(args[0]), args[1])
        elif func == "u_via_shift":
            value = bernoulli.u_number(tuple(args[0]), args[1])
        elif func == "poly_bernoulli":
            value = bernoulli.poly_bernoulli_double_sum(*args)
        else:
            # the li expansion is one independent row per distinct index;
            # u_from_mu would not do, it reads the same mu_table
            idx, n = tuple(args[0]), args[1]
            if idx not in li_rows:
                li_rows[idx] = bernoulli.multi_poly_bernoulli_li_sequence(
                    idx, inputs["bu_n_max"]
                )
            value = li_rows[idx][n]
        out.append(encode(value))
    return out
