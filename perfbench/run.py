"""Benchmark for rbpa: whole workloads end to end, and each module as a layer.

    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; rbpa is imported from ./src.
Every measured run of the workload happens in a fresh single-threaded
interpreter (perfbench/child.py), so every module-level cache starts
cold, and the children run one after another (a closed loop with one
client) until --seconds have passed. Outputs are checked against a
second route after timing. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1. The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MIN_RUNS = 3  # workload runs per measurement, however long they take
SETUP_RUNS = 6  # extra import-only runs, so setup_s is a median of many
CHILD_TIMEOUT_S = 150


def run_child(workload: str, seed: int, size: str, mode: str) -> dict | None:
    """One fresh interpreter; None if it failed or printed no result."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    argv = [sys.executable, CHILD, ROOT, workload, str(seed), size, mode]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} run timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"perfbench: {mode} run exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, size: str, mode: str, seconds: float) -> list:
    """Runs back to back for `seconds` (at least MIN_RUNS); a failed run ends it."""
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        run = run_child(workload, seed, size, mode)
        runs.append(run)
        if run is None:
            break
    return runs


def count_failures(runs: list, expected: list) -> tuple[int, int]:
    """(operations attempted, operations failed) over every run."""
    attempted = failed = 0
    for run in runs:
        attempted += len(expected)
        if run is None:
            failed += len(expected)
            continue
        records = run["records"]
        failed += abs(len(records) - len(expected))
        failed += sum(got != want for got, want in zip(records, expected))
    return attempted, failed


def percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end_values(setups: list, plain: list) -> dict:
    latencies = [t for r in plain for t in r["latencies"]]
    imports = [r["setup_s"] for r in setups + plain]
    print(f"setup_s is the median of {len(imports)} imports; wall_s and "
          f"peak_rss_mb are medians of {len(plain)} runs; the call "
          f"percentiles pool {len(latencies)} operations")
    return {
        "setup_s": statistics.median(imports),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "call_p50_ms": 1000 * percentile(latencies, 50),
        "call_p90_ms": 1000 * percentile(latencies, 90),
    }


def layer_values(plain: list, traced: list, units: dict) -> dict:
    """Median of each per-layer metric over the traced runs."""
    layers = {}
    for run in traced:
        for name, value in run["layers"].items():
            layers.setdefault(name, []).append(value)
    values = {}
    for name in units:
        if name in layers:
            counted = all(isinstance(v, int) for v in layers[name])
            mid = statistics.median_low if counted else statistics.median
            values[name] = mid(layers[name])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = traced_wall - statistics.median(
        r["wall_s"] for r in plain
    )
    absent = set(traced[0]["absent"]) | (set(units) - set(values))
    if absent:
        print("absent in this tree: " + ", ".join(sorted(absent)))
    print(f"layer values are medians of {len(traced)} traced runs; "
          f"trace.overhead_s compares them with {len(plain)} untraced runs")
    return values


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=workloads.SIZES, default="full",
        help="toy shrinks every workload, for the benchmark's own test",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rbpa", "__init__.py")):
        print(f"perfbench: no rbpa sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    w, seed, size = args.workload, args.seed, args.size
    print(json.dumps({"workload": w, "seed": seed, "size": size,
                      "trace": args.trace, "machine": machine()}))

    if run_child(w, seed, size, "setup") is None:  # compiles bytecode, untimed
        return 2
    setups = [run_child(w, seed, size, "setup") for _ in range(SETUP_RUNS)]
    if args.trace:
        plain = measure(w, seed, size, "plain", args.seconds / 2)
        traced = measure(w, seed, size, "trace", args.seconds / 2)
    else:
        plain = measure(w, seed, size, "plain", args.seconds)
        traced = []

    # checks, outside every timed region
    inputs = workloads.make_inputs(w, seed, size)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    expected = workloads.expected_outputs(w, inputs, size)
    attempted, failed = count_failures(plain + traced, expected)
    ok_plain = [r for r in plain if r is not None]
    ok_traced = [r for r in traced if r is not None]
    complete = (
        all(r is not None for r in setups + plain + traced)
        and ok_plain and (ok_traced or not args.trace)
    )
    print(f"checked {attempted} operations against a second route: "
          f"{failed} failed, fail_frac {failed / attempted:.4g}")

    values = {}
    if complete:
        if args.trace:
            values = layer_values(ok_plain, ok_traced, units)
        else:
            values = end_to_end_values(setups, ok_plain)
        for name, value in values.items():
            print(f"{name:<50} {value:>14.6g} {units[name]}")
    else:
        print("perfbench: a run failed; no metrics", file=sys.stderr)

    correct = bool(complete) and failed == 0
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
