"""One measured run of one workload, in a fresh single-threaded interpreter.

    python3 perfbench/child.py ROOT WORKLOAD SEED SIZE MODE

MODE is `setup` (import rbpa and stop), `plain` (untraced run) or
`trace` (run under the tracer). rbpa is imported from ROOT/src before
anything else, so every module-level cache starts cold, as it does for
a CLI user, and the import time is the user's set-up time. Prints one
JSON object on stdout.
"""

import sys
import time


def main() -> int:
    root, workload, seed, size, mode = sys.argv[1:6]
    src = f"{root}/src"
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import rbpa
    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource

    import workloads

    if os.path.dirname(os.path.abspath(rbpa.__file__)) != os.path.join(
        os.path.abspath(src), "rbpa"
    ):
        print(f"rbpa imported from {rbpa.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode != "setup":
        inputs = workloads.make_inputs(workload, int(seed), size)
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        raw, latencies, wall_s = workloads.execute(workload, inputs)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(
            wall_s=wall_s,
            peak_rss_mb=rss_kb / 1024,
            latencies=latencies,
            records=workloads.summarize(workload, raw),
        )
        if tracer is not None:
            result["layers"], result["absent"] = tracer.metrics()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
