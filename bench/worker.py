"""One benchmark process: import ebconst from the checkout, warm up, then run
one workload as a closed loop with a single client and print a JSON result.

    python3 bench/worker.py '{"workload": "window", "seed": 1, "role": "timed",
                              "seconds": 10}'

Roles: "setup" stops after warm-up; "timed" reads the machine speed
(speed.py) after every slice of ops and runs ops until `seconds` of busy
time at nominal speed have passed, so that the number of ops does not
depend on how fast the machine is; "pass" runs exactly `ops` ops, traced
when "trace" is true. The parent takes the spawn time, so the reported
`ready` instant (CLOCK_MONOTONIC, shared by all processes) gives the set-up
time including interpreter start and `import ebconst`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# A timed run reads the machine speed after every slice of this many seconds
# of op time (or after one op, if an op takes longer), and spends this share
# of the slice's op time on the reading.
SLICE_S = 0.25
READ_SHARE = 0.2


def _timed_loop(workload, spec, tracer, gauge):
    seconds = spec.get("seconds")
    limit = spec.get("ops")
    latencies, errors, funnel = [], [], {}
    busy = 0.0
    units = 0
    # slowdowns[i]: mean of the speed readings before and after op i's slice;
    # paced: busy time of the closed slices at nominal speed.
    slowdowns, slice_start, slice_busy, paced = [], 0, 0.0, 0.0
    reading = gauge.read() if gauge is not None else 1.0

    def close_slice():
        nonlocal reading, slice_start, slice_busy, paced
        after = gauge.read(READ_SHARE * slice_busy) if gauge is not None else 1.0
        slowdown = (reading + after) / 2
        slowdowns.extend([slowdown] * (len(latencies) - slice_start))
        paced += slice_busy / slowdown
        reading, slice_start, slice_busy = after, len(latencies), 0.0

    for index, x in enumerate(workload.inputs()):
        if (limit is not None and index >= limit) or (
                limit is None and paced >= seconds and index % workload.BLOCK == 0):
            break
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            out = workload.run(x)
            error = None
        except Exception:  # an op failure is counted, and the run goes on
            out = None
            error = traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        busy += elapsed
        latencies.append(elapsed)
        slice_busy += elapsed
        if slice_busy >= SLICE_S:
            close_slice()
        if error is None:
            error = workload.check(x, out)
        if error is None:
            units += workload.units(x, out)
            for key, value in workload.funnel(out).items():
                funnel[key] = funnel.get(key, 0) + value
        else:
            errors.append(f"op {index}: {error}")
    if slice_start < len(latencies):
        close_slice()
    return latencies, slowdowns, busy, units, errors, funnel


def main() -> int:
    spec = json.loads(sys.argv[1])
    if not os.path.isfile(os.path.join(SRC, "ebconst", "__init__.py")):
        print(f"no ebconst package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ebconst
    import numpy

    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](ebconst, spec["seed"])
    workload.warm_up()
    result = {"ready": time.monotonic(),
              "env": {"numpy": numpy.__version__, "sizes": workload.sizes}}
    if spec["role"] == "setup":
        print(json.dumps(result))
        return 0

    gauge = None
    if spec["role"] == "timed":
        from speed import Gauge

        gauge = Gauge(workload.REFERENCE)
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, slowdowns, busy, units, errors, funnel = _timed_loop(
        workload, spec, tracer, gauge)
    # Peak memory of the run itself, before any oracle is loaded for checks.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_ops = len(errors)
    deferred = workload.deferred_checks()
    errors += [f"deferred check: {e}" for e in deferred]
    result.update(latencies=latencies, slowdowns=slowdowns, busy_s=busy, units=units,
                  failed=failed_ops + len(deferred), errors=errors[:20],
                  funnel=funnel)
    if tracer is not None:
        tracer.bank_caches()
        result["trace"] = {
            "summary": tracer.summary(),
            "extra": dict(tracer.extra),
            "cache": tracer.cache,
            "missing": tracer.missing,
            "under": {f"{name}/{root}": tracer.calls_under(name, root)
                      for name, root in (("tail_estimate", "search_witness"),
                                         ("divisor_sieve", "expand_sieve"))},
            "spans": len(tracer.spans),
        }
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
