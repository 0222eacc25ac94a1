"""Benchmark for ebconst: seeded workloads, end-to-end metrics and a traced
run for per-module numbers.

    python3 bench/run.py --workload window --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12

Each workload runs in its own single-threaded worker process as a closed
loop with one client (the next op starts when the previous one returns).
Only calls into the public ebconst API are timed; every output is checked
outside the timed region. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-module ones. Everything
else (environment, drift probe, sample counts, work counts, error details)
goes to the lines before it and to bench/results/.

Exit status: 0 when every check passed, 1 when an op failed or a check
disagreed (the result line is still printed), 2 when the benchmark could
not run at all (no ebconst sources, a worker crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("expand", "window", "witness", "lemma2")

# Set-up is measured in fresh processes, at least MIN and at most MAX of
# them, and no new one once BUDGET seconds have passed; the median is
# reported.
SETUP_SAMPLES_MIN, SETUP_SAMPLES_MAX, SETUP_BUDGET_S = 5, 9, 4.0
# A run must end within this many seconds, workers included.
RUN_DEADLINE_S = 170
# Ops per traced pass = seconds * rate / 4, so that the untraced and the two
# traced passes take about --seconds together on a shared 2-core x86 VM. The
# rates are constants, not measurements, so a pass's work counts depend
# only on seed and seconds and must repeat exactly.
TRACE_RATE = {"expand": 0.5, "window": 70, "witness": 25, "lemma2": 250}

WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                  OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(spec: dict, deadline: float) -> dict:
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, env=WORKER_ENV,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {spec} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {spec} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def drift_probe() -> float:
    """Median seconds of a fixed pure-Python kernel (modular big-int powers
    and list slicing). It is timed before and after each workload so that a
    slower machine can be told apart from a slower program."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1, 40_000):
            acc ^= pow(3, i, (1 << 127) - 1)
        cells = [0] * 100_000
        for d in range(1, 2_000):
            cells[d::d] = [1] * len(range(d, 100_000, d))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or (
            os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return None  # not a git checkout of this tree
    return lines[1]


def setup_samples(workload: str, seed: int, deadline: float) -> list[float]:
    """Set-up times of fresh processes."""
    samples = []
    started = time.monotonic()
    while len(samples) < SETUP_SAMPLES_MIN or (
            len(samples) < SETUP_SAMPLES_MAX
            and time.monotonic() - started < SETUP_BUDGET_S):
        samples.append(spawn({"workload": workload, "seed": seed, "role": "setup"},
                             deadline)["setup_s"])
    return samples


def timed_run(workload: str, seed: int, seconds: int, deadline: float):
    """Set-up samples plus one timed closed loop: end-to-end metrics.

    Every op time is divided by the machine's slowdown measured next to it
    (speed.py), so the op metrics are times at nominal machine speed; the
    raw times are in the report. Set-up times are raw: dividing them by
    speed readings taken around the set-up processes widened their spread,
    as start-up and imports do not follow the kernels' speed."""
    setups = setup_samples(workload, seed, deadline)
    run = spawn({"workload": workload, "seed": seed, "role": "timed",
                 "seconds": seconds}, deadline)
    raw_ms = [x * 1000 for x in run["latencies"]]
    lat_ms = [x / s for x, s in zip(raw_ms, run["slowdowns"])]
    n = len(lat_ms)
    busy = sum(lat_ms) / 1000
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / busy,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    report = {
        "setup_samples_s": setups,
        "busy_s": busy,
        "ops": n,
        "latencies_s": [x / 1000 for x in lat_ms],
        "error_rate": run["failed"] / n,
        "bits_per_s": run["units"] / busy if workload == "expand" else None,
        "latency_p99_ms": percentile(lat_ms, 99),
        # samples above each percentile, to judge how far it can be trusted
        "samples_above": {"p50": n - math.ceil(0.50 * n),
                          "p90": n - math.ceil(0.90 * n),
                          "p99": n - math.ceil(0.99 * n)},
        "slowdown": {"median": statistics.median(run["slowdowns"]),
                     "min": min(run["slowdowns"]), "max": max(run["slowdowns"])},
        "raw": {"busy_s": run["busy_s"],
                "ops_per_s": n / run["busy_s"],
                "latency_p50_ms": percentile(raw_ms, 50),
                "latency_p90_ms": percentile(raw_ms, 90),
                "latency_p99_ms": percentile(raw_ms, 99)},
        "funnel": run["funnel"],
        "errors": run["errors"],
    }
    return metrics, n, run["failed"], report, run["env"]


def _work_counts(run: dict) -> dict[str, int]:
    trace = run["trace"]
    counts = {f"{name}.calls": int(s["calls"]) for name, s in trace["summary"].items()}
    counts.update(trace["extra"])
    for name, (hits, misses) in trace["cache"].items():
        counts[f"{name}.hits"], counts[f"{name}.misses"] = hits, misses
    counts.update(run["funnel"])
    return dict(sorted(counts.items()))


def per_layer(run: dict, overhead: float) -> dict[str, float]:
    trace = run["trace"]
    summary, under = trace["summary"], trace["under"]

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    hits, misses = trace["cache"].get("factorize", (0, 0))
    tails_in_search = under["tail_estimate/search_witness"]
    expand_calls = get("expand_sieve", "calls")
    out = {
        "divisor_sieve.calls": get("divisor_sieve", "calls"),
        "divisor_sieve.entries": trace["extra"].get("divisor_sieve.entries", 0),
        "divisor_sieve.busy_s": get("divisor_sieve", "busy_s"),
        "factorize.calls": get("factorize", "calls"),
        "factorize.misses": misses,
        "factorize.busy_s": get("factorize", "busy_s"),
        "factorize.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "is_prime.calls": get("is_prime", "calls"),
        "is_prime.busy_s": get("is_prime", "busy_s"),
        "progression_divisor_sum.calls": get("progression_divisor_sum", "calls"),
        "progression_divisor_sum.busy_s": get("progression_divisor_sum", "busy_s"),
        "crt_solve.calls": get("crt_solve", "calls"),
        "crt_solve.busy_s": get("crt_solve", "busy_s"),
        "expand_sieve.busy_s": get("expand_sieve", "busy_s"),
        "expand_sieve.self_s": get("expand_sieve", "self_s"),
        "expand_sieve.sieve_calls_per_op": (
            under["divisor_sieve/expand_sieve"] / expand_calls if expand_calls else 0.0),
        "bits_to_hex.busy_s": get("bits_to_hex", "busy_s"),
        "digit_window.series.calls": get("digit_window.series", "calls"),
        "digit_window.series.busy_s": get("digit_window.series", "busy_s"),
        "digit_window.divisor.calls": get("digit_window.divisor", "calls"),
        "digit_window.divisor.busy_s": get("digit_window.divisor", "busy_s"),
        "fractional_part_enclosure.calls": get("fractional_part_enclosure", "calls"),
        "fractional_part_enclosure.busy_s": get("fractional_part_enclosure", "busy_s"),
        "search_witness.busy_s": get("search_witness", "busy_s"),
        "verify_certificate.busy_s": get("verify_certificate", "busy_s"),
        "tail_estimate.calls": get("tail_estimate", "calls"),
        "tail_estimate.busy_s": get("tail_estimate", "busy_s"),
        "search.m_scanned": run["funnel"].get("search.m_scanned", 0),
        "search.prime_hits": run["funnel"].get("search.prime_hits", 0),
        "search.accept_ratio": (run["funnel"].get("search.certificates", 0)
                                / tails_in_search if tails_in_search else 0.0),
        "certificate_json.busy_s": get("certificate_json", "busy_s"),
        "check_lemma2.self_s": get("check_lemma2", "self_s"),
        "ln_bounds.calls": get("ln_bounds", "calls"),
        "ln_bounds.busy_s": get("ln_bounds", "busy_s"),
        "sqrt_bounds.calls": get("sqrt_bounds", "calls"),
        "sqrt_bounds.busy_s": get("sqrt_bounds", "busy_s"),
        "scan_block.busy_s": get("scan_block", "busy_s"),
        "trace.overhead": overhead,
    }
    return out


def traced_run(workload: str, seed: int, seconds: int, deadline: float):
    """An untraced and two traced passes over the same ops, each in a fresh
    process: per-module metrics, tracing overhead and a repeat check of the
    exact work counts."""
    ops = max(1, math.ceil(seconds * TRACE_RATE[workload] / 4))
    base = {"workload": workload, "seed": seed, "role": "pass", "ops": ops}
    os.makedirs(RESULTS, exist_ok=True)
    plain = spawn(dict(base, trace=False), deadline)
    traced = [
        spawn(dict(base, trace=True, spans_path=os.path.join(
            RESULTS, f"{workload}-seed{seed}-spans{i}.jsonl.gz")), deadline)
        for i in range(2)
    ]
    overhead = statistics.mean(t["busy_s"] for t in traced) / plain["busy_s"] - 1
    counts = [_work_counts(t) for t in traced]
    mismatched = sorted(k for k in counts[0].keys() | counts[1].keys()
                        if counts[0].get(k) != counts[1].get(k))
    failed = plain["failed"] + sum(t["failed"] for t in traced)
    report = {
        "ops": ops,
        "passes_busy_s": [plain["busy_s"]] + [t["busy_s"] for t in traced],
        "work_counts": counts[0],
        "work_counts_mismatched": mismatched,
        "missing_bindings": traced[0]["trace"]["missing"],
        "spans": traced[0]["trace"]["spans"],
        "errors": plain["errors"] + traced[0]["errors"] + traced[1]["errors"],
    }
    attempted = 3 * ops
    return (per_layer(traced[0], overhead), attempted, failed, report,
            plain["env"])


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    drift_before = drift_probe()
    runner = traced_run if trace else timed_run
    metrics, attempted, failed, report, worker_env = runner(
        workload, seed, seconds, deadline)
    drift_after = drift_probe()
    correct = failed == 0 and not report.get("work_counts_mismatched")
    record = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "report": report,
        "drift_probe_s": {"before": drift_before, "after": drift_after},
        "environment": {
            "python": platform.python_version(),
            "numpy": worker_env["numpy"],
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "sizes": worker_env["sizes"],
        },
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return record


def print_report(record: dict) -> None:
    env, report = record["environment"], record["report"]
    print(f"# {env['workload']} seed={env['seed']} seconds={env['seconds']} "
          f"trace={int(env['trace'])} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} commit={env['git_commit']} sizes={env['sizes']}")
    drift = record["drift_probe_s"]
    print(f"  drift_probe_s before={drift['before']:.4f} after={drift['after']:.4f}")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    for key in ("ops", "error_rate", "bits_per_s", "latency_p99_ms",
                "samples_above", "setup_samples_s", "slowdown", "raw", "funnel",
                "passes_busy_s", "missing_bindings", "work_counts_mismatched"):
        if report.get(key) is not None:
            print(f"  {key} = {report[key]}")
    for error in report["errors"]:
        print(f"  error: {error}")


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    if name.endswith("_per_op"):
        return "calls/op"
    return "count"


def result_line(record: dict) -> str:
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in record["metrics"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ebconst", "__init__.py")):
        print(f"bench: no ebconst sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(records[name])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "workloads": {name: r["metrics"] for name, r in records.items()},
        }))
    else:
        print(result_line(records[args.workload]))
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
