"""Self-tests of the benchmark's own code.

    python3 bench/selftest.py

Exits 1 if any test fails. The file is not named test_*.py so that the
repository's pytest run does not collect it.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ebconst as eb  # noqa: E402

import run as bench_run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FACTOR_LIMIT, WORKLOADS, Lemma2, Witness, oracle_window  # noqa: E402


def test_generators_are_deterministic_per_seed():
    for name, cls in WORKLOADS.items():
        first = list(itertools.islice(cls(eb, 7).inputs(), 60))
        again = list(itertools.islice(cls(eb, 7).inputs(), 60))
        other = list(itertools.islice(cls(eb, 8).inputs(), 60))
        assert first == again, f"{name}: same seed gave different inputs"
        assert first != other, f"{name}: seeds 7 and 8 gave the same inputs"


def test_no_witness_system_crosses_factor_limit():
    workload = Witness(eb, 1)
    assert workload.pool, "the admissible prime-set pool is empty"
    library_limit = getattr(getattr(eb, "divisors", None), "FACTOR_LIMIT", FACTOR_LIMIT)
    assert FACTOR_LIMIT <= library_limit
    for primes in workload.pool:
        params = eb.WitnessParams(k=workload.K, primes=primes, m_max=workload.M_MAX)
        system = eb.build_witness_system(*eb.select_primes(params))
        last = system.r + (workload.M_MAX - 1) * system.A + workload.MARGIN
        assert last <= FACTOR_LIMIT, f"{primes}: scan reaches {last}"


def test_timed_lemma2_region_builds_no_divisor_table():
    workload = Lemma2(eb, 3)
    workload.warm_up()
    tracer = Tracer()
    tracer.install()
    try:
        for index, instance in enumerate(itertools.islice(workload.inputs(), 400)):
            tracer.op = index
            workload.run(instance)
            tracer.op = None
    finally:
        tracer.uninstall()
    calls = tracer.summary().get("divisor_sieve", {}).get("calls", 0)
    assert calls == 0, f"{calls} divisor_sieve calls inside the timed region"


def test_sympy_window_oracle_agrees_with_library():
    from sympy import divisor_count

    for pos, width in ((2**21 + 5, 16), (10**9 + 7, 33), (2**44 - 3, 64)):
        assert oracle_window(divisor_count, pos, width) == eb.digit_window(pos, width)


def test_benchmark_json_names_every_emitted_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert declared == list(bench_run.END_TO_END.items())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    empty = {"trace": {"summary": {}, "extra": {}, "cache": {},
                       "under": {"tail_estimate/search_witness": 0,
                                 "divisor_sieve/expand_sieve": 0}},
             "funnel": {}}
    emitted = [(name, bench_run.unit_of(name))
               for name in bench_run.per_layer(empty, 0.0)]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == emitted


def main() -> int:
    failures = 0
    for name, test in sorted(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
            print(f"PASS {name}")
        except Exception:
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
