"""Spans around the bindings through which the benchmark and the ebconst
modules call each other.

Each traced binding is a module attribute (for example `lemmas.ln_bounds`)
replaced by a wrapper that records one span per call: name, start, end,
parent span and op id. Spans stay in memory until the run ends. Self time
is a span's duration minus the durations of its direct children; calls are
synchronous on one thread, so children never overlap. A binding that the
library no longer has is reported as missing and skipped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import defaultdict
from time import perf_counter

from workloads import SERIES_BAND_MAX


def _window_band(args, kwargs) -> str:
    pos = args[0] if args else kwargs["pos"]
    return "digit_window.series" if pos <= SERIES_BAND_MAX else "digit_window.divisor"


def _sieve_entries(args, kwargs) -> int:
    return args[0] if args else kwargs["limit"]


# (module, attribute, span name or namer, extra count or None)
BINDINGS = [
    # Calls the benchmark makes, through the package namespace.
    ("ebconst", "expand_sieve", "expand_sieve", None),
    ("ebconst", "bits_to_hex", "bits_to_hex", None),
    ("ebconst", "scan_block", "scan_block", None),
    ("ebconst", "digit_window", _window_band, None),
    ("ebconst", "select_primes", "select_primes", None),
    ("ebconst", "build_witness_system", "build_witness_system", None),
    ("ebconst", "search_witness", "search_witness", None),
    ("ebconst", "certificate_to_json", "certificate_json", None),
    ("ebconst", "certificate_from_json", "certificate_json", None),
    ("ebconst", "verify_certificate", "verify_certificate", None),
    ("ebconst", "check_lemma2", "check_lemma2", None),
    ("ebconst", "factorize", "factorize", None),  # for its cache_clear
    # Calls between ebconst modules.
    ("ebconst.digits", "divisor_sieve", "divisor_sieve", _sieve_entries),
    ("ebconst.divisors", "divisor_sieve", "divisor_sieve", _sieve_entries),
    ("ebconst.divisors", "factorize", "factorize", None),
    ("ebconst.divisors", "is_prime", "is_prime", None),
    ("ebconst.construction", "is_prime", "is_prime", None),
    ("ebconst.construction", "crt_solve", "crt_solve", None),
    ("ebconst.construction", "build_witness_system", "build_witness_system", None),
    ("ebconst.construction", "tail_estimate", "tail_estimate", None),
    ("ebconst.construction", "digit_window", _window_band, None),
    ("ebconst.construction", "fractional_part_enclosure",
     "fractional_part_enclosure", None),
    ("ebconst.lemmas", "progression_divisor_sum", "progression_divisor_sum", None),
    ("ebconst.lemmas", "ln_bounds", "ln_bounds", None),
    ("ebconst.lemmas", "sqrt_bounds", "sqrt_bounds", None),
]


class Tracer:
    """Records spans while an op is open; outside ops wrappers pass through."""

    def __init__(self):
        # (op, name, parent index, start, end, self_s, outermost of its name)
        self.spans: list[tuple] = []
        self.extra: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.op: int | None = None
        self._stack: list[list] = []  # [span index, child seconds]
        self._open: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []
        # LRU statistics per span name: [hits, misses] and the last reading.
        self.cache: dict[str, list[int]] = {}
        self._cache_base: dict[str, object] = {}
        self._cached: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, namer, counter in BINDINGS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if target is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, target))
            setattr(module, attr, self._wrap(target, namer, counter))

    def uninstall(self) -> None:
        for module, attr, target in reversed(self._restore):
            setattr(module, attr, target)
        self._restore.clear()

    def _wrap(self, fn, namer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            if counter is not None:
                self.extra[f"{name}.entries"] += counter(args, kwargs)
            return self._call(name, fn, args, kwargs)

        if hasattr(fn, "cache_info"):
            # cache_clear also zeroes the statistics, so bank them first.
            def cache_clear():
                self._bank(namer, fn)
                fn.cache_clear()
                self._cache_base[namer] = fn.cache_info()

            traced.cache_info = fn.cache_info
            traced.cache_clear = cache_clear
            self.cache.setdefault(namer, [0, 0])
            self._cache_base[namer] = fn.cache_info()
            self._cached.append((namer, fn))
        return traced

    def _bank(self, name, fn) -> None:
        info, base = fn.cache_info(), self._cache_base[name]
        self.cache[name][0] += info.hits - base.hits
        self.cache[name][1] += info.misses - base.misses
        self._cache_base[name] = info

    def bank_caches(self) -> None:
        """Fold the statistics since the last reading into self.cache."""
        for name, fn in self._cached:
            self._bank(name, fn)

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            # A span nested in one of the same name adds no busy time.
            outer = self._open[name] == 0
            self.spans[index] = (self.op, name, parent, start, end,
                                 duration - frame[1], outer)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans) and self_s."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for _op, name, _parent, start, end, self_s, outer in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            if outer:
                entry["busy_s"] += end - start
        return dict(out)

    def calls_under(self, name: str, root: str) -> int:
        """Spans called `name` that have an ancestor called `root`."""
        count = 0
        for _op, span_name, parent, *_ in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][1] != root:
                parent = self.spans[parent][2]
            count += parent >= 0
        return count

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as f:
            for op, name, parent, start, end, self_s, _ in self.spans:
                f.write(json.dumps([op, name, parent, start, end, self_s]) + "\n")
