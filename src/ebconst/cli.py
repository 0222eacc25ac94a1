"""Command-line interface.

Exit codes: 0 success, 2 precondition/validation failure (including a
certificate that fails verification), 3 witness search exhausted without a
hit. Every refusal, a memory budget or the divisor-count ceiling as much
as a malformed input, exits 2 with one "error:" line through the single
error mapping in main. Data goes to stdout, diagnostics to stderr;
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import construction, lemmas, scanner
from .digits import (
    CertificationError,
    bits_to_hex,
    digit_window,
    expand_naive,
    expand_sieve,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_WITNESS = 3


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _cmd_digits(args) -> int:
    expand = expand_naive if args.method == "naive" else expand_sieve
    result = expand(args.n)
    if args.format == "hex":
        print(bits_to_hex(result.bits))
    else:
        prefix = f"{result.integer_part}." if args.with_integer_part else ""
        print(prefix + result.bits)
    return EXIT_OK


def _cmd_window(args) -> int:
    bits = digit_window(args.pos, args.width)
    print(bits_to_hex(bits) if args.format == "hex" else bits)
    return EXIT_OK


def _digit_source(args) -> str:
    if args.digits is not None:
        return args.digits
    if args.input is not None:
        return Path(args.input).read_text(encoding="ascii").strip()
    return expand_sieve(args.n).bits


def _cmd_scan(args) -> int:
    digits = _digit_source(args)
    if args.block_freq is not None:
        table = scanner.block_frequency_table(digits, args.block_freq)
        if args.format == "tsv":
            for block in sorted(table):
                print(f"{block}\t{table[block]}")
        else:
            _emit_json(table)
        return EXIT_OK
    report = scanner.scan_block(digits, args.pattern,
                                overlapping=not args.no_overlap)
    positions = None
    if args.max_positions is None or report.count <= args.max_positions:
        positions = report.positions.tolist()
    if args.format == "tsv":
        shown = "" if positions is None else ",".join(map(str, positions))
        print(f"{report.pattern}\t{report.count}\t{shown}")
    else:
        _emit_json({
            "pattern": report.pattern,
            "count": report.count,
            "overlapping": report.overlapping,
            "positions": positions,
            "window": list(report.window),
        })
    return EXIT_OK


def _parse_window(text: str) -> tuple[int, int]:
    low, _, high = text.partition(":")
    return int(low), int(high)


def _cmd_witness(args) -> int:
    window = _parse_window(args.window) if args.window else None
    primes = tuple(int(p) for p in args.primes.split(",")) if args.primes else None
    params = construction.WitnessParams(
        k=args.k, prime_window=window, primes=primes, m_max=args.m_max)
    outcome = construction.run_witness_pipeline(params)
    if isinstance(outcome, construction.NoWitnessInRange):
        print(
            f"no witness in range: scanned m < {outcome.m_scanned}, "
            f"{outcome.prime_hits} prime hits",
            file=sys.stderr,
        )
        return EXIT_NO_WITNESS
    print(construction.certificate_to_json(outcome))
    return EXIT_OK


def _cmd_verify(args) -> int:
    text = (sys.stdin.read() if args.stdin
            else Path(args.file).read_text(encoding="ascii"))
    report = construction.verify_certificate(
        construction.certificate_from_json(text))
    for result in report.results:
        print(f"{result.name}\t{'pass' if result.passed else 'FAIL'}\t{result.detail}")
    if not report.ok:
        raise ValueError("certificate failed verification")
    return EXIT_OK


def _cmd_erdos_run(args) -> int:
    groups = tuple(tuple(int(p) for p in group.split(",")) for group in args.group)
    result = construction.erdos_zero_run(
        construction.ErdosRunParams(t=args.t, prime_groups=groups))
    if args.format == "json":
        _emit_json({
            "x": str(result.x),
            "modulus": str(result.modulus),
            "checks": [
                {"j": j, "divisors": d, "modulus": req, "ok": ok}
                for j, d, req, ok in result.checks
            ],
            "ok": result.ok,
        })
    else:
        print(f"x={result.x}\tmodulus={result.modulus}")
        for j, d, req, ok in result.checks:
            print(f"j={j}\td(x+j)={d}\tmod={req}\t{'pass' if ok else 'FAIL'}")
    return EXIT_OK if result.ok else EXIT_USAGE


def _parse_fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator refused as a ValueError."""
    _, slash, den = text.partition("/")
    if slash and Fraction(den) == 0:
        raise ValueError(f"{text!r} has a zero denominator")
    return Fraction(text)


def _cmd_lemmas(args) -> int:
    if args.suite == "lemma2":
        instances = lemmas.generate_lemma2_instances(
            args.count, args.y_max, args.seed
        )
        failures = 0
        for instance in instances:
            report = lemmas.check_lemma2(instance)
            print(report.record())
            failures += not report.passed
        if failures:
            raise ValueError(f"{failures} instances failed")
        return EXIT_OK
    if args.tails:
        values = [_parse_fraction(v) for v in args.tails.split(",")]
        report = lemmas.check_lemma3_decomposition(
            None, args.k, args.k, args.k, tail_values=values
        )
    else:
        if None in (args.r, args.A, args.M):
            raise ValueError("lemma3 needs --tails or all of --r/--A/--M")
        report = lemmas.check_lemma3_decomposition(
            (args.r, args.A, args.M), args.k, args.L, args.cutoff, Y=args.Y)
    print(report.record())
    return EXIT_OK if report.passed else EXIT_USAGE


def _cmd_agp(args) -> int:
    report = lemmas.check_agp_progression(args.x, args.d, args.a)
    if args.format == "json":
        _emit_json({
            "X": report.X,
            "d": report.d,
            "a": report.a,
            "count": report.count,
            "phi": report.phi_d,
            "bound_upper": float(report.bound_upper),
            "satisfied": report.satisfied,
            "note": report.note,
        })
    else:
        print(report.record())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebconst",
        description="Certified binary digits of the Erdos-Borwein constant "
                    "and constructive digit-block witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digits", help="certified fractional bits")
    p.add_argument("--n", type=int, required=True, help="number of bits")
    p.add_argument("--method", choices=("naive", "sieve"), default="sieve")
    p.add_argument("--format", choices=("ascii", "hex"), default="ascii")
    p.add_argument("--with-integer-part", action="store_true")
    p.set_defaults(func=_cmd_digits)

    p = sub.add_parser("window", help="bits at a position without earlier digits")
    p.add_argument("--pos", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--format", choices=("ascii", "hex"), default="ascii")
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("scan", help="block occurrences in a digit stream")
    p.add_argument("--pattern", default="11")
    p.add_argument("--n", type=int, default=64,
                   help="compute this many bits when no digits are supplied")
    p.add_argument("--digits", help="literal 0/1 string to scan")
    p.add_argument("--input", help="file of ASCII 0/1 digits")
    p.add_argument("--no-overlap", action="store_true")
    p.add_argument("--block-freq", type=int,
                   help="emit the full frequency table of this block length")
    p.add_argument("--max-positions", type=int,
                   help="suppress the position list above this count")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("witness", help="search for a '11' digit-pair witness")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--window", help="inclusive prime window low:high")
    p.add_argument("--primes", help="explicit comma-separated prime list")
    p.add_argument("--m-max", type=int, default=100_000)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="re-verify a witness certificate")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--stdin", action="store_true")
    src.add_argument("--file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("erdos-run", help="zero-run congruence demo")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--group", action="append", required=True,
                   help="comma-separated primes; repeat per group")
    p.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p.set_defaults(func=_cmd_erdos_run)

    p = sub.add_parser("lemmas", help="inequality harness")
    p.add_argument("--suite", choices=("lemma2", "lemma3"), required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--y-max", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tails", help="comma-separated tail values (lemma3)")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--L", type=int, default=16)
    p.add_argument("--cutoff", type=int, default=67)
    p.add_argument("--r", type=int)
    p.add_argument("--A", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--Y", type=int)
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("agp", help="primes in an arithmetic progression")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=_cmd_agp)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
