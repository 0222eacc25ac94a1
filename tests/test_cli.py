import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebconst import cli
from ebconst.divisors import primes_in_range

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
GOLDEN_52 = "1001101101010000010111111001111001000011111100100010"


def run_cli(*args, stdin=None, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "ebconst", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        timeout=300,
        preexec_fn=preexec_fn,
    )


def test_digits_ascii_golden():
    result = run_cli("digits", "--n", "52", "--format", "ascii")
    assert result.returncode == 0
    assert result.stdout.strip() == GOLDEN_52


def test_digits_with_integer_part():
    result = run_cli("digits", "--n", "4", "--with-integer-part")
    assert result.stdout.strip() == "1.1001"


def test_digits_hex_packs_nibbles():
    result = run_cli("digits", "--n", "8", "--format", "hex")
    assert result.stdout.strip() == "9b"


def test_methods_agree():
    naive = run_cli("digits", "--n", "64", "--method", "naive")
    sieve = run_cli("digits", "--n", "64", "--method", "sieve")
    assert naive.stdout == sieve.stdout


def test_methods_agree_past_many_sieve_rows():
    naive = run_cli("digits", "--n", "5000", "--method", "naive", "--format", "hex")
    sieve = run_cli("digits", "--n", "5000", "--method", "sieve", "--format", "hex")
    assert naive.returncode == sieve.returncode == 0
    assert naive.stdout == sieve.stdout


def test_window_subcommand():
    result = run_cli("window", "--pos", "49", "--width", "4")
    assert result.stdout.strip() == "0010"


def test_unknown_subcommand_exits_2():
    result = run_cli("frobnicate")
    assert result.returncode == 2
    assert result.stdout == ""


def test_bad_flag_value_exits_2():
    result = run_cli("digits", "--n", "0")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_scan_json():
    result = run_cli("scan", "--pattern", "11", "--n", "52")
    payload = json.loads(result.stdout)
    assert payload["count"] == 15
    assert payload["positions"][0] == 4
    assert len(payload["positions"]) == 15
    assert all(type(i) is int for i in payload["positions"])


def test_scan_literal_digits_tsv():
    result = run_cli("scan", "--pattern", "11", "--digits", "111",
                     "--format", "tsv")
    assert result.stdout.strip() == "11\t2\t1,2"


def test_scan_position_suppression():
    result = run_cli("scan", "--pattern", "11", "--n", "52",
                     "--max-positions", "3")
    assert json.loads(result.stdout)["positions"] is None


def test_scan_block_frequency():
    result = run_cli("scan", "--n", "52", "--block-freq", "2")
    table = json.loads(result.stdout)
    assert sum(table.values()) == 51
    assert set(table) == {"00", "01", "10", "11"}


def test_witness_verify_round_trip():
    witness = run_cli("witness", "--k", "3", "--window", "5:20",
                      "--m-max", "100000")
    assert witness.returncode == 0
    verify = run_cli("verify", "--stdin", stdin=witness.stdout)
    assert verify.returncode == 0
    lines = [line for line in verify.stdout.splitlines() if line]
    assert all("\tpass\t" in line for line in lines)


def test_witness_exhausted_exits_3():
    result = run_cli("witness", "--k", "3", "--window", "5:20", "--m-max", "2")
    assert result.returncode == 3
    assert "no witness in range" in result.stderr


def test_witness_past_divisor_count_ceiling_exits_2():
    # k = 4 at 5:60 scans n near 2^66; the tail needs exact divisor counts,
    # which stop at 10^14: a capability limit, named and reached quickly.
    start = time.perf_counter()
    result = run_cli("witness", "--k", "4", "--window", "5:60")
    assert time.perf_counter() - start < 10
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert "supports n <= 100000000000000" in result.stderr


def test_witness_with_huge_k_exits_2_quickly():
    # k(k+1)/2 - 2 primes are needed; the count is a closed form, so the
    # refusal does not list range(k).
    start = time.perf_counter()
    result = run_cli("witness", "--k", "1000000000000", "--window", "5:20")
    assert time.perf_counter() - start < 10
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "requires 500000000000499999999998 distinct primes" in result.stderr


def test_verify_rejects_tampered_certificate(tmp_path):
    witness = run_cli("witness", "--k", "3", "--window", "5:20",
                      "--m-max", "100000")
    payload = json.loads(witness.stdout)
    payload["A"] = str(int(payload["A"]) + 25)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    verify = run_cli("verify", "--file", str(path))
    assert verify.returncode == 2
    assert "failed verification" in verify.stderr


@pytest.fixture(scope="module")
def certificate() -> dict:
    witness = run_cli("witness", "--k", "3", "--window", "5:20",
                      "--m-max", "100000")
    assert witness.returncode == 0
    return json.loads(witness.stdout)


def _edited(payload: dict, **changes) -> dict:
    tail = dict(payload["tail"], **changes.pop("tail", {}))
    return dict(payload, tail=tail, **changes)


@pytest.mark.parametrize("hostile", [
    "top_level_list",
    "null",
    "zero_value_den",
    "groups_list",
    "cutoff_span_past_cap",
    "cutoff_below_k",
    "n_plus_cutoff_past_limit",
    "digit_check_past_limit",
    "tail_n_differs",
    "tail_k_differs",
    "k_huge",
    "q0_zero",
    "q0_one",
    "q0_negative",
    "q0_past_witness_range",
    "deeply_nested",
    "infinite_k",
    "valuation_n_plus_2_cubed",
    "valuation_n_plus_2_not_squared",
    "groups_past_prime_cap",
    "string_flags",
    "float_k",
    "string_k",
    "string_group",
    "string_below_half_k",
    "tail_below_half_k_flipped",
])
def test_verify_hostile_certificate_exits_2(certificate, hostile):
    k, q0 = certificate["k"], int(certificate["q0"])
    payload = {
        "top_level_list": [certificate],
        "null": None,
        "zero_value_den": _edited(certificate, tail={"value_den": "0"}),
        "groups_list": _edited(certificate, groups=[["7"], ["11", "13"]]),
        "cutoff_span_past_cap": _edited(certificate, tail={"cutoff": k + 4097}),
        "cutoff_below_k": _edited(certificate, tail={"cutoff": k - 1}),
        "n_plus_cutoff_past_limit": _edited(certificate, n=str(10**14 - 10)),
        # Passes the tail gate (cutoff = k), but the digit window at n needs
        # divisor counts past 10**14.
        "digit_check_past_limit": _edited(certificate, n=str(10**14 - 40),
                                          tail={"cutoff": k}),
        "tail_n_differs": _edited(
            certificate, tail={"n": str(int(certificate["tail"]["n"]) + 12345)}),
        "tail_k_differs": _edited(certificate, tail={"k": 7}),
        # Consistent k, tail k and cutoff pass every span check; only the
        # cap on k stops the tail sum from allocating 2**(10**12).
        "k_huge": _edited(certificate, k=10**12,
                          tail={"k": 10**12, "cutoff": 10**12}),
        "q0_zero": _edited(certificate, q0="0"),
        "q0_one": _edited(certificate, q0="1"),
        "q0_negative": _edited(certificate, q0="-3"),
        # A prime past the Miller-Rabin bound, but q0**2 > n + 2 already.
        "q0_past_witness_range": _edited(certificate, q0=str(2**89 - 1)),
        # Past the JSON decoder's recursion limit.
        "deeply_nested": "[" * 200_000 + "]" * 200_000,
        # Serialized as Infinity, which int() cannot convert.
        "infinite_k": _edited(certificate, k=float("inf")),
        # n + 2 = q0**3 * p: q0**2 still divides it, q0**3 does too.
        "valuation_n_plus_2_cubed": _edited(
            certificate, n=str((int(certificate["n"]) + 2) * q0 - 2)),
        # n + 2 = q0**2 * p + 1: no longer a multiple of q0.
        "valuation_n_plus_2_not_squared": _edited(
            certificate, n=str(int(certificate["n"]) + 1)),
        # 16,000 genuine primes where k = 3 assigns 2 to group 1: rebuilding
        # that system would take about a second.
        "groups_past_prime_cap": _edited(certificate, groups=dict(
            certificate["groups"], **{"1": [str(p) for p in primes_in_range(
                10**6, 2 * 10**6)[:16_000].tolist()]})),
        # Each field in a JSON type certificate_to_json never writes there;
        # bool("false") and int("3") would read them as valid.
        "string_flags": _edited(certificate, checks=dict.fromkeys(
            certificate["checks"], "false")),
        "float_k": _edited(certificate, k=3.7),
        "string_k": _edited(certificate, k=str(k)),
        "string_group": _edited(certificate, groups=dict(
            certificate["groups"], **{"0": certificate["groups"]["0"][0]})),
        "string_below_half_k": _edited(certificate, tail_below_half_k="no"),
        # A false claim about the certificate's own tail.
        "tail_below_half_k_flipped": _edited(
            certificate,
            tail_below_half_k=not certificate["tail_below_half_k"]),
    }[hostile]
    text = payload if hostile == "deeply_nested" else json.dumps(payload)
    result = run_cli("verify", "--stdin", stdin=text)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")
    if hostile.startswith(("cutoff", "n_plus", "k_")):
        assert result.stdout.startswith("tail\tFAIL\t")
    if hostile.startswith("q0_"):
        assert "failed verification" in result.stderr
    if hostile.startswith("tail_"):
        failed = [line.split("\t")[0] for line in result.stdout.splitlines()
                  if "\tFAIL\t" in line]
        assert failed == ["tail", "stored_flags"]
    if hostile.startswith("valuation_"):
        assert "valuation\tFAIL\t" in result.stdout
    if hostile == "groups_past_prime_cap":
        assert "residues\tFAIL\trebuild failed: the groups hold 16001 " in result.stdout
    if hostile.startswith(("string_", "float_")):
        assert result.stdout == ""
        assert result.stderr.startswith("error: unreadable certificate: expected ")


# Every field of the desk certificate, one level deep, as a key path.
_CERT_FIELDS = (
    [(key,) for key in ("A", "B", "M", "P", "checks", "groups", "k", "m",
                        "n", "p", "paper_refs", "prime_hits", "q0", "r", "s",
                        "tail", "tail_below_half_k", "tail_window_index")]
    + [("tail", key) for key in ("cutoff", "k", "n", "remainder_den",
                                 "remainder_num", "value_den", "value_num")]
    + [("checks", key) for key in ("d6", "digits", "divisibility_pattern",
                                   "residues", "s_properties", "tail",
                                   "valuation")]
    + [(outer, key) for outer in ("groups", "P") for key in ("0", "1", "3")]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.integers(-2**70, 2**70).map(str) | st.text(max_size=12)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)
# 16,000 genuine primes in group 1, where k = 3 assigns 2.
_HUGE_GROUP = [str(p) for p in primes_in_range(10**6, 2 * 10**6)[:16_000].tolist()]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CERT_FIELDS), _JSON_VALUES),
                min_size=1, max_size=3))
@example([(("groups", "1"), _HUGE_GROUP)])
def test_verify_fuzzed_certificate_exits_0_or_2(certificate, edits):
    payload = json.loads(json.dumps(certificate))
    for (*outer, key), value in edits:
        target = payload[outer[0]] if outer else payload
        if isinstance(target, dict):  # an earlier edit may have replaced it
            target[key] = value
    text = json.dumps(payload)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--stdin"])
    assert time.perf_counter() - start < 5
    assert code in (0, 2)
    assert code == 0 or err.getvalue().startswith("error: ")


def _cap_memory():
    # The address-space cap keeps a regression from exhausting the machine.
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))


@pytest.mark.parametrize("args", [
    ("agp", "--x", "10000000000000", "--d", "12", "--a", "7"),
    ("witness", "--k", "3", "--window", "5:10000000000000"),
])
def test_prime_table_past_memory_budget_exits_2(args):
    result = run_cli(*args, preexec_fn=_cap_memory)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: a prime table up to 10000000000000 ")


@pytest.mark.parametrize("args", [
    # A divisor table past the sieve memory budget.
    ("scan", "--n", "300000000"),
    ("lemmas", "--suite", "lemma3", "--k", "3", "--tails", "1/0"),
    # x >= 3**(10**8 - 1): refused before that power is built.
    ("erdos-run", "--t", "100000000", "--group", "3"),
    # An OSError, not a ValueError.
    ("scan", "--input", "no-such-digits-file.txt"),
    # A run of 10**9 divisor counts past the sieve memory budget.
    ("window", "--pos", "1", "--width", "1000000000"),
    # lemma3 scales past its cap: refused before 2**k or 2**cutoff is built.
    ("lemmas", "--suite", "lemma3", "--k", "3", "--L", "16",
     "--cutoff", "1000000000", "--r", "1000003", "--A", "30", "--M", "8"),
    ("lemmas", "--suite", "lemma3", "--k", "1180591620717411303424",
     "--tails", "1"),
    ("lemmas", "--suite", "lemma3", "--k", "99999999999990",
     "--L", "99999999999990", "--cutoff", "99999999999990",
     "--r", "1", "--A", "1", "--M", "1"),
    # A negative instance count.
    ("lemmas", "--suite", "lemma2", "--count", "-1"),
])
def test_refusal_exits_2_with_one_error_line(args):
    start = time.perf_counter()
    result = run_cli(*args, preexec_fn=_cap_memory)
    assert time.perf_counter() - start < 10
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def test_naive_digits_past_the_work_bound_exits_2_at_once():
    start = time.perf_counter()
    result = run_cli("digits", "--n", "300000000", "--method", "naive",
                     preexec_fn=_cap_memory)
    assert time.perf_counter() - start < 1
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: the naive method supports at most "
                             "16384 bits, got 300000000\n")


def test_erdos_run_tsv():
    result = run_cli("erdos-run", "--t", "2", "--group", "3", "--group", "5,7")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "x=6159\tmodulus=11025"


def test_lemmas_suite_records():
    result = run_cli("lemmas", "--suite", "lemma2", "--count", "20",
                     "--y-max", "100000", "--seed", "3")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 20
    assert all(line.endswith("verdict=pass") for line in lines)


def test_lemmas_lemma3_tails():
    result = run_cli("lemmas", "--suite", "lemma3", "--k", "2",
                     "--tails", "1,0,0")
    assert result.returncode == 0
    assert "exceed=1" in result.stdout
    assert "markov=pass" in result.stdout


def test_agp_json():
    result = run_cli("agp", "--x", "100", "--d", "3", "--a", "1")
    payload = json.loads(result.stdout)
    assert payload["count"] == 11
    assert payload["satisfied"] is True


@pytest.mark.parametrize("args", [
    ("digits", "--n", "52"),
    ("window", "--pos", "5", "--width", "4"),
    ("scan", "--pattern", "11", "--n", "52"),
    ("witness", "--k", "3", "--window", "5:20", "--m-max", "100000"),
    ("lemmas", "--suite", "lemma2", "--count", "5", "--y-max", "10000",
     "--seed", "9"),
])
def test_repeated_runs_are_byte_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


# SHA-256 of stdout for fixed invocations: digits, windows at 10**9 and
# near 10**14, the k = 3 desk certificate and its verification, a lemma3
# progression, an agp count, a zero run, a lemma2 suite, a window and
# a lemma3 run long enough for pack_weighted's byte pack, and the lemma2
# and lemma3 runs that reach every ln decision. Any change to emitted
# bytes fails here.
GOLDEN_DIGESTS = {
    ("digits", "--n", "5000", "--format", "hex"):
        "ed6832369b7770b87149af1ace0452b0e487ac52d33aaa768a372be59f7ca404",
    ("window", "--pos", "1000000007", "--width", "32"):
        "b612919fc10b613b89d7a48cd5548539469a704256acd695813b52fbfdf5a902",
    ("window", "--pos", "99999999999000", "--width", "64"):
        "316da1f54d7112179d4ca9df4807352f190aeaf3c5637b75cbfb440e29de5b2c",
    ("witness", "--k", "3", "--window", "5:20", "--format", "json"):
        "80524f4cb0abc997a69574c7ed5af0e3be8a6b27787afc6e48701d3f54484036",
    ("lemmas", "--suite", "lemma3", "--k", "3", "--L", "16", "--cutoff", "67",
     "--r", "1000003", "--A", "30", "--M", "8"):
        "4b54c06d06a76743f9a63975b59320a87fcd58eb94449d62e63b0bcbd57510ba",
    ("agp", "--x", "1000000", "--d", "97", "--a", "5"):
        "6737c789bd53b30dccccf4e74759fb0f052b961d6837b35b572afd6edab0c3be",
    ("erdos-run", "--t", "2", "--group", "3", "--group", "5,7",
     "--format", "json"):
        "5b9a608b391763fdfca53c5977cf5be60e9a3b17b9e579b7fd87cb52b6eea970",
    ("lemmas", "--suite", "lemma2", "--count", "20", "--y-max", "100000",
     "--seed", "3"):
        "d1145795fcb56db3ed85be155fb9ff80eb61393dd60baf9d2eba24e522edb0b7",
    ("window", "--pos", "1000000000", "--width", "4096", "--format", "hex"):
        "5ca3c8e1ea79deec27bdbec9350eb0a2b1be72eec29d098ea048f0b48b60a897",
    ("lemmas", "--suite", "lemma3", "--k", "3", "--L", "16", "--cutoff",
     "600", "--r", "1000003", "--A", "30", "--M", "8"):
        "2ec1767db9a7e86ac8d7b103aa13f8f885b7e67c63309c7bec9aa679315be1fa",
    ("digits", "--n", "1048576", "--format", "hex"):
        "ef52d9b0c59ba83b3f6671bbafb94bf4ba861a4b4ec1b2ecc03f3cd2099faf26",
    # 288 instances where sqrt(Y) <= M*ln(Y) is proven and 12 where not.
    ("lemmas", "--suite", "lemma2", "--count", "300", "--y-max", "1000000",
     "--seed", "23"):
        "cdd9267b7f13f8cdec9980d741d5bc4a3981bf290ca6c443977831fc0a3aaee3",
    # Every s1_bound hypothesis holds, so S1 <= 10*M*ln(Y)*2**-k is decided.
    ("lemmas", "--suite", "lemma3", "--k", "3", "--L", "16", "--cutoff", "40",
     "--r", "101", "--A", "101", "--M", "40", "--Y", "65536"):
        "1f7e3de4710219b61b501c28a4a665f0b165a8324223bae9da13046834155f87",
}
GOLDEN_VERIFY_DIGEST = (
    "b96f79708371b152c9975c7efbe3327556c0edac463b9478e275b4cf18d4902e")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_golden_output_digests():
    outputs = {}
    for args, digest in GOLDEN_DIGESTS.items():
        result = run_cli(*args)
        assert result.returncode == 0, args
        assert _sha256(result.stdout) == digest, args
        outputs[args[0]] = result.stdout
    verify = run_cli("verify", "--stdin", stdin=outputs["witness"])
    assert verify.returncode == 0
    assert _sha256(verify.stdout) == GOLDEN_VERIFY_DIGEST
