"""Certified binary digits of the Erdos-Borwein constant E, plus the
constructive machinery locating positions where the digit block "11"
provably occurs."""

from .bounds import ln_bounds, sqrt_bounds
from .construction import (
    ConstructionError,
    ErdosRunParams,
    ErdosRunResult,
    NoWitnessInRange,
    TailEstimate,
    VerificationReport,
    WitnessCertificate,
    WitnessParams,
    WitnessSystem,
    build_witness_system,
    certificate_from_json,
    certificate_to_json,
    erdos_zero_run,
    run_witness_pipeline,
    search_witness,
    select_primes,
    tail_estimate,
    tail_window,
    verify_certificate,
)
from .crt import CongruenceSystem, CrtSolution, NonCoprimeModuliError, crt_solve
from .digits import (
    CertificationError,
    DigitExpansion,
    bits_to_hex,
    digit_window,
    expand_naive,
    expand_sieve,
)
from .divisors import (
    SieveBudgetError,
    divisor_count,
    divisor_counts,
    divisor_sieve,
    divisor_tail,
    factorize,
    is_prime,
    pack_weighted,
    primes_in_range,
    primes_upto,
    progression_divisor_sum,
)
from .lemmas import (
    AgpReport,
    Lemma2Instance,
    Lemma2Report,
    Lemma3Report,
    check_agp_progression,
    check_lemma2,
    check_lemma3_decomposition,
    euler_phi,
    generate_lemma2_instances,
)
from .scanner import BlockScanReport, block_frequency_table, scan_block

__all__ = [name for name in dir() if not name.startswith("_")]
