"""Paper-claims conformance: claim specs, invariants, metamorphic runner."""

from repro.check.claims import (
    CLAIMS_SCHEMA,
    DEFAULT_CLAIMS_DIR,
    Claim,
    ClaimSpec,
    evaluate_claims_on_document,
    evaluate_result_claim,
    evaluate_sweep_claim,
    load_claim_file,
    load_claims,
    load_claims_dir,
    parse_claims,
)
from repro.check.engine import check_all, check_benchmark
from repro.check.invariants import (
    KERNEL_INVARIANTS,
    check_cache_dir,
    check_document,
    check_kernel_entry,
    invariant,
)
from repro.check.metamorphic import (
    RELATIONS,
    list_relations,
    relation,
    run_relations,
)
from repro.check.report import CONFORMANCE_SCHEMA, CheckOutcome, ConformanceReport

__all__ = [
    "CLAIMS_SCHEMA",
    "CONFORMANCE_SCHEMA",
    "DEFAULT_CLAIMS_DIR",
    "Claim",
    "ClaimSpec",
    "CheckOutcome",
    "ConformanceReport",
    "KERNEL_INVARIANTS",
    "RELATIONS",
    "check_all",
    "check_benchmark",
    "check_cache_dir",
    "check_document",
    "check_kernel_entry",
    "evaluate_claims_on_document",
    "evaluate_result_claim",
    "evaluate_sweep_claim",
    "invariant",
    "list_relations",
    "load_claim_file",
    "load_claims",
    "load_claims_dir",
    "parse_claims",
    "relation",
    "run_relations",
]
