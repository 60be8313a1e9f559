"""Verification subsystem: heap-invariant audits and differential testing.

Two independent oracles over the collectors in :mod:`repro.gc`:

* :mod:`repro.verify.audit` — structural invariants checked against a
  single collector ("checked mode", installable as a post-collection
  hook);
* :mod:`repro.verify.differential` — the equivalence engine: replay
  one deterministic mutator script (:mod:`repro.verify.replay`) under
  a table of variants (collector kind, geometry, restart policy) and
  require related pairs to agree on checkpoints, stats, pauses or
  survivors.  The cross-collector, slice-budget, marker-placement and
  resume oracles are preset tables over it, and
  :mod:`repro.verify.shrink` minimizes any counterexample.

The CLI front end is ``repro-gc verify``.
"""

from repro.verify.audit import (
    AuditError,
    AuditReport,
    assert_heap_invariants,
    audit_collector,
    disable_checked_mode,
    enable_checked_mode,
)
from repro.verify.differential import (
    DEFAULT_COLLECTORS,
    SUITES,
    VERIFY_GEOMETRY,
    DifferentialReport,
    Divergence,
    Relation,
    Variant,
    run_differential,
    run_equivalence,
)
from repro.verify.replay import (
    Checkpoint,
    MutatorScript,
    ReplayCrash,
    ReplayError,
    ReplayResult,
    generate_script,
    normalize_ops,
    replay,
)
from repro.verify.shrink import shrink_script

__all__ = [
    "AuditError",
    "AuditReport",
    "Checkpoint",
    "DEFAULT_COLLECTORS",
    "DifferentialReport",
    "Divergence",
    "MutatorScript",
    "Relation",
    "ReplayCrash",
    "ReplayError",
    "ReplayResult",
    "SUITES",
    "VERIFY_GEOMETRY",
    "Variant",
    "assert_heap_invariants",
    "audit_collector",
    "disable_checked_mode",
    "enable_checked_mode",
    "generate_script",
    "normalize_ops",
    "replay",
    "run_differential",
    "run_equivalence",
    "shrink_script",
]
