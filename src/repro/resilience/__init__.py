"""Resilience: fault injection, chaos testing, and crash-safe IO.

Four concerns live here, all in service of the ROADMAP's
"production-scale" north star:

* :mod:`repro.resilience.atomic` — crash-safe artifact writes
  (write-temp, fsync, rename) shared by every module that persists
  JSON or text to disk;
* :mod:`repro.resilience.faults` — a seeded, deterministic fault
  taxonomy that perturbs live collector state (dropped remset entries,
  dangling slots, stale forwards, skipped roots, mis-renumbered
  steps);
* :mod:`repro.resilience.chaos` — the chaos harness that injects each
  fault mid-replay, then asks the verify layer (heap auditor +
  differential oracle) whether it noticed, producing the detection
  matrix behind ``repro-gc chaos``;
* :mod:`repro.resilience.snapshot` — crash-consistent, checksummed
  checkpoint/restore of a live heap plus collector state, behind
  ``repro-gc snapshot`` and the resume-equivalence oracle.

The package mutation-tests the *auditor*: a corruption the auditor
cannot see is a hole in the verify layer, found here before a real
collector bug hides in it.
"""

from repro.resilience.atomic import atomic_write_json, atomic_write_text
from repro.resilience.chaos import (
    SNAPSHOT_FAULTS,
    ChaosOutcome,
    DetectionMatrix,
    run_chaos_matrix,
    run_snapshot_chaos,
)
from repro.resilience.faults import (
    CORRUPTION_FAULTS,
    FAULT_KINDS,
    FaultPlan,
    fault_expectation,
)
from repro.resilience.snapshot import (
    SnapshotError,
    capture_state,
    checkpoint,
    load_snapshot,
    restore,
    restore_state,
    save_snapshot,
    verify_snapshot,
)

__all__ = [
    "CORRUPTION_FAULTS",
    "ChaosOutcome",
    "DetectionMatrix",
    "FAULT_KINDS",
    "FaultPlan",
    "SNAPSHOT_FAULTS",
    "SnapshotError",
    "atomic_write_json",
    "atomic_write_text",
    "capture_state",
    "checkpoint",
    "fault_expectation",
    "load_snapshot",
    "restore",
    "restore_state",
    "run_chaos_matrix",
    "run_snapshot_chaos",
    "save_snapshot",
    "verify_snapshot",
]
