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

Each name is imported from the module that defines it: this package
imports none of them, so a command loads only the ones it uses.
"""
