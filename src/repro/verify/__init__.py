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

Each name is imported from the module that defines it: this package
imports none of them, so the server, which replays through
:mod:`repro.verify.replay`, loads neither the differential engine nor
the shrinker.
"""
