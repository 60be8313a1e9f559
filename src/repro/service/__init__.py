"""GC-as-a-service: thousands of tenant heaps behind one server.

The service stack, bottom to top:

* :mod:`repro.service.protocol` — the versioned line-JSON wire format
  and its validation;
* :mod:`repro.service.session` — one tenant's heap/roots/collector
  context, migratable via checksummed snapshots;
* :mod:`repro.service.shard` — sharded batch execution over the
  hardened parallel engine, with drain/respawn on worker loss;
* :mod:`repro.service.server` — the asyncio TCP front door;
* :mod:`repro.service.loadgen` — offline-pure seeded load plans and
  the closed-loop client that drives them;
* :mod:`repro.service.isolation` — the oracle proving service runs
  byte-identical to per-tenant serial replays;
* :mod:`repro.service.report` — the committed scale report and its
  CI gates.

Each name is imported from the module that defines it: this package
imports none of them, so ``repro-gc serve`` loads neither the load
generator nor the isolation oracle.
"""
