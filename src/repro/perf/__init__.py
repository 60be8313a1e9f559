"""Performance layer: parallel experiment engine, caching, pause SLO.

The reproduction's artifacts are pure functions of the source tree:
every experiment takes only registry defaults and derives all
randomness from fixed seeds.  That makes the whole artifact pipeline
embarrassingly parallel and aggressively cacheable, which this package
exploits:

* :mod:`repro.perf.parallel` — deterministic fan-out of independent
  experiment/sweep tasks over a process pool, results merged back in
  registry order;
* :mod:`repro.perf.cache` — an on-disk artifact cache keyed by
  (experiment name, parameters, source digest), so ``repro-gc all``
  skips artifacts the current source tree has already produced;
* :mod:`repro.perf.plan` — lifetime-driven allocation planned ahead
  and replayed through bump windows (every decay run and the benchmark);
* :mod:`repro.perf.slo` — the ``repro-gc slo`` pause gate.

Throughput and collection latency per collector are measured by the
committed benchmark (``python3 bench/run.py --workload alloc-decay``),
not by this package.
"""
