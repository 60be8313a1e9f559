"""The backend-equivalence suite: object vs flat, every collector.

``backend_suite`` holds the two heap representations to a
stricter bar than the cross-collector oracle: same collector, same
script, both backends must agree on the live graph at every
checkpoint *and* on every GcStats counter, the full pause log, and
the complete metrics event stream.  A seeded sweep keeps the suite
honest across workload shapes.
"""

from __future__ import annotations

import pytest

from repro.heap.backend import HEAP_BACKENDS
from repro.perf.parallel import default_jobs, parallel_map
from repro.verify import generate_script
from repro.verify.differential import DEFAULT_COLLECTORS, backend_suite

SEEDS = range(12)


def _sweep_task(seed: int) -> tuple[int, bool, str]:
    """Module-level so the sweep can run in worker processes."""
    script = generate_script(150, seed)
    report = backend_suite().run(script)
    return seed, report.ok, report.summary()


def test_backends_agree_on_random_scripts() -> None:
    outcomes = parallel_map(_sweep_task, SEEDS, jobs=default_jobs())
    failures = [
        f"seed {seed}: {summary}"
        for seed, ok, summary in outcomes
        if not ok
    ]
    assert not failures, "\n".join(failures)


def test_covers_every_collector_on_every_backend() -> None:
    script = generate_script(120, seed=99)
    report = backend_suite().run(script)
    assert report.ok, report.summary()
    assert set(report.results) == {
        f"{kind}@{backend}"
        for kind in DEFAULT_COLLECTORS
        for backend in HEAP_BACKENDS
    }


def test_longer_script_with_higher_live_budget() -> None:
    script = generate_script(400, seed=7, max_live_words=60)
    report = backend_suite().run(script)
    assert report.ok, report.summary()


def test_rejects_single_backend() -> None:
    script = generate_script(10, seed=0)
    with pytest.raises(ValueError):
        backend_suite(backends=("flat",)).run(script)
