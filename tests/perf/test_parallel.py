"""The parallel engine: determinism, ordering, serial equivalence."""

from __future__ import annotations

import pytest

from repro.experiments.runner import experiment_names, run_experiments
from repro.metrics import sweep
from repro.perf.cache import ArtifactCache
from repro.perf.parallel import (
    derive_seed,
    resilient_map,
    run_experiment_records,
)


def _square(value: int, attempt: int) -> int:
    return value * value


def test_resilient_map_preserves_input_order_serial() -> None:
    assert resilient_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]


def test_resilient_map_preserves_input_order_with_pool() -> None:
    items = list(range(8))
    assert resilient_map(_square, items, jobs=2) == [
        value * value for value in items
    ]


def test_metrics_sweep_raises_when_a_cell_fails(monkeypatch) -> None:
    """A sweep missing a cell has nothing to merge: the first failed
    cell raises, in the pool as in the serial path.  The pool's
    workers are forked after the patch, so they run it too."""
    run_decay_cell = sweep.run_decay_cell

    def refuse_hybrid(kind, seed, **kwargs):
        if kind == "hybrid":
            raise ValueError("hybrid is refused")
        return run_decay_cell(kind, seed, **kwargs)

    monkeypatch.setattr(sweep, "run_decay_cell", refuse_hybrid)
    kinds = ("mark-sweep", "hybrid")
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="hybrid is refused"):
            sweep.run_metrics_sweep(kinds, jobs=jobs, quick=True)


def test_resilient_map_empty() -> None:
    assert resilient_map(_square, [], jobs=4) == []


def test_derive_seed_is_deterministic_and_distinct() -> None:
    seeds = [derive_seed(42, index) for index in range(100)]
    assert seeds == [derive_seed(42, index) for index in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= seed < 2**63 for seed in seeds)
    assert derive_seed(0, 1) != derive_seed(1, 0)


def test_run_experiment_records_matches_serial_reference() -> None:
    names = ["table1", "equilibrium"]
    serial = run_experiment_records(names, jobs=1)
    pooled = run_experiment_records(names, jobs=2)
    assert [record.name for record in serial] == names
    assert [record.name for record in pooled] == names
    for a, b in zip(serial, pooled):
        assert a.text == b.text
        assert a.payload == b.payload
        assert not a.cached and not b.cached


def test_run_experiments_rejects_unknown_names() -> None:
    with pytest.raises(KeyError):
        run_experiments(["table1", "nope"])


def test_run_experiments_defaults_to_full_registry(tmp_path) -> None:
    # Serve everything from a pre-seeded cache so the registry sweep
    # costs nothing: this checks ordering and cache plumbing, not the
    # experiments themselves.
    cache = ArtifactCache(tmp_path, digest="test-digest")
    names = experiment_names()
    for name in names:
        cache.put(
            name, {"text": f"text-{name}", "payload": {"name": name}}
        )
    records = run_experiments(jobs=1, cache=cache)
    assert [record.name for record in records] == names
    assert all(record.cached for record in records)
    assert records[0].text == f"text-{names[0]}"

