"""The parallel engine: determinism, ordering, serial equivalence."""

from __future__ import annotations

import pytest

from repro.experiments.runner import experiment_names, run_experiments
from repro.experiments.tuning import run_tuning
from repro.perf.cache import ArtifactCache
from repro.perf.parallel import (
    default_jobs,
    derive_seed,
    parallel_map,
    run_experiment_records,
)


def _square(value: int) -> int:
    return value * value


def test_parallel_map_preserves_input_order_serial() -> None:
    assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]


def test_parallel_map_preserves_input_order_with_pool() -> None:
    items = list(range(8))
    assert parallel_map(_square, items, jobs=2) == [
        value * value for value in items
    ]


def _square_or_raise(value: int) -> int:
    if value == 3:
        raise ValueError("three is refused")
    return value * value


def test_parallel_map_raises_when_a_task_raises() -> None:
    with pytest.raises(RuntimeError, match="three is refused"):
        parallel_map(_square_or_raise, list(range(6)), jobs=2)


def test_parallel_map_empty() -> None:
    assert parallel_map(_square, [], jobs=4) == []


def test_derive_seed_is_deterministic_and_distinct() -> None:
    seeds = [derive_seed(42, index) for index in range(100)]
    assert seeds == [derive_seed(42, index) for index in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= seed < 2**63 for seed in seeds)
    assert derive_seed(0, 1) != derive_seed(1, 0)


def test_default_jobs_reads_environment(monkeypatch) -> None:
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        default_jobs()


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


def test_tuning_parallel_rows_match_serial() -> None:
    serial = run_tuning(cycles=2, jobs=1)
    pooled = run_tuning(cycles=2, jobs=2)
    assert serial.rows == pooled.rows
