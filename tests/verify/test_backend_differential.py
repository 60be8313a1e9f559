"""The backend-equivalence oracle, kept as goldens of the flat heap.

Until the object backend was retired, ``backend_suite`` replayed these
scripts under every collector on both heap representations and held
them to a stricter bar than the cross-collector oracle: the same
checkpoints *and* every GcStats counter, the full pause log and the
complete metrics event stream.  The collector suites still compare
checkpoints across collectors; the rest is pinned here, as the SHA-256
of each flat replay's ``GcStats.export_state()``, pause log and event
stream, captured while flat ≡ object still held.

Regenerate with
``PYTHONPATH=src python -m tests.verify.test_backend_differential``
only when a collector's work accounting is meant to change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.gc.registry import collector_factory
from repro.metrics.instrument import metrics_session
from repro.verify.replay import generate_script
from repro.verify.differential import DEFAULT_COLLECTORS, VERIFY_GEOMETRY
from repro.verify.replay import ReplayContext

GOLDEN_PATH = Path(__file__).with_name("golden_backend_observables.json")

#: The swept scripts: name -> (ops, seed, generator options).
SCRIPTS: dict[str, tuple[int, int, dict]] = {
    **{f"seed{seed}": (150, seed, {}) for seed in range(12)},
    "seed99": (120, 99, {}),
    "seed7-long": (400, 7, {"max_live_words": 60}),
}


def _sha(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def observables(kind: str, name: str) -> dict[str, str]:
    """Digests of one checked flat replay's stats, pauses and events."""
    ops, seed, options = SCRIPTS[name]
    script = generate_script(ops, seed, **options)
    # Collectors bind to the metrics session they are built under.
    with metrics_session() as session:
        context = ReplayContext(
            collector_factory(kind, VERIFY_GEOMETRY), checked=True
        )
        try:
            context.run(script)
        finally:
            context.close()
    state = context.collector.stats.export_state()
    return {
        "stats": _sha(state),
        "pauses": _sha(state["pauses"]),
        "events": _sha(list(session.stream.events())),
    }


def script_observables(name: str) -> tuple[str, dict]:
    return name, {kind: observables(kind, name) for kind in DEFAULT_COLLECTORS}


def _mismatches(names) -> list[str]:
    golden = json.loads(GOLDEN_PATH.read_text())
    outcomes = [script_observables(name) for name in names]
    return [
        f"{name} {kind}: {observable}"
        for name, seen in outcomes
        for kind in DEFAULT_COLLECTORS
        for observable, digest in seen[kind].items()
        if golden[name][kind][observable] != digest
    ]


def test_backends_agree_on_random_scripts() -> None:
    failures = _mismatches(f"seed{seed}" for seed in range(12))
    assert not failures, "\n".join(failures)


def test_covers_every_collector_on_every_backend() -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == set(SCRIPTS)
    for name in SCRIPTS:
        assert set(golden[name]) == set(DEFAULT_COLLECTORS), name
    assert not _mismatches(["seed99"])


def test_longer_script_with_higher_live_budget() -> None:
    assert not _mismatches(["seed7-long"])


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN_PATH.write_text(
        json.dumps(
            dict(script_observables(name) for name in SCRIPTS),
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
