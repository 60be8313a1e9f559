"""The step collectors' ``export_state()``, pinned mid-cycle.

``golden_step_state.json`` was captured at the commit *before* the
step machine moved into ``gc/steps.py`` (PR 19), when
``nonpredictive.py`` and ``hybrid.py`` each carried their own
``export_state`` / ``import_state``.  The collector-state half of the
snapshot format is a wire format (``repro.resilience.snapshot`` ships
it between processes), so a refactor of the classes that write it must
not move a key, a value, or an entry order.

One seeded script (:func:`repro.verify.replay.generate_script`, seed 1)
is replayed under each configuration and stopped
at the first op boundary where the state is *interesting*: at least two
renumberings behind it, ``j > 0``, and every remembered set the
configuration uses non-empty (``use_remset=False`` keeps none, so only
the first two apply).  Each cell pins the stop index, the renumberings
behind it, the exported state there, and the ``GcStats`` counters at
the end of the script; the restore test imports the golden state into a
fresh collector and finishes the script from it.  Keys end in the name
of the heap they were captured on (``/flat``), the only one there is.

Regenerate (only when the *intended* format changes):
``PYTHONPATH=src python -m tests.gc.test_step_state``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.gc.hybrid import HybridCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.resilience.snapshot import capture_state, restore_state
from repro.verify.replay import ReplayContext, generate_script

GOLDEN_PATH = Path(__file__).with_name("golden_step_state.json")
SCRIPT = generate_script(1500, 1, max_live_words=40)
OPS = [op for op in SCRIPT.ops if op[0] != "check"]
STEP_COUNT, STEP_WORDS, NURSERY_WORDS = 8, 24, 24


def _non_predictive(algorithm: str, use_remset: bool):
    return lambda heap, roots: NonPredictiveCollector(
        heap,
        roots,
        STEP_COUNT,
        STEP_WORDS,
        algorithm=algorithm,
        use_remset=use_remset,
    )


def _hybrid(max_remset: int | None):
    return lambda heap, roots: HybridCollector(
        heap,
        roots,
        NURSERY_WORDS,
        STEP_COUNT,
        STEP_WORDS,
        max_remset=max_remset,
    )


CELLS = {
    "non-predictive/stop-and-copy/remset": _non_predictive(
        "stop-and-copy", True
    ),
    "non-predictive/stop-and-copy/scan": _non_predictive(
        "stop-and-copy", False
    ),
    "non-predictive/mark-sweep/remset": _non_predictive("mark-sweep", True),
    "non-predictive/mark-sweep/scan": _non_predictive("mark-sweep", False),
    "hybrid/no-valve": _hybrid(None),
    "hybrid/max-remset-2": _hybrid(2),
}


def _remsets(state: dict) -> list[dict]:
    return [
        value
        for key, value in state.items()
        if key.startswith("remset") and isinstance(value, dict)
    ]


def _interesting(collector) -> bool:
    if collector.j == 0 or collector.stats.major_collections < 2:
        return False
    if not getattr(collector, "use_remset", True):
        return True
    return all(
        remset["barrier"] or remset["promotion"]
        for remset in _remsets(collector.export_state())
    )


def _wire(value):
    """What the value looks like after the snapshot's JSON round trip."""
    return json.loads(json.dumps(value))


def run_to(cell: str, backend: str, stop: int | None) -> tuple:
    """Replay the script's first ``stop + 1`` ops (or, with ``None``, up
    to the first interesting boundary); returns ``(context, stop)``."""
    context = ReplayContext(CELLS[cell], checked=True)
    for index, op in enumerate(OPS):
        context.apply(op)
        if index == stop or (
            stop is None and _interesting(context.collector)
        ):
            return context, index
    raise AssertionError(f"{cell}/{backend}: the script never got there")


def finish(context: ReplayContext, stop: int) -> dict:
    for op in OPS[stop + 1:]:
        context.apply(op)
    return context.collector.stats.snapshot()


def capture() -> dict:
    golden: dict = {}
    for cell, backend in CASES:
        context, stop = run_to(cell, backend, None)
        state = _wire(context.collector.export_state())
        golden[f"{cell}/{backend}"] = {
            "stop": stop,
            "renumberings": context.collector.stats.major_collections,
            "state": state,
            "final_stats": finish(context, stop),
        }
    return golden


CASES = [(cell, "flat") for cell in CELLS]
GOLDEN = {} if __name__ == "__main__" else json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_cell_and_is_interesting():
    assert set(GOLDEN) == {f"{cell}/{backend}" for cell, backend in CASES}
    for key, entry in GOLDEN.items():
        state = entry["state"]
        assert state["j"] > 0, key
        assert entry["renumberings"] >= 2, key
        if state.get("use_remset", True):
            for remset in _remsets(state):
                assert remset["barrier"] or remset["promotion"], key


@pytest.mark.parametrize("cell,backend", CASES)
def test_export_state_matches_golden(cell, backend):
    entry = GOLDEN[f"{cell}/{backend}"]
    context, _ = run_to(cell, backend, entry["stop"])
    assert _wire(context.collector.export_state()) == entry["state"]
    assert finish(context, entry["stop"]) == entry["final_stats"]


@pytest.mark.parametrize("cell,backend", CASES)
def test_golden_state_restores_and_finishes(cell, backend):
    entry = GOLDEN[f"{cell}/{backend}"]
    source, stop = run_to(cell, backend, entry["stop"])
    captured = _wire(capture_state(source.collector))
    captured["collector_state"] = entry["state"]
    resumed = ReplayContext(CELLS[cell], checked=True)
    restore_state(resumed.collector, captured)
    resumed.uid_to_id = dict(source.uid_to_id)
    assert _wire(resumed.collector.export_state()) == entry["state"]
    resumed.collector.check_step_invariants()
    assert finish(resumed, stop) == entry["final_stats"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
