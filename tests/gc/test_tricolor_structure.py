"""The tri-color pair is one cycle with two markers, and every collector
one skeleton — pinned.

Two kinds of test:

* structure — ``ConcurrentCollector`` restates none of the cycle
  (``collect``, ``reserve_window``, the head of ``_open_cycle``), the
  auditor has one wavefront check, the collection tail is counted in
  one place, no collector's snapshot code names a plain scalar field
  (``Collector.state_fields`` carries those), and neither fold moved a
  public surface: constructor and factory signatures, the registry's
  kinds, and the key order of ``export_state()`` for all seven kinds
  equal literals copied from the commits before the folds;
* behaviour — a wedged marker met through the *allocation* ladder
  (``_reserve`` -> the shared ``collect()`` -> watchdog abort -> inline
  re-open) loses nothing allocated since the cycle opened
  (``tests/resilience/test_watchdog.py`` drives ``collect()`` only).
"""

from __future__ import annotations

import ast
import fnmatch
import inspect
from pathlib import Path

import pytest

import repro.gc
from repro.gc import concurrent as concurrent_module
from repro.gc.concurrent import ConcurrentCollector
from repro.gc.generational import GenerationalCollector
from repro.gc.hybrid import HybridCollector
from repro.gc.incremental import IncrementalCollector
from repro.gc.marksweep import MarkSweepCollector
from repro.gc.nonpredictive import NonPredictiveCollector
from repro.gc.registry import (
    COLLECTOR_KINDS,
    GcGeometry,
    collector_factory,
    make_collector,
)
from repro.gc.stopcopy import StopAndCopyCollector
from repro.heap.backend import make_heap
from repro.heap.roots import RootSet
from repro.verify import audit
from repro.verify.audit import audit_collector, enable_checked_mode
from tests.resilience.test_watchdog import never_answer

_HEAD = [("heap", "P"), ("roots", "P")]
_SIZING = [("auto_expand", True), ("load_factor", 2.0)]

#: ``(name, default)`` per parameter, positional ones marked ``"P"``;
#: everything else is keyword-only.
PARENT_SIGNATURES = {
    IncrementalCollector: _HEAD
    + [
        ("heap_words", "P"),
        ("slice_budget", 64),
        ("trigger_fraction", 0.5),
        *_SIZING,
        ("max_heap_words", None),
    ],
    ConcurrentCollector: _HEAD
    + [
        ("heap_words", "P"),
        ("marker_workers", 0),
        ("marker_seed", 0),
        ("marker_timeout", None),
        ("marker_retries", 1),
        ("trigger_fraction", 0.5),
        *_SIZING,
        ("max_heap_words", None),
    ],
    MarkSweepCollector: _HEAD
    + [("heap_words", "P"), *_SIZING, ("max_heap_words", None)],
    StopAndCopyCollector: _HEAD
    + [("semispace_words", "P"), *_SIZING, ("max_semispace_words", None)],
    GenerationalCollector: _HEAD
    + [
        ("generation_words", "P"),
        ("auto_expand_oldest", True),
        ("oldest_load_factor", 2.0),
        ("promotion_threshold", 1),
        ("tenuring_overflow_fraction", 0.5),
    ],
    NonPredictiveCollector: _HEAD
    + [
        ("step_count", "P"),
        ("step_words", "P"),
        ("policy", None),
        ("initial_j", 0),
        ("use_remset", True),
        ("algorithm", "stop-and-copy"),
        ("compaction_threshold", None),
    ],
    HybridCollector: _HEAD
    + [
        ("nursery_words", "P"),
        ("step_count", "P"),
        ("step_words", "P"),
        ("policy", None),
        ("initial_j", 0),
        ("max_remset", None),
        ("allow_promotion_into_protected", True),
    ],
}

INCREMENTAL_STATE_KEYS = [
    "space_capacity",
    "slice_budget",
    "trigger_fraction",
    "auto_expand",
    "load_factor",
    "max_heap_words",
    "cycle_open",
    "epoch_clock",
    "gray_stack",
    "cycles_opened",
    "slices_run",
    "satb_grays",
]
CONCURRENT_STATE_KEYS = INCREMENTAL_STATE_KEYS + [
    "marker_workers",
    "marker_seed",
    "marker_cycles",
    "overlapped_cycles",
    "marker_words_total",
    "overlapped_words",
    "watchdog_aborts",
    "marker_result",
]
STEP_STATE_KEYS = ["step_order", "step_words", "j"]
#: The stop-the-world kinds' ``export_state()`` keys, by registry kind.
STATE_KEYS = {
    "mark-sweep": [
        "space_capacity",
        "auto_expand",
        "load_factor",
        "max_heap_words",
    ],
    "stop-and-copy": [
        "semispace_capacity",
        "active",
        "auto_expand",
        "load_factor",
        "max_semispace_words",
        "peak_semispace_words",
    ],
    "generational": [
        "generation_capacities",
        "remsets",
        "auto_expand_oldest",
        "oldest_load_factor",
        "promotion_threshold",
        "tenuring_overflow_fraction",
        "survival_counts",
    ],
    "non-predictive": STEP_STATE_KEYS
    + [
        "use_remset",
        "algorithm",
        "compaction_threshold",
        "compactions",
        "alloc_index",
        "remset",
    ],
    "hybrid": ["nursery_capacity"]
    + STEP_STATE_KEYS
    + [
        "max_remset",
        "allow_promotion_into_protected",
        "remset_young",
        "remset_steps",
    ],
}

_GC_SOURCES = sorted(Path(repro.gc.__file__).parent.glob("*.py"))
_SCALARS = (type(None), bool, int, float, str)


def _plain_scalar_fields(collector) -> set[str]:
    """Snapshot keys that are nothing but an attribute's scalar value."""
    missing = object()
    return {
        key
        for key, value in collector.export_state().items()
        if isinstance(value, _SCALARS)
        and getattr(collector, key, missing) == value
    }


class TestOneCycle:
    @pytest.mark.parametrize(
        "method", ["collect", "reserve_window", "_open_cycle"]
    )
    def test_concurrent_restates_none_of_the_cycle(self, method):
        assert method not in ConcurrentCollector.__dict__
        assert method in IncrementalCollector.__dict__

    def test_the_auditor_has_one_wavefront_check(self):
        matches = [
            name
            for name, value in vars(audit).items()
            if inspect.isfunction(value)
            and fnmatch.fnmatchcase(name, "_check_*wavefront")
        ]
        assert len(matches) == 1

    @pytest.mark.parametrize("cls", [IncrementalCollector, ConcurrentCollector])
    def test_trigger_opened_cycles_carry_the_collectors_own_kind(self, cls):
        events = []

        class Metrics:
            def event(self, kind, /, **payload):
                events.append((kind, payload))

            def observe_collection(self, collector):
                pass

        roots = RootSet()
        collector = cls(make_heap(), roots, 100)
        collector.metrics = Metrics()
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        collector.collect()  # closes the open cycle: no second start
        collector.collect()
        starts = [
            payload["kind"]
            for kind, payload in events
            if kind == "collection-start"
        ]
        assert starts == [cls.name, "full"]


class TestSurfaceUnmoved:
    @pytest.mark.parametrize(
        "cls", PARENT_SIGNATURES, ids=lambda cls: cls.name
    )
    def test_constructor_signature(self, cls):
        parameters = list(inspect.signature(cls).parameters.values())
        assert [
            (
                parameter.name,
                "P"
                if parameter.kind is parameter.POSITIONAL_OR_KEYWORD
                else parameter.default,
            )
            for parameter in parameters
        ] == PARENT_SIGNATURES[cls]
        assert all(
            parameter.kind is parameter.KEYWORD_ONLY
            for parameter in parameters
            if parameter.kind is not parameter.POSITIONAL_OR_KEYWORD
        )

    def test_factory_signature_and_kinds(self):
        assert list(inspect.signature(make_collector).parameters) == [
            "kind",
            "heap",
            "roots",
            "geometry",
        ]
        assert COLLECTOR_KINDS == (
            "mark-sweep",
            "stop-and-copy",
            "generational",
            "non-predictive",
            "hybrid",
            "incremental",
            "concurrent",
        )

    @pytest.mark.parametrize(
        "cls, keys",
        [
            (IncrementalCollector, INCREMENTAL_STATE_KEYS),
            (ConcurrentCollector, CONCURRENT_STATE_KEYS),
        ],
    )
    def test_export_state_key_order(self, cls, keys):
        roots = RootSet()
        collector = cls(make_heap(), roots, 100)
        assert list(collector.export_state()) == keys
        frame = roots.push_frame()
        while not collector.cycle_open:
            frame.push(collector.allocate_id(4))
        state = collector.export_state()
        assert list(state) == keys
        if cls is ConcurrentCollector:
            assert collector.marker_inflight
            assert list(state["marker_result"]) == ["ids", "words"]
        collector.collect()
        assert list(collector.export_state()) == keys

    @pytest.mark.parametrize("kind", STATE_KEYS)
    def test_stop_the_world_export_state_key_order(self, kind):
        roots = RootSet()
        collector = make_collector(
            kind, make_heap(), roots, GcGeometry().scaled(1, 64)
        )
        keys = STATE_KEYS[kind]
        assert list(collector.export_state()) == keys
        frame = roots.push_frame()
        for index in range(400):
            obj = collector.allocate_id(4, field_count=1)
            if index % 10 == 0:
                frame.push(obj)
        assert collector.stats.collections > 0
        assert list(collector.export_state()) == keys


class TestOneSkeleton:
    def test_the_collection_tail_is_counted_once(self):
        sites = [
            (path.name, number)
            for path in _GC_SOURCES
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            )
            if "stats.collections +=" in line
        ]
        assert len(sites) == 1, sites

    def test_no_snapshot_override_names_a_plain_scalar_field(self):
        plain: set[str] = set()
        for kind in COLLECTOR_KINDS:
            collector = collector_factory(kind)(make_heap(), RootSet())
            plain |= _plain_scalar_fields(collector)
            collector.close()
        assert {"auto_expand", "load_factor", "j", "cycle_open"} <= plain
        named = []
        for path in _GC_SOURCES:
            tree = ast.parse(path.read_text())
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef) or cls.name == "Collector":
                    continue
                for method in cls.body:
                    if not isinstance(method, ast.FunctionDef) or not (
                        "export" in method.name or "import" in method.name
                    ):
                        continue
                    named.extend(
                        (cls.name, method.name, node.value)
                        for node in ast.walk(method)
                        if isinstance(node, ast.Constant)
                        and node.value in plain
                    )
        assert named == []


@pytest.mark.parametrize("backend", ["flat"])
def test_wedged_marker_met_by_the_allocation_ladder_loses_nothing(
    backend, monkeypatch, new_workers
):
    monkeypatch.setattr(
        concurrent_module, "_mark_snapshot_task", never_answer
    )
    heap = make_heap(backend)
    roots = RootSet()
    collector = ConcurrentCollector(
        heap,
        roots,
        200,
        marker_workers=1,
        marker_timeout=0.01,
        marker_retries=0,
        auto_expand=False,
    )
    frame = roots.push_frame()
    while not collector.cycle_open:
        frame.push(collector.allocate_id(4))
    # Armed only now: the audit of the handoff would wait for the
    # marker's answer and meet the wedge itself.
    enable_checked_mode(collector)
    opened_at = collector.epoch_clock
    collections = collector.stats.collections

    # The mutator runs on into the wedged cycle, keeping every other
    # object, until an allocation no longer fits and `_reserve` — not
    # the test — closes the cycle.
    since_open = []
    while collector.stats.collections == collections:
        kept = collector.allocate_id(4)
        since_open.append(kept)
        frame.push(kept)
        collector.allocate_id(4)
    assert collector.watchdog_aborts == 1
    assert collector.marker_workers == 0
    assert not new_workers()

    assert len(since_open) > 1
    assert all(heap.birth_of(oid) >= opened_at for oid in since_open)
    rooted = sorted(roots.ids())
    assert set(since_open) <= set(rooted)
    # The re-opened inline cycle was precise: the rooted objects and
    # the one allocation made after it closed (which may have opened
    # the next cycle), nothing else.
    resident = sorted(collector.space.object_ids())
    assert resident[:-1] == rooted
    assert audit_collector(collector, expected_roots=rooted).ok
    collector.close()
