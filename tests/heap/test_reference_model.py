"""``FlatHeap`` against the dict reference model, after every operation.

A hypothesis state machine applies the same random operations —
allocate (with and without advancing the clock), free, move, the bulk
``move_ids`` kernel, detach/re-attach, slot stores, payloads, a sweep,
and an export/import round trip — to a :class:`FlatHeap` and to
:class:`tests.heap.reference_model.ModelHeap`, then requires every
observable to agree: the clock, each space's occupancy and resident
order, every object's header, slots, space and payload, which ids are
live, reachability, and whether the integrity check passes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.heap.flat import FlatHeap, HeapError, SpaceFull
from tests.heap.reference_model import ModelDangling, ModelFull, ModelHeap

SPACES = ("a", "b", "c")
PICK = st.integers(min_value=0, max_value=10**6)
#: What a store writes: "ref" picks a live id; the rest are immediates
#: (the JSON-able ones, so the heap still exports).
VALUES = st.sampled_from(["ref", None, True, False, "c"])
CAPACITIES = st.tuples(
    *(st.one_of(st.none(), st.integers(8, 48)) for _ in SPACES)
)


class HeapVersusModel(RuleBasedStateMachine):
    @initialize(capacities=CAPACITIES)
    def build(self, capacities):
        self.heap = FlatHeap()
        self.model = ModelHeap()
        for name, capacity in zip(SPACES, capacities):
            self.heap.add_space(name, capacity)
            self.model.add_space(name, capacity)

    def _live(self) -> list[int]:
        return sorted(self.model.objects)

    def _pick(self, pick: int) -> int:
        live = self._live()
        return live[pick % len(live)]

    @rule(
        size=st.integers(1, 6),
        fields=st.integers(0, 6),
        space=st.sampled_from(SPACES),
        kind=st.sampled_from(["data", "pair", "vector"]),
        advance=st.booleans(),
    )
    def allocate(self, size, fields, space, kind, advance):
        fields = min(fields, size)

        def allocate():
            return self.heap.allocate_id(
                size, fields, self.heap.space(space), kind,
                advance_clock=advance,
            )

        try:
            expected = self.model.allocate(size, fields, space, kind, advance)
        except ModelFull:
            with pytest.raises(SpaceFull):
                allocate()
        else:
            assert allocate() == expected

    @precondition(lambda self: self.model.objects)
    @rule(pick=PICK)
    def free(self, pick):
        oid = self._pick(pick)
        self.model.free(oid)
        self.heap.free(oid)

    @precondition(lambda self: self.model.objects)
    @rule(pick=PICK, space=st.sampled_from(SPACES))
    def move(self, pick, space):
        oid = self._pick(pick)
        target = self.heap.space(space)
        try:
            self.model.move(oid, space)
        except ModelFull:
            with pytest.raises(SpaceFull):
                self.heap.move(oid, target)
        else:
            self.heap.move(oid, target)

    @precondition(lambda self: self.model.objects)
    @rule(
        picks=st.lists(PICK, min_size=1, max_size=5),
        space=st.sampled_from(SPACES),
    )
    def move_ids(self, picks, space):
        oids = list(dict.fromkeys(self._pick(pick) for pick in picks))
        self.model.move_ids(oids, space)
        self.heap.move_ids(oids, self.heap.space(space))

    @precondition(lambda self: self.model.objects)
    @rule(pick=PICK, space=st.sampled_from(SPACES))
    def reattach(self, pick, space):
        """``FlatSpace.remove`` then ``add``, back home if it is full."""
        oid = self._pick(pick)
        home = self.model.objects[oid].space
        self.model.detach(oid)
        self.heap.space(home).remove(oid)
        try:
            self.model.attach(oid, space)
        except ModelFull:
            with pytest.raises(SpaceFull):
                self.heap.space(space).add(oid)
            self.model.attach(oid, home)
            space = home
        self.heap.space(space).add(oid)

    @precondition(lambda self: self.model.objects)
    @rule(src=PICK, slot=PICK, value=VALUES, dst=PICK)
    def store(self, src, slot, value, dst):
        oid = self._pick(src)
        count = len(self.model.objects[oid].slots)
        if not count:
            return
        if value == "ref":
            value = self._pick(dst)
        self.model.store_slot(oid, slot % count, value)
        self.heap.store_slot(oid, slot % count, value)

    @precondition(lambda self: self.model.objects)
    @rule(pick=PICK, text=st.text(max_size=3))
    def payload(self, pick, text):
        oid = self._pick(pick)
        self.model.objects[oid].payload = text
        self.heap.set_payload(oid, text)

    @rule(space=st.sampled_from(SPACES), keep=st.sets(PICK, max_size=6))
    def sweep(self, space, keep):
        live = self._live()
        marked = {live[pick % len(live)] for pick in keep} if live else set()
        expected = self.model.free_unmarked(space, marked)
        survivors, swept = self.heap.partition_space(
            self.heap.space(space), marked
        )
        assert swept == expected
        assert survivors == list(self.heap.space(space).object_ids())

    # A dangling slot fails the integrity pass that ends every import.
    @precondition(lambda self: not self.model.dangling())
    @rule()
    def round_trip(self):
        state = json.loads(json.dumps(self.heap.export_state()))
        self.heap.import_state(state)

    @invariant()
    def agrees_with_model(self):
        heap, model = self.heap, self.model
        assert heap.clock == model.clock
        assert heap.objects_allocated == model.objects_allocated
        assert heap.object_count == len(model.objects)
        assert heap.live_words == model.live_words
        for name, expected in model.spaces.items():
            space = heap.space(name)
            assert list(space.object_ids()) == list(expected.residents), name
            assert space.used == expected.used, name
            assert space.object_count == len(expected.residents), name
        for oid in range(model.next_id):
            obj = model.objects.get(oid)
            assert heap.contains_id(oid) == (obj is not None), oid
            if obj is None:
                continue
            assert heap.size_of(oid) == obj.size
            assert heap.birth_of(oid) == obj.birth
            assert heap.kind_of(oid) == obj.kind
            assert heap.slots_of(oid) == obj.slots
            assert heap.space_if_live(oid).name == obj.space
            assert heap.payload_of(oid) == obj.payload
        roots = self._live()[:3]
        try:
            expected_reach = model.reachable_from(roots)
        except ModelDangling:
            expected_reach = None
        try:
            assert heap.reachable_from(roots) == expected_reach
        except HeapError:
            assert expected_reach is None
        try:
            heap.check_integrity()
        except HeapError:
            assert model.dangling()
        else:
            assert not model.dangling()


HeapVersusModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestHeapVersusModel = HeapVersusModel.TestCase
