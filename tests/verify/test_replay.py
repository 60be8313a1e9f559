"""Tests for mutator-script generation, normalization, and replay."""

from __future__ import annotations

import pytest

from repro.experiments.harness import collector_factory
from repro.verify.replay import (
    MutatorScript,
    ReplayError,
    generate_script,
    normalize_ops,
    replay,
)
from repro.verify.differential import VERIFY_GEOMETRY


def factory(kind: str):
    return collector_factory(kind, VERIFY_GEOMETRY)


class TestGenerate:
    def test_deterministic(self):
        assert generate_script(200, 5).ops == generate_script(200, 5).ops

    def test_seed_changes_script(self):
        assert generate_script(200, 5).ops != generate_script(200, 6).ops

    def test_already_normalized(self):
        script = generate_script(400, 11)
        assert normalize_ops(script.ops) == script.ops

    def test_ends_with_check(self):
        assert generate_script(100, 0).ops[-1] == ("check",)

    def test_contains_all_op_kinds(self):
        kinds = {op[0] for op in generate_script(800, 1).ops}
        assert kinds == {"alloc", "store", "drop", "collect", "check"}

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            generate_script(0, 1)
        with pytest.raises(ValueError):
            generate_script(100, 1, max_live_words=2, max_object_words=4)

    def test_live_budget_respected(self):
        script = generate_script(500, 9, max_live_words=30)
        result = replay(script, factory("mark-sweep"))
        assert all(
            checkpoint.live_words <= 30
            for checkpoint in result.checkpoints
        )


class TestNormalize:
    def test_drops_store_to_removed_alloc(self):
        ops = (
            ("alloc", 0, 2, 1),
            ("store", 0, 0, 7),  # uid 7 never allocated
            ("check",),
        )
        assert normalize_ops(ops) == (("alloc", 0, 2, 1), ("check",))

    def test_drops_store_with_unreachable_source(self):
        ops = (
            ("alloc", 0, 2, 1),
            ("drop", 0),
            ("store", 0, 0, None),  # src unreachable by now
        )
        assert normalize_ops(ops) == (("alloc", 0, 2, 1), ("drop", 0))

    def test_drops_double_drop(self):
        ops = (("alloc", 0, 1, 0), ("drop", 0), ("drop", 0))
        assert normalize_ops(ops) == (("alloc", 0, 1, 0), ("drop", 0))

    def test_keeps_store_through_heap_reference(self):
        # uid 1 stays reachable via uid 0's field after its root drops.
        ops = (
            ("alloc", 0, 2, 1),
            ("alloc", 1, 2, 1),
            ("store", 0, 0, 1),
            ("drop", 1),
            ("store", 1, 0, 0),
        )
        assert normalize_ops(ops) == ops

    def test_drops_out_of_range_slot(self):
        ops = (("alloc", 0, 2, 1), ("store", 0, 5, None))
        assert normalize_ops(ops) == (("alloc", 0, 2, 1),)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ReplayError):
            normalize_ops((("warp", 1),))


class TestReplay:
    def test_deterministic(self):
        script = generate_script(300, 2)
        first = replay(script, factory("generational"))
        second = replay(script, factory("generational"))
        assert first.checkpoints == second.checkpoints
        assert first.words_allocated == second.words_allocated

    def test_ids_identical_across_collectors(self):
        script = generate_script(300, 4)
        graphs = {
            kind: replay(script, factory(kind)).checkpoints
            for kind in ("mark-sweep", "non-predictive")
        }
        assert graphs["mark-sweep"] == graphs["non-predictive"]

    def test_final_checkpoint_always_taken(self):
        script = MutatorScript(ops=(("alloc", 0, 1, 0),))
        result = replay(script, factory("stop-and-copy"))
        assert result.checkpoints[-1].op_index == 1
        assert result.checkpoints[-1].live_words == 1

    def test_checked_replay(self):
        script = generate_script(300, 8)
        result = replay(script, factory("hybrid"), checked=True)
        assert result.collections > 0

    def test_rejects_store_before_alloc(self):
        script = MutatorScript(ops=(("store", 3, 0, None),))
        with pytest.raises(ReplayError):
            replay(script, factory("mark-sweep"))

    def test_collect_op_counts(self):
        script = MutatorScript(
            ops=(("alloc", 0, 1, 0), ("collect",), ("check",))
        )
        result = replay(script, factory("mark-sweep"))
        assert result.collections == 1

    def test_to_text_roundtrip_info(self):
        script = generate_script(50, 3)
        text = script.to_text()
        assert "seed=3" in text
        assert "alloc" in text
