"""Tests for the delta-debugging script shrinker."""

from __future__ import annotations

import pytest

from repro.verify.replay import MutatorScript, generate_script
from repro.verify.shrink import shrink_script


def alloc_count(script: MutatorScript) -> int:
    return sum(1 for op in script.ops if op[0] == "alloc")


class TestShrink:
    def test_requires_failing_input(self):
        script = generate_script(50, 0)
        with pytest.raises(ValueError):
            shrink_script(script, lambda s: False)

    def test_minimizes_to_exact_witness(self):
        # Failure = "at least 3 allocs": 1-minimal means exactly 3
        # allocs and nothing else (every other op deletes cleanly).
        script = generate_script(200, 7)
        assert alloc_count(script) >= 3

        def fails(candidate: MutatorScript) -> bool:
            return alloc_count(candidate) >= 3

        small = shrink_script(script, fails)
        assert alloc_count(small) == 3
        assert len(small.ops) == 3

    def test_preserves_failure(self):
        script = generate_script(150, 3)
        target = script.ops[len(script.ops) // 2]

        def fails(candidate: MutatorScript) -> bool:
            return target in candidate.ops

        small = shrink_script(script, fails)
        assert fails(small)

    def test_result_is_normalized(self):
        script = generate_script(200, 9)

        def fails(candidate: MutatorScript) -> bool:
            return alloc_count(candidate) >= 2

        small = shrink_script(script, fails)
        from repro.verify.replay import normalize_ops

        assert normalize_ops(small.ops) == small.ops

    def test_attempt_budget_respected(self):
        script = generate_script(300, 5)
        calls = [0]

        def fails(candidate: MutatorScript) -> bool:
            calls[0] += 1
            return alloc_count(candidate) >= 1

        small = shrink_script(script, fails, max_attempts=10)
        # The budget bounds predicate evaluations (plus the initial
        # failure confirmation) and still returns a failing script.
        assert calls[0] <= 12
        assert alloc_count(small) >= 1

    def test_note_records_original_size(self):
        script = generate_script(80, 2)
        small = shrink_script(
            script, lambda s: alloc_count(s) >= 1
        )
        assert "shrunk from" in small.note
