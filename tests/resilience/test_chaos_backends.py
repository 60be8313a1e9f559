"""Chaos detection on the heap the harness runs.

The flat heap's packed state words and lazy id tables are the raw
material the fault injectors corrupt; every corruption-class fault must
be detected there.
"""

from __future__ import annotations

import pytest

from repro.resilience.chaos import run_chaos_matrix
from repro.resilience.faults import fault_expectation


@pytest.mark.parametrize("backend", ["flat"])
def test_no_fault_goes_undetected_on_either_backend(backend):
    matrix = run_chaos_matrix(
        seed=0, collectors=("mark-sweep", "generational"), quick=True
    )
    assert matrix.ok, f"[{backend}]\n{matrix.render()}"
    for outcome in matrix.outcomes:
        if fault_expectation(outcome.fault) == "corruption":
            assert outcome.status in ("detected", "n/a"), (
                f"[{backend}] {outcome.fault}@{outcome.collector}: "
                f"{outcome.status} ({outcome.detail})"
            )
