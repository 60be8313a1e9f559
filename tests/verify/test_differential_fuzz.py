"""Randomized property suite: many seeded scripts, all five collectors.

Every script is replayed under every collector in checked mode, so a
failure here is either a collector disagreeing about the live graph or
a heap invariant breaking mid-run — both with a seed to reproduce.

The 50-seed sweep runs each seed as an independent script, in seed
order.
"""

from __future__ import annotations

import pytest

from repro.verify.differential import run_differential
from repro.verify.replay import generate_script

#: One differential run covers 5 collectors x ~25 collections, so 50
#: seeds exercise several thousand audited collections.
SEEDS = range(50)


def test_collectors_agree_on_random_scripts() -> None:
    failures = []
    for seed in SEEDS:
        report = run_differential(generate_script(120, seed))
        if not report.ok:
            failures.append(f"seed {seed}: {report.summary()}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("seed", (3, 17, 40))
def test_longer_scripts_with_higher_live_budget(seed):
    script = generate_script(350, seed, max_live_words=60)
    report = run_differential(script)
    assert report.ok, f"seed {seed}: {report.summary()}"
