"""Seed discipline: all randomness flows through explicit seeds.

Two kinds of guarantee:

* a source scan asserting no module in ``src/repro`` calls the
  module-level ``random.*`` functions (which draw from the shared,
  implicitly-seeded global generator), and
* behavioral tests that every stochastic lifetime schedule replays the
  identical stream after ``reseed(seed)``, and draws the streams pinned
  in ``golden_lifetime_streams.json`` (regenerate with
  ``PYTHONPATH=src python -m tests.mutator.test_seed_discipline`` only
  when a stream is meant to change).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
from pathlib import Path

import pytest

from repro.mutator.decay_mutator import DecaySchedule
from repro.mutator.phased import PhasedSchedule
from repro.mutator.synthetic import (
    BimodalSchedule,
    UniformLifetimeSchedule,
    WeibullSchedule,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
STREAMS_PATH = Path(__file__).with_name("golden_lifetime_streams.json")
#: Lifetimes per pinned stream.
PINNED_DRAWS = 100_000

#: Module-level random functions that would read the global RNG.
#: ``random.Random(...)`` instantiation is fine; ``random.random()``,
#: ``random.randint(...)`` etc. are not.
GLOBAL_RANDOM = re.compile(
    r"\brandom\.(random|randint|randrange|choice|choices|shuffle|sample|"
    r"uniform|gauss|expovariate|seed|betavariate|normalvariate|"
    r"weibullvariate|triangular)\s*\("
)


def test_no_global_random_calls_in_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        ):
            if GLOBAL_RANDOM.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "module-level random.* calls found (use random.Random(seed)):\n"
        + "\n".join(offenders)
    )


MAKERS = {
    "decay": lambda: DecaySchedule(32.0, seed=5),
    "uniform": lambda: UniformLifetimeSchedule(4, 64, seed=5),
    "weibull": lambda: WeibullSchedule(40.0, 1.7, seed=5),
    "bimodal": lambda: BimodalSchedule(0.8, 8, 200.0, seed=5),
    "phased": lambda: PhasedSchedule(500, churn_fraction=0.3, seed=5),
}
SCHEDULES = [pytest.param(make, id=name) for name, make in MAKERS.items()]


def stream(schedule, n=200):
    return [schedule.lifetime_for(clock, clock) for clock in range(n)]


@pytest.mark.parametrize("make", SCHEDULES)
def test_reseed_replays_identical_stream(make):
    schedule = make()
    first = stream(schedule)
    schedule.reseed(5)
    assert stream(schedule) == first
    assert schedule.seed == 5


@pytest.mark.parametrize("make", SCHEDULES)
def test_reseed_with_new_seed_changes_stream(make):
    schedule = make()
    first = stream(schedule)
    schedule.reseed(99)
    assert schedule.seed == 99
    assert stream(schedule) != first


@pytest.mark.parametrize("make", SCHEDULES)
def test_same_seed_means_same_schedule(make):
    assert stream(make()) == stream(make())


def stream_digest(schedule) -> str:
    """SHA-256 of the schedule's next ``PINNED_DRAWS`` lifetimes."""
    return hashlib.sha256(
        ",".join(map(str, stream(schedule, PINNED_DRAWS))).encode()
    ).hexdigest()


def stream_digests(name) -> dict[str, str]:
    """The fresh stream, the stream after ``reseed(7)``, and what a
    pickled copy of the reseeded schedule draws next."""
    schedule = MAKERS[name]()
    digests = {"fresh": stream_digest(schedule)}
    schedule.reseed(7)
    digests["reseeded"] = stream_digest(schedule)
    digests["unpickled"] = stream_digest(
        pickle.loads(pickle.dumps(schedule))
    )
    return digests


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_lifetime_streams_match_golden(name):
    golden = json.loads(STREAMS_PATH.read_text())
    assert stream_digests(name) == golden[name]


@pytest.mark.parametrize("make", SCHEDULES)
def test_unpickled_schedule_continues_the_stream(make):
    schedule = make()
    stream(schedule)
    copy = pickle.loads(pickle.dumps(schedule))
    assert stream(copy) == stream(schedule)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    STREAMS_PATH.write_text(
        json.dumps(
            {name: stream_digests(name) for name in MAKERS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {STREAMS_PATH}")
