"""Golden-artifact regression: experiments must match committed JSON.

The repository commits every experiment's JSON artifact.  These tests
regenerate a fast subset (equilibrium, hazard, remset) and compare the
fresh results against the committed files, with a small relative
tolerance on floats so legitimate platform noise never fails the
build while any real behavior change does.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.experiments.export import to_jsonable
from repro.experiments.runner import run_experiment

ARTIFACTS = Path(__file__).resolve().parents[2] / "artifacts"

#: Experiments cheap enough to regenerate on every test run.
GOLDEN = ("equilibrium", "remset", "hazard")

#: Relative tolerance for floating-point artifact values.
RTOL = 0.05


def assert_matches(fresh, gold, path=""):
    """Recursive structural compare with float tolerance."""
    if isinstance(gold, dict):
        assert isinstance(fresh, dict), f"{path}: {type(fresh).__name__}"
        assert set(fresh) == set(gold), (
            f"{path}: keys {sorted(set(fresh) ^ set(gold))} differ"
        )
        for key in gold:
            assert_matches(fresh[key], gold[key], f"{path}.{key}")
    elif isinstance(gold, list):
        assert isinstance(fresh, list), f"{path}: {type(fresh).__name__}"
        assert len(fresh) == len(gold), (
            f"{path}: length {len(fresh)} != {len(gold)}"
        )
        for index, (a, b) in enumerate(zip(fresh, gold)):
            assert_matches(a, b, f"{path}[{index}]")
    elif isinstance(gold, bool) or gold is None or isinstance(gold, str):
        assert fresh == gold, f"{path}: {fresh!r} != {gold!r}"
    elif isinstance(gold, (int, float)):
        assert isinstance(fresh, (int, float)), f"{path}: not numeric"
        assert math.isclose(fresh, gold, rel_tol=RTOL, abs_tol=1e-9), (
            f"{path}: {fresh} != {gold} (rtol {RTOL})"
        )
    else:  # pragma: no cover - artifacts are plain JSON
        assert fresh == gold, f"{path}: {fresh!r} != {gold!r}"


@pytest.mark.parametrize("name", GOLDEN)
def test_experiment_matches_committed_artifact(name):
    artifact = ARTIFACTS / f"{name}.json"
    assert artifact.exists(), f"missing golden artifact {artifact}"
    gold = json.loads(artifact.read_text(encoding="utf-8"))
    result, _ = run_experiment(name)
    fresh = json.loads(json.dumps(to_jsonable(result)))
    assert_matches(fresh, gold, name)


def test_all_committed_artifacts_are_valid_json():
    names = sorted(p.stem for p in ARTIFACTS.glob("*.json"))
    assert names, "no committed artifacts found"
    for name in names:
        json.loads((ARTIFACTS / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "path", sorted(ARTIFACTS.glob("*.json")), ids=lambda path: path.name
)
def test_committed_artifact_is_in_the_form_the_writer_writes(path):
    """Byte-for-byte what ``atomic_write_json`` writes for the same
    value, so ``repro-gc all --output`` can be ``cmp``-ed against the
    committed tree."""
    raw = path.read_text(encoding="utf-8")
    canonical = json.dumps(json.loads(raw), indent=2, sort_keys=True)
    assert raw == canonical + "\n"
