"""Kill-and-rerun test for ``repro-gc all`` over the artifact cache.

A sweep is SIGKILLed mid-run (after the cache has stored at least one
completion), then simply rerun: the rerun must serve what the killed
run stored without repeating it and finish the rest, leaving every
artifact present exactly once.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

# The sweep used throughout: a slow experiment (~3 s, so the first
# entry is stored well before the sweep ends) plus a fast one.  The
# registry runs table5 first; the kill lands somewhere after its entry
# is written.  If the whole sweep wins the race and finishes first, the
# test degrades to a rerun served wholly from the cache, which must
# also work.
SWEEP = "equilibrium,table5"


def _run_all(cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "all",
            "--only",
            SWEEP,
            "--output",
            "arts",
        ],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _stored(cwd) -> set[str]:
    """Names of the experiments with an entry under ``.repro_cache/``."""
    entries = (Path(cwd) / ".repro_cache").glob("*.json")
    return {path.name.rsplit("-", 1)[0] for path in entries}


def _sources(out: str) -> dict[str, str]:
    """The timing table's ``run``/``cache`` column, by experiment."""
    table = out.split("=== timing ===", 1)[1].splitlines()[2:]
    return {
        fields[0]: fields[2]
        for fields in (line.split() for line in table)
        if len(fields) == 3
    }


def test_kill_and_resume_completes_without_duplication(tmp_path):
    # Phase 1: start the sweep and SIGKILL it once the cache holds the
    # first completion (but, with luck, not the second).
    process = _run_all(tmp_path)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if process.poll() is not None:
            break  # finished before we could kill it — still a valid run
        if _stored(tmp_path):
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
            break
        time.sleep(0.05)
    else:
        process.kill()
        pytest.fail("sweep neither stored an entry nor finished within 60s")
    process.stdout.close()
    stored = _stored(tmp_path)
    assert stored

    # Phase 2: rerun plain.  Stored experiments are served, the rest
    # run, and the sweep succeeds end to end.
    rerun = _run_all(tmp_path)
    out, _ = rerun.communicate(timeout=300)
    assert rerun.returncode == 0, out

    # Every experiment present exactly once, none duplicated or lost,
    # and exactly the killed run's completions came from the cache.
    names = SWEEP.split(",")
    for name in names:
        assert (tmp_path / "arts" / f"{name}.txt").exists(), out
        assert out.count(f"=== {name}:") == 1
    assert _sources(out) == {
        name: "cache" if name in stored else "run" for name in names
    }, out
