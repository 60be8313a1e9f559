"""What a fresh interpreter loads: ``repro-gc CMD`` imports only CMD's
module, and a package ``__init__`` imports no sibling module.

Every start of ``repro-gc serve`` pays for each module it imports (from
source, where no bytecode cache is written), so the server's closure
is pinned here by what it must leave out: the experiments, the
benchmark programs, the Scheme runtime, the trace tools, the chaos
harness and the verify engines it never runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]

#: Packages and modules ``repro-gc serve`` never runs.
NOT_SERVED = (
    "repro.experiments",
    "repro.programs",
    "repro.runtime",
    "repro.trace",
    "repro.resilience.chaos",
    "repro.verify.differential",
    "repro.verify.shrink",
)


def modules_loaded(code: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(name for name in sys.modules"
        " if name.split('.')[0] == 'repro')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_serve_dispatch_loads_only_what_the_server_runs():
    # main parses the arguments and calls the handler, stubbed so that
    # nothing binds: what is loaded then is the server's closure.
    loaded = modules_loaded(
        "import repro.service.server as server\n"
        "server._cmd_serve = lambda args: 0\n"
        "from repro.cli import main\n"
        "assert main(['serve', '--port', '0', '--jobs', '2']) == 0"
    )
    assert "repro.service.shard" in loaded
    strays = [
        name
        for name in loaded
        if any(name == top or name.startswith(top + ".") for top in NOT_SERVED)
    ]
    assert strays == []


def test_import_repro_loads_no_submodule():
    assert modules_loaded("import repro") == ["repro"]


def test_top_level_names_load_on_first_use():
    loaded = modules_loaded(
        "import repro\n"
        "assert repro.RadioactiveDecayModel(half_life=8).half_life == 8"
    )
    assert "repro.core.decay" in loaded
    assert "repro.runtime" not in loaded


def test_every_top_level_name_resolves():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == repro.__all__
    assert len(repro.__all__) == 35
