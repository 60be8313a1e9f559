"""Command-line interface: ``repro-gc`` (or ``python -m repro``).

Each subcommand is declared and handled by the package whose
decisions it encodes, in one ``register(subparsers)`` function next to
the command's entry point.  This module builds the top-level parser
from those functions, holds the argparse types they share, and
dispatches.

Each type is named for the error text argparse builds from it
("invalid positive_int value: '0'"), so a bad value is a usage error
(exit 2, one ``repro-gc CMD: error:`` line), never a traceback from
deep inside the command.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.core import analysis
from repro.experiments import harness, runner, validate
from repro.gc.registry import COLLECTOR_KINDS
from repro.metrics import sweep
from repro.perf import slo
from repro.resilience import chaos, snapshot
from repro.service import isolation, loadgen, server
from repro.trace import recorder
from repro.verify import differential

__all__ = ["main"]

#: The ``register`` functions, in the order ``--help`` lists commands.
COMMANDS = (
    runner.register,  # list, experiment, all
    chaos.register,
    sweep.register,  # metrics
    harness.register,  # bench
    recorder.register,  # trace
    validate.register,
    differential.register,  # verify
    snapshot.register,
    slo.register,
    analysis.register,  # analyze
    server.register,  # serve
    loadgen.register,  # load
    isolation.register,
)


def positive_int(token: str) -> int:
    """A count argument: an integer of at least 1."""
    value = int(token)
    if value < 1:
        raise ValueError(f"must be positive, got {value}")
    return value


def non_negative_int(token: str) -> int:
    """A ``--jobs``/``--retries`` argument, where 0 means none."""
    value = int(token)
    if value < 0:
        raise ValueError(f"must be non-negative, got {value}")
    return value


def slice_budget(token: str) -> int | None:
    """One ``verify --budgets`` value: a positive integer, or ``inf``
    (``None``) for an unbounded slice."""
    if token in ("inf", "none"):
        return None
    value = int(token)
    if value < 1:
        raise ValueError(f"budget must be positive, got {value}")
    return value


def port(token: str) -> int:
    """A TCP port, 0-65535 (0 asks the kernel for an ephemeral one)."""
    value = int(token)
    if not 0 <= value <= 65535:
        raise ValueError(f"port must be 0-65535, got {value}")
    return value


def host_port(token: str) -> tuple[str, int]:
    """``HOST:PORT`` (an empty host is 127.0.0.1) as ``(host, port)``."""
    host, colon, port_text = token.rpartition(":")
    if not colon:
        raise ValueError("expected HOST:PORT")
    return host or "127.0.0.1", port(port_text)


def finite_float(token: str) -> float:
    """A real number: ``nan`` and ``inf`` are refused."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def non_negative_float(token: str) -> float:
    """A tolerance: a finite real number of at least 0."""
    value = finite_float(token)
    if value < 0:
        raise ValueError(f"must be non-negative, got {value}")
    return value


def positive_float(token: str) -> float:
    """A ``--task-timeout`` in seconds: a finite real number above 0."""
    value = finite_float(token)
    if value <= 0:
        raise ValueError(f"must be positive, got {value}")
    return value


def collector_kinds(token: str) -> tuple[str, ...]:
    """A comma-separated, non-empty list of registered collector kinds."""
    kinds = tuple(part.strip() for part in token.split(",") if part.strip())
    if not kinds or not set(kinds) <= set(COLLECTOR_KINDS):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated kinds of {', '.join(COLLECTOR_KINDS)}"
            f"; got {token!r}"
        )
    return kinds


def experiment_selection(token: str) -> tuple[str, ...]:
    """A comma-separated, non-empty list of registered experiments."""
    names = tuple(part.strip() for part in token.split(",") if part.strip())
    known = runner.experiment_names()
    if not names or not set(names) <= set(known):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated experiments of {', '.join(known)}"
            f"; got {token!r}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gc",
        description=(
            "Reproduction of 'Generational Garbage Collection and the "
            "Radioactive Decay Model' (Clinger & Hansen, PLDI 1997)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for register in COMMANDS:
        register(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
