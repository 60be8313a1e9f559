"""Command-line interface: ``repro-gc`` (or ``python -m repro``).

Each subcommand is declared and handled by the package whose
decisions it encodes, in one ``register(subparsers)`` function next to
the command's entry point.  This module maps each command to that
module, holds the argparse types the commands share, and dispatches.

``repro-gc CMD`` imports only CMD's module (and what it imports): a
known command is parsed by a parser that only its module registered.
No arguments, ``--help``, an unknown command and any usage error go
to the full parser, so usage text lists every command either way.

Each type is named for the error text argparse builds from it
("invalid positive_int value: '0'"), so a bad value is a usage error
(exit 2, one ``repro-gc CMD: error:`` line), never a traceback from
deep inside the command.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import sys

__all__ = ["main"]

#: Each command, in the order ``--help`` lists them, and the module
#: whose ``register`` declares it.
COMMANDS = {
    "list": "repro.experiments.runner",
    "experiment": "repro.experiments.runner",
    "all": "repro.experiments.runner",
    "chaos": "repro.resilience.chaos",
    "metrics": "repro.metrics.sweep",
    "bench": "repro.experiments.harness",
    "trace": "repro.trace.recorder",
    "validate": "repro.experiments.validate",
    "verify": "repro.verify.differential",
    "snapshot": "repro.resilience.snapshot",
    "slo": "repro.perf.slo",
    "analyze": "repro.core.analysis",
    "serve": "repro.service.server",
    "load": "repro.service.loadgen",
    "isolation": "repro.service.isolation",
}


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
    from repro.gc.registry import COLLECTOR_KINDS

    kinds = tuple(part.strip() for part in token.split(",") if part.strip())
    if not kinds or not set(kinds) <= set(COLLECTOR_KINDS):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated kinds of {', '.join(COLLECTOR_KINDS)}"
            f"; got {token!r}"
        )
    return kinds


def experiment_selection(token: str) -> tuple[str, ...]:
    """A comma-separated, non-empty list of registered experiments."""
    from repro.experiments.runner import experiment_names

    names = tuple(part.strip() for part in token.split(",") if part.strip())
    known = experiment_names()
    if not names or not set(names) <= set(known):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated experiments of {', '.join(known)}"
            f"; got {token!r}"
        )
    return names


class _UsageError(Exception):
    """A usage error on a one-command parser, for the full one to print."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command``'s module alone.

    A one-command parser raises :class:`_UsageError` instead of
    printing usage, which would list only its own commands.
    """
    parser_class = argparse.ArgumentParser
    modules = dict.fromkeys(COMMANDS.values())
    if command is not None:
        parser_class, modules = _OneCommandParser, (COMMANDS[command],)
    parser = parser_class(
        prog="repro-gc",
        description=(
            "Reproduction of 'Generational Garbage Collection and the "
            "Radioactive Decay Model' (Clinger & Hansen, PLDI 1997)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for module in modules:
        importlib.import_module(module).register(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = None
    if argv and argv[0] in COMMANDS:
        with contextlib.suppress(_UsageError):
            args = build_parser(argv[0]).parse_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
