"""The ``repro-gc`` command surface, pinned as data.

:func:`capture` walks :func:`repro.cli.build_parser` and records, for
every parser path (the top level, each subcommand and each nested
``trace``/``snapshot`` command), its prog, help and description, and
for every action its option strings, dest, default, type name,
choices, nargs, required flag, metavar and help, plus the mutually
exclusive groups and the subcommand order.  It is data rather than
``--help`` text because argparse formats help differently across the
CPython versions CI runs.

Moving a command's declarations between modules must leave the golden
as it is.  ``repro-gc CMD`` parses with a parser that only CMD's module
registered; each such parser must capture as CMD's part of the golden,
and print the full parser's ``--help`` and usage errors byte for byte.
Regenerate with ``PYTHONPATH=src python -m tests.test_cli_spec`` only
when the command surface is meant to change.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

GOLDEN_PATH = Path(__file__).with_name("golden_cli_spec.json")


def _data(value):
    """``value`` as JSON data: sequences become lists."""
    if isinstance(value, (list, tuple)):
        return [_data(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def parser_paths(parser: argparse.ArgumentParser | None = None):
    """Every ``(path, parser, help)`` below ``parser``, in order: the
    top level first (path ``()``), each subcommand before its nested
    commands."""
    parser = parser if parser is not None else build_parser()
    found = [((), parser, None)]
    index = 0
    while index < len(found):
        path, node, _help = found[index]
        index += 1
        sub = _subparsers(node)
        if sub is None:
            continue
        helps = {choice.dest: choice.help for choice in sub._choices_actions}
        children = [
            ((*path, name), child, helps.get(name))
            for name, child in sub.choices.items()
        ]
        found[index:index] = children
    return found


def _action(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(choices, dict):
        choices = list(choices)
    return {
        "class": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _data(action.default),
        "type": getattr(action.type, "__name__", _data(action.type)),
        "choices": _data(choices),
        "nargs": _data(action.nargs),
        "required": action.required,
        "metavar": _data(action.metavar),
        "help": action.help,
    }


def capture(root: argparse.ArgumentParser | None = None) -> dict:
    """The command surface below ``root`` (by default every command's)
    as JSON data, keyed by path."""
    spec = {}
    for path, parser, help_text in parser_paths(root):
        sub = _subparsers(parser)
        spec[" ".join(path)] = {
            "prog": parser.prog,
            "help": help_text,
            "description": parser.description,
            "actions": [_action(action) for action in parser._actions],
            "exclusive_groups": [
                [action.dest for action in group._group_actions]
                for group in parser._mutually_exclusive_groups
            ],
            "subcommands": list(sub.choices) if sub is not None else [],
        }
    return spec


def test_command_surface_matches_the_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    spec = capture()
    assert list(spec) == list(golden)
    for path in golden:
        assert spec[path] == golden[path], path


def test_every_path_is_covered():
    """The top level, 15 subcommands and 6 nested commands."""
    paths = [path for path, _parser, _help in parser_paths()]
    assert len(paths) == 22
    assert sum(len(path) == 1 for path in paths) == 15


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_command_parser_matches_the_golden(command):
    golden = json.loads(GOLDEN_PATH.read_text())
    spec = capture(build_parser(command))
    paths = [path for path in golden if path.split(" ")[0] == command]
    for path in paths:
        assert spec[path] == golden[path], path


def test_the_command_table_names_every_registered_command():
    assert list(_subparsers(build_parser()).choices) == list(COMMANDS)
    for command, module in COMMANDS.items():
        registered = _subparsers(build_parser(command)).choices
        assert list(registered) == [
            name for name, home in COMMANDS.items() if home == module
        ]


def _outcome(parse, argv, capsys, monkeypatch):
    """``parse(argv)``'s exit code, stdout and stderr."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        parse(argv)
    captured = capsys.readouterr()
    return exit_.value.code, captured.out, captured.err


HELP_ARGVS = [[*path, "--help"] for path, _parser, _help in parser_paths()]

USAGE_ERRORS = [
    [],
    ["nosuch"],
    ["serve", "--port", "70000"],
    ["serve", "--jobs", "x"],
    ["serve", "--bogus"],
    ["serve", "extra"],
    ["list", "extra"],
    ["experiment", "table99"],
    ["all", "--only", "nope"],
    ["bench", "lattice", "--collector", "x"],
    ["verify", "--ops", "0"],
    ["load", "--kinds", ",,"],
    ["metrics", "--experiment", "nope"],
    ["trace"],
    ["trace", "record"],
    ["snapshot", "nope"],
    ["snapshot", "save", "f", "--bogus"],
]


@pytest.mark.parametrize(
    "argv",
    HELP_ARGVS + USAGE_ERRORS,
    ids=[" ".join(argv) or "(none)" for argv in HELP_ARGVS + USAGE_ERRORS],
)
def test_help_and_usage_errors_match_the_full_parser(
    argv, capsys, monkeypatch
):
    full = _outcome(build_parser().parse_args, argv, capsys, monkeypatch)
    assert full[0] in (0, 2)
    assert _outcome(main, argv, capsys, monkeypatch) == full


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--port", "0", "--jobs", "2"],
        ["list"],
        ["all", "--only", "table1"],
    ],
)
def test_one_command_parser_parses_as_the_full_parser(argv):
    assert vars(build_parser(argv[0]).parse_args(argv)) == vars(
        build_parser().parse_args(argv)
    )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n")
