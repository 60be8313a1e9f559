"""No input ends in a traceback: the property over the whole CLI.

It walks the same parser spec as :mod:`tests.test_cli_spec`, so a new
subcommand or option is covered without editing this file.

* Every typed option, given a boundary value (0, -1, 2**63, ``nan``,
  ``inf``, a non-number, ...) or a random token, either makes
  ``parse_args`` exit 2 with a usage line and one ``error:`` line, or
  parses to a value inside the range its type states.  Options are
  only parsed, never run, so a huge ``--jobs``, ``--shards``,
  ``--tenants`` or ``--connections`` starts no process.
* Every command that reads a file fails on a missing, empty or
  malformed one with a non-zero exit and no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.experiments.runner import experiment_names
from repro.gc.registry import COLLECTOR_KINDS
from tests.test_cli_spec import parser_paths

#: What each argparse type promises of a value it accepts.
IN_RANGE = {
    "positive_int": lambda value: type(value) is int and value >= 1,
    "non_negative_int": lambda value: type(value) is int and value >= 0,
    "seed": lambda value: type(value) is int and 0 <= value < 2**63,
    "slice_budget": lambda value: value is None or value >= 1,
    "port": lambda value: type(value) is int and 0 <= value <= 65535,
    "host_port": lambda value: (
        isinstance(value[0], str) and 0 <= value[1] <= 65535
    ),
    "finite_float": lambda value: math.isfinite(value),
    "non_negative_float": lambda value: math.isfinite(value) and value >= 0,
    "positive_float": lambda value: math.isfinite(value) and value > 0,
    "collector_kinds": lambda value: (
        len(value) > 0 and set(value) <= set(COLLECTOR_KINDS)
    ),
    "experiment_selection": lambda value: (
        len(value) > 0 and set(value) <= set(experiment_names())
    ),
}

BOUNDARY = ("0", "-1", str(2**63), "nan", "inf", "many", ",,", "")
TOKENS = BOUNDARY + tuple(f"127.0.0.1:{token}" for token in BOUNDARY)


def _typed_options():
    """``(argv prefix, prog, action)`` for every option with a type:
    the prefix names the command and fills its other required
    arguments."""
    found = []
    for path, parser, _help in parser_paths():
        prefix = list(path)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                continue
            if not action.option_strings:
                prefix.append(next(iter(action.choices or ["x"])))
            elif action.required:
                prefix += [action.option_strings[0], "x"]
        for action in parser._actions:
            if action.type is not None:
                assert action.option_strings, "typed positional"
                found.append((prefix, parser.prog, action))
    return found


TYPED = _typed_options()


def _check(option, token: str) -> None:
    prefix, prog, action = option
    # ``--option=token``: a token such as ``-h`` is then a value, never
    # an option of its own.
    flag = max(action.option_strings, key=len)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            args = build_parser().parse_args([*prefix, f"{flag}={token}"])
        except SystemExit as exc:
            lines = err.getvalue().splitlines()
            assert exc.code == 2, (prefix, token)
            assert lines[0].startswith("usage:"), lines
            assert lines[-1].startswith(f"{prog}: error:"), lines
            assert "Traceback" not in err.getvalue()
            return
    value = getattr(args, action.dest)
    values = value if action.nargs in ("*", "+") else [value]
    in_range = IN_RANGE[action.type.__name__]
    for item in values:
        assert in_range(item), (prefix, action.dest, token, item)


def test_the_walk_covers_every_typed_option():
    names = {action.type.__name__ for _prefix, _prog, action in TYPED}
    assert names == set(IN_RANGE)
    assert len(TYPED) >= 40


@pytest.mark.parametrize("token", TOKENS)
def test_every_typed_option_at_a_boundary(token):
    for option in TYPED:
        _check(option, token)


@settings(max_examples=300, deadline=None)
@given(
    option=st.sampled_from(TYPED),
    token=st.one_of(
        st.sampled_from(TOKENS),
        st.integers().map(str),
        st.floats().map(repr),
        st.text(max_size=12),
    ),
)
def test_any_token_is_parsed_into_range_or_refused(option, token):
    _check(option, token)


FILE_COMMANDS = [
    ["trace", "survival"],
    ["trace", "profile"],
    ["snapshot", "load"],
    ["snapshot", "verify"],
    ["load", "--check"],
]
CONTENTS = {
    "missing": None,
    "empty": b"",
    "truncated-json": b'{"format": [',
    "foreign-json": b'{"format": "x", "rows": 5}\n',
    "binary": b"\xff\xfe\x00garbage",
}


@pytest.mark.parametrize("content", CONTENTS, ids=list(CONTENTS))
@pytest.mark.parametrize(
    "command", FILE_COMMANDS, ids=[" ".join(c) for c in FILE_COMMANDS]
)
def test_a_bad_file_fails_without_a_traceback(
    command, content, tmp_path, capsys, new_workers
):
    path = tmp_path / "input"
    if CONTENTS[content] is not None:
        path.write_bytes(CONTENTS[content])
    try:
        code = main([*command, str(path)])
    except SystemExit as exc:
        code = exc.code
    assert code not in (0, None)
    assert "Traceback" not in capsys.readouterr().err
    assert not new_workers()
