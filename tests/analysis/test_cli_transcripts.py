"""Byte-for-byte CLI transcripts and option strings.

``cli_transcripts.json`` holds the exact stdout of a set of simulation
subcommands and the sorted option strings of every subcommand's parser, as
they were before the CLI declared each shared flag once and built every
simulation record from the parsed arguments in one place.  Those
refactors must not change a single printed byte or option string, so the
fixture is never regenerated from the code under test.  Each
subcommand's ``--help`` text is pinned as well (at a fixed 80-column
width), so metavars, choices and help strings stay put too.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

FIXTURE = Path(__file__).with_name("cli_transcripts.json")

#: ``<OUT>`` stands for the per-test trace output path.
COMMANDS = (
    "simulate 1-3-5 --operations 200 --seed 1",
    "simulate 1-3-5 --operations 120 --repeats 2 --p 0.9",
    "simulate --protocol majority --n 7 --operations 100 "
    "--retry-policy exponential --detector --batch-window 0.5 --leases",
    "shard --operations 200 --shards 2",
    "shard --operations 120 --shards 2 --repeats 2 --jobs 2",
    "chaos --operations 120",
    "reconfigure --operations 150 --at 50 --target 1-4-4",
    "trace --operations 60 --out <OUT>",
    "report --operations 60",
)


def run_cli(command: str, out: Path) -> str:
    """The stdout of ``repro <command>``, with the trace path masked."""
    argv = [str(out) if arg == "<OUT>" else arg for arg in command.split()]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue().replace(str(out), "<OUT>")


def subcommands() -> dict:
    """Subcommand name -> its parser."""
    parser = build_parser()
    return dict(sorted(parser._subparsers._group_actions[0].choices.items()))


def option_strings() -> dict[str, list[str]]:
    """Every subcommand's option strings, sorted."""
    return {
        name: sorted(
            option
            for action in sub._actions
            for option in action.option_strings
        )
        for name, sub in subcommands().items()
    }


def help_texts() -> dict[str, str]:
    """Every subcommand's ``--help`` text (set ``COLUMNS`` first)."""
    return {name: sub.format_help() for name, sub in subcommands().items()}


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_command(fixture):
    assert list(fixture["transcripts"]) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_transcript_is_byte_identical(command, fixture, tmp_path):
    assert run_cli(command, tmp_path / "trace.jsonl") == (
        fixture["transcripts"][command]
    )


def test_option_strings_unchanged(fixture):
    assert option_strings() == fixture["options"]


def test_help_texts_unchanged(fixture, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_texts() == fixture["help"]
