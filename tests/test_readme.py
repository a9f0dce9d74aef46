"""Every `ffheight` command in the README's sh blocks runs and prints JSON."""

import json
import re
import shlex
from pathlib import Path

import pytest

from ffheight.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# minutes, nearly all in the Groebner basis of the cone at b = 3
SLOW = ("census", "suite")


def readme_commands():
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["ffheight"] and tuple(argv[1:3]) != SLOW:
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_has_the_documented_commands():
    assert len(COMMANDS) == 13


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[f"{i:02d}-{a[0]}-{a[1]}" for i, a in enumerate(COMMANDS)]
)
def test_readme_command_exits_0_with_json_lines(capsys, argv):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        json.loads(line)
