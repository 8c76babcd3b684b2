"""The README's library examples run as documented, and its commands parse."""

import re
import shlex
from pathlib import Path

import pytest

import rhd2d
from rhd2d import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
COMMANDS = [
    line.strip()
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    for line in block.splitlines()
    if line.strip().startswith("rhd2d ")
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_commands():
    assert len(COMMANDS) >= 4


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_parses(line):
    command, config = cli.parse_config(shlex.split(line)[1:])
    assert command == shlex.split(line)[1] and isinstance(config, cli.RunConfig)


def test_listed_lower_level_pieces_are_exported():
    """Each item of the Library's "Lower-level pieces (...)" list is a name `rhd2d` exports."""
    listed = re.search(r"Lower-level pieces \((.*?)\)", README.read_text(), flags=re.S).group(1)
    items = [item.strip() for item in listed.split(",")]
    names = [re.fullmatch(r"`(\w+)`", item) for item in items]
    assert all(names), items
    assert [name.group(1) for name in names if not hasattr(rhd2d, name.group(1))] == []
