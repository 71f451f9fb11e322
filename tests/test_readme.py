import re
import shlex
from pathlib import Path

from pcubed.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_line_examples():
    """Each command of README's "Command line" sh block, without ``pcubed`` and the trailing comment."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "pcubed" for argv in commands), commands
    return [argv[1:] for argv in commands]


def test_every_command_line_example_exits_0(capsys):
    examples = _command_line_examples()
    assert examples
    for argv in examples:
        assert main(argv) == 0, argv
        capsys.readouterr()
