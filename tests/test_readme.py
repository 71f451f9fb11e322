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


def test_the_library_example_prints_what_its_comments_state(capsys):
    # each print line ends in a comment that opens with the number it prints, as "# 19 = 2p + 9"
    section = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stated = [int(m) for m in re.findall(r"^print\(.*#\s*(\d+)", block, re.M)]
    exec(compile(block, "README.md", "exec"), {})
    assert stated == [19, 57]
    assert capsys.readouterr().out.split() == [str(n) for n in stated]
