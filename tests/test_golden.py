"""CLI output pinned byte for byte against files under tests/golden/.

Regenerate a file only for a deliberate change of output, with its command in
GOLDEN below.
"""

from pathlib import Path

import pytest

from pcubed.cli import main

GOLDEN = {
    "morita-p3.json": ["morita", "-p", "3", "--format", "json"],
    "classify-p3-5.json": ["classify", "-p", "3,5", "--format", "json"],
    "classify-p3-5-7.csv": ["classify", "-p", "3,5,7", "--format", "csv"],
    "classify-p11-13.csv": ["classify", "-p", "11,13", "--format", "csv"],
    "classify-p3-5-7-11.md": ["classify", "-p", "3,5,7,11"],
    "verify-p5.md": ["verify", "-p", "5"],
    "verify-p7.md": ["verify", "-p", "7"],
    "morita-p3.md": ["morita", "-p", "3"],
    "morita-p3-5-7-11.md": ["morita", "-p", "3,5,7,11", "--check"],
    "morita-p3.csv": ["morita", "-p", "3", "--format", "csv"],
    "quadforms-n3-p3-5-7-11-13.md": ["quadforms", "-n", "3", "-p", "3,5,7,11,13"],
    "quadforms-n2-p3-5-7-which-h.md": ["quadforms", "-n", "2", "-p", "3,5,7", "--which-h"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(capsys, name):
    assert main(GOLDEN[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (Path(__file__).parent / "golden" / name).read_bytes()
