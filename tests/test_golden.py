"""CLI output pinned byte for byte against files under tests/golden/, and the
benchmark's workload outputs against their digests in perfbench/digests.json.

Regenerate a file only for a deliberate change of output, with its command in
GOLDEN below.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pcubed.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# file name -> (argv, exit code)
GOLDEN = {
    "morita-p3.json": (["morita", "-p", "3", "--format", "json"], 0),
    "classify-p3-5.json": (["classify", "-p", "3,5", "--format", "json"], 0),
    "classify-p3-5-7.csv": (["classify", "-p", "3,5,7", "--format", "csv"], 0),
    "classify-p11-13.csv": (["classify", "-p", "11,13", "--format", "csv"], 0),
    "classify-p3-5-7-11.md": (["classify", "-p", "3,5,7,11"], 0),
    "verify-p3.md": (["verify", "-p", "3"], 0),
    # the negative control: one perturbed action-matrix entry fails verify
    "verify-p3-corrupt-heisenberg-1-2.md": (["verify", "-p", "3", "--corrupt", "heisenberg:1:2"], 1),
    "verify-p5.md": (["verify", "-p", "5"], 0),
    "verify-p7.md": (["verify", "-p", "7"], 0),
    "morita-p3.md": (["morita", "-p", "3"], 0),
    "morita-p3-5-7-11.md": (["morita", "-p", "3,5,7,11", "--check"], 0),
    "morita-p3.csv": (["morita", "-p", "3", "--format", "csv"], 0),
    "quadforms-n3-p3-5-7-11-13.md": (["quadforms", "-n", "3", "-p", "3,5,7,11,13"], 0),
    "quadforms-p3-5-7-which-h.md": (["quadforms", "-p", "3,5,7", "--which-h"], 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(capsys, name):
    argv, code = GOLDEN[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode() == (Path(__file__).parent / "golden" / name).read_bytes()


def _workload_runs():
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    return [(name, size, digest) for name, sizes in digests.items() for size, digest in sizes.items()]


@pytest.mark.parametrize("workload, size, digest", _workload_runs())
def test_benchmark_workload_output_matches_its_digest(capsys, monkeypatch, workload, size, digest):
    # in process, so a drift of the benchmark's stdout fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    if w.entry == "cli":
        entry = main
    else:
        from quadforms_sweep import main as entry
    assert entry(w.argv(size)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
