import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from pcubed.groups import FAMILIES
from pcubed.h4_models import h4_model
from pcubed.lhs_morita import morita_components
from pcubed.orbits import enumerate_orbits
from pcubed.quadforms import count_congruence_classes

from oracles import congruence_orbit_ids


@lru_cache(maxsize=None)
def _indices(p):
    return {fam: enumerate_orbits(h4_model(fam, p)) for fam in FAMILIES}


@lru_cache(maxsize=None)
def _class_count(n, p):
    return count_congruence_classes(n, p)


@lru_cache(maxsize=None)
def _congruence_ids(n, p):
    return congruence_orbit_ids(n, p)


@lru_cache(maxsize=None)
def _graph(p):
    return morita_components(p, indices=_indices(p))


@pytest.fixture(scope="session")
def indices_for():
    """Cached per-prime orbit indices for all five families."""
    return _indices


@pytest.fixture(scope="session")
def graph_for():
    """Cached per-prime Morita graphs."""
    return _graph


@pytest.fixture(scope="session")
def class_count_for():
    """Cached congruence class counts, computed once per (n, p)."""
    return _class_count


@pytest.fixture(scope="session")
def congruence_ids_for():
    """Cached brute-force congruence partitions of all n x n forms, one per (n, p)."""
    return _congruence_ids


def _peak_rss_growth(setup: str, call: str) -> int:
    """Bytes by which a fresh child's peak RSS grows across the statement call, run
    after setup.  The child reads its own high-water mark, VmHWM: its ru_maxrss would
    start from this process's peak, which exec keeps, and so read 0 here."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status")
    code = (
        f"{setup}\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
        "base = peak()\n"
        f"{call}\n"
        "print(peak() - base)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) * 1024  # VmHWM is in kB


@pytest.fixture(scope="session")
def peak_rss_growth():
    """Peak RSS growth, in bytes, of a fresh child across one statement."""
    return _peak_rss_growth
