from functools import lru_cache

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
