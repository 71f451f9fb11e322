"""Independent orbit-count oracle: Burnside's lemma over the closed matrix group.

The BFS orbit counts are re-derived as the average number of fixed points of
the full (finite) matrix group generated by the action generators.  This
shares no code path with the breadth-first enumeration: the group is closed
by multiplication and fixed points are counted state by state.
"""

import numpy as np
import pytest

from pcubed.groups import Family
from pcubed.h4_models import action_generators, h4_model

from oracles import AUT_ORDERS, matrix_group_closure


def _fixed_point_counts(matrices, moduli):
    moduli = np.asarray(moduli, dtype=np.int64)
    n = len(moduli)
    weights = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        weights[i] = weights[i + 1] * moduli[i + 1]
    total = int(np.prod(moduli))
    states = np.arange(total, dtype=np.int64)
    coords = (states[None, :] // weights[:, None]) % moduli[:, None]  # (n, total)
    counts = []
    chunk = max(1, (1 << 24) // (n * total))
    mats = np.stack([np.asarray(m, dtype=np.int64) for m in matrices])
    for lo in range(0, len(mats), chunk):
        moved = (mats[lo : lo + chunk] @ coords) % moduli[None, :, None]
        fixed = np.all(moved == coords[None, :, :], axis=1).sum(axis=1)
        counts.extend(int(v) for v in fixed)
    return counts


@pytest.mark.parametrize("fam,p", sorted(AUT_ORDERS, key=str))
def test_burnside_count_matches_bfs(fam, p, indices_for):
    model = h4_model(fam, p)
    group = matrix_group_closure(action_generators(fam, p), model.moduli)
    # the matrix group is a quotient of Aut(G)
    assert AUT_ORDERS[(fam, p)] % len(group) == 0
    fixed = _fixed_point_counts(sorted(group), model.moduli)
    assert sum(fixed) % len(group) == 0
    n_orbits = sum(fixed) // len(group)
    index = indices_for(p)[fam]
    assert n_orbits == len(index.orbits)
    # orbit-stabilizer: every BFS orbit size divides the matrix group order
    for orbit in index.orbits:
        assert len(group) % orbit.size == 0
