"""Orbit enumeration of matrix-generated actions on finite abelian groups.

States are mixed-radix encodings of model coefficient vectors (big-endian in
the fixed basis order, so numeric order on states is lexicographic order on
coefficient vectors).  Orbits come from a breadth-first closure under the
generator matrices, vectorized over frontier chunks of ``_CHUNK`` states;
scanning seeds in increasing state order makes every seed the
lexicographically minimal member of its orbit, which is the canonical
representative contract the Morita graph relies on.

- Seed scan: the next seed is the first ``-1`` (unvisited) entry of
  ``orbit_id`` found block by block with ``np.flatnonzero``, so the scan
  costs one vector compare per block, not one Python step per state.
- Dedupe in the table: each unvisited image writes its own negative tag
  (``-2 - position``) into ``orbit_id`` and keeps its place only if that tag
  reads back, so exactly one copy of every new state survives without a sort
  or a hash table; the survivors are then set to the orbit id.
- Exactness: decode, ``matrix @ coords`` (through BLAS), the reduction mod
  each row's modulus and the encode all run in float64, which is exact while
  every value stays below 2**53.  Matrix rows are reduced mod their modulus
  first, so dot products stay below ``k * max(m - 1)**2``; inputs for which
  that or the number of states reaches 2**53 are refused with ``ValueError``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .groups import FAMILIES, Family
from .h4_models import ActionGenerator, CohClass, H4Model, action_generators, h4_model

DEFAULT_MAX_STATES = 10**8
_CHUNK = 1 << 13  # the (generators * k) x chunk float64 temporaries stay within L2


@dataclass(frozen=True)
class Orbit:
    rep: CohClass
    size: int


@dataclass
class OrbitIndex:
    """Orbit decomposition of a whole model under a fixed generator set."""

    model: H4Model
    generators: tuple[ActionGenerator, ...]
    orbit_id: np.ndarray  # int32, len == model.total_order
    orbits: list[Orbit]

    def orbit_of(self, cls: CohClass) -> Orbit:
        if cls.model != self.model:
            raise ValueError("class belongs to a different model")
        return self.orbits[int(self.orbit_id[self.model.encode(cls.coeffs)])]

    def rep_of(self, cls: CohClass) -> CohClass:
        return self.orbit_of(cls).rep

    def sizes(self) -> list[int]:
        return [o.size for o in self.orbits]


def _mod_exact(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x %= m`` in place for float64 arrays of integers in [0, 2**53).

    ``floor(x / m)`` is the exact integer quotient there: the correctly
    rounded ``x / m`` lies within half an ulp, which is below ``1/m``, of the
    true quotient, so it never rounds up to the next integer.
    """
    q = x / m
    np.floor(q, out=q)
    q *= m
    x -= q
    return x


def enumerate_orbit_ids(moduli, matrices, max_states: int = DEFAULT_MAX_STATES):
    """Core BFS: orbit ids, seed states and sizes for matrices acting mod moduli.

    Seeds are scanned in increasing state order, so each seed is the smallest
    encoded state of its orbit.  Raises ``ValueError`` when the arithmetic
    would not be exact in float64 (``k * max(m - 1)**2`` or the number of
    states at least 2**53) or the state space is above ``max_states``.
    """
    moduli = np.asarray(moduli, dtype=np.int64)
    k = len(moduli)
    total = math.prod(int(m) for m in moduli)
    bound = max(k * (int(moduli.max()) - 1) ** 2, total)
    if bound >= 2**53:
        raise ValueError(f"moduli {moduli.tolist()} too large for exact float64 arithmetic (bound {bound} >= 2^53)")
    if total > max_states:
        raise ValueError(f"state space {total} above the bound {max_states}")
    weights = np.ones(k)
    for i in range(k - 2, -1, -1):
        weights[i] = weights[i + 1] * moduli[i + 1]
    # row i acts mod moduli[i], so reducing it there changes no image and
    # keeps every entry of mats @ coords below k * max(m - 1)**2
    mats = np.stack([np.asarray(m, dtype=np.int64) for m in matrices]) % moduli[:, None]
    stacked = mats.reshape(-1, k).astype(np.float64)
    row_moduli = np.tile(moduli, len(mats))[:, None].astype(np.float64)
    col_moduli = moduli[:, None].astype(np.float64)

    orbit_id = np.full(total, -1, dtype=np.int32)
    seeds: list[int] = []
    sizes: list[int] = []
    ptr = 0
    while ptr < total:
        free = np.flatnonzero(orbit_id[ptr : ptr + _CHUNK] == -1)
        if not free.size:
            ptr += _CHUNK
            continue
        ptr += int(free[0])
        oid = len(seeds)
        orbit_id[ptr] = oid
        frontier = np.array([ptr], dtype=np.int64)
        size = 1
        while frontier.size:
            new_parts = []
            for lo in range(0, frontier.size, _CHUNK):
                coords = frontier[lo : lo + _CHUNK] / weights[:, None]
                np.floor(coords, out=coords)
                images = _mod_exact(stacked @ _mod_exact(coords, col_moduli), row_moduli)
                cand = (weights @ images.reshape(len(mats), k, -1)).astype(np.int64).ravel()
                cand = cand[orbit_id[cand] == -1]
                # in-table dedupe: every candidate writes its own tag, and the
                # one whose tag reads back stands for its state
                tags = -2 - np.arange(cand.size, dtype=np.int32)
                orbit_id[cand] = tags
                cand = cand[orbit_id[cand] == tags]
                orbit_id[cand] = oid
                new_parts.append(cand)
            frontier = np.concatenate(new_parts)
            size += frontier.size
        seeds.append(ptr)
        sizes.append(size)
        ptr += 1
    return orbit_id, seeds, sizes


def enumerate_orbits(
    model: H4Model,
    generators=None,
    max_states: int = DEFAULT_MAX_STATES,
) -> OrbitIndex:
    """BFS closure from each unvisited state, deterministic orbit numbering."""
    if generators is None:
        generators = action_generators(model.family, model.p)
    orbit_id, seeds, sizes = enumerate_orbit_ids(
        model.moduli, [g.array for g in generators], max_states
    )
    orbits = [
        Orbit(rep=model.cls(model.decode(seed)), size=size)
        for seed, size in zip(seeds, sizes)
    ]
    return OrbitIndex(model, tuple(generators), orbit_id, orbits)


def expected_orbit_count(family: Family, p: int) -> int:
    """Published per-family orbit counts used by the --check mode."""
    return {
        Family.CYCLIC: 7,
        Family.P2XP: 16,
        Family.ELEM_ABELIAN: p + 11,
        Family.HEISENBERG: 2 * p + 9,
        Family.GP: 3 * p,
    }[Family(family)]


def orbit_counts(p: int, families=None, max_states: int = DEFAULT_MAX_STATES) -> dict[Family, int]:
    families = tuple(families) if families else FAMILIES
    return {
        fam: len(enumerate_orbits(h4_model(fam, p), max_states=max_states).orbits)
        for fam in families
    }


def orbit_rows(index: OrbitIndex) -> list[dict]:
    """One serializable row per orbit: representative coefficients, label, size."""
    model = index.model
    rows = []
    for oid, orbit in enumerate(index.orbits):
        rows.append(
            {
                "family": model.family.value,
                "p": model.p,
                "orbit": oid,
                "rep_coeffs": list(orbit.rep.coeffs),
                "rep_label": orbit.rep.label(),
                "size": orbit.size,
            }
        )
    return rows
