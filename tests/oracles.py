"""Brute-force oracles that only the tests compare the library against:
group isomorphism, a subgroup's least generators, a subgroup's orbit as the
set of its images, the closure of a matrix group, congruence of quadratic
forms by search over GL(n, p) and by closure under its generators, and the
identity suite's stride samples taken from the whole sweep; and the published
orbit counts, written out here apart from ``pcubed.published``.
"""

from itertools import combinations, islice, product

import numpy as np

from pcubed.graded_ring import MAX_TUPLES
from pcubed.groups import Family, GroupTable, _isomorphisms, center
from pcubed.modular import gl_generators, units
from pcubed.quadforms import QuadForm

# the per-family orbit counts the paper states, 6p + 43 in all
ORBIT_COUNTS = {
    Family.CYCLIC: lambda p: 7,
    Family.P2XP: lambda p: 16,
    Family.ELEM_ABELIAN: lambda p: p + 11,
    Family.HEISENBERG: lambda p: 2 * p + 9,
    Family.GP: lambda p: 3 * p,
}


def stride_sample(items, length: int) -> list:
    """Every stride-th of the ``length`` items, all of them when there are at
    most MAX_TUPLES, taken from the iterator one item at a time."""
    stride = 1 if length <= MAX_TUPLES else length // MAX_TUPLES + 1
    return list(islice(items, 0, None, stride))


def gl2(p: int):
    """The matrices of GL(2, p), ((a, b), (c, d)) in lexicographic order of (a, b, c, d)."""
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p:
            yield (a, b), (c, d)


def rho_sweep_sample(p: int) -> list:
    """The stride sample of the rho parameters (i, j, k, l) from the whole product."""
    return stride_sample(product(units(p * p), range(p), range(p), units(p)), p * (p - 1) * p * p * (p - 1))


def gl2_sweep_sample(p: int) -> list:
    """The stride sample of GL(2, p) from its matrices in order."""
    return stride_sample(gl2(p), (p * p - 1) * (p * p - p))


def are_isomorphic(G: GroupTable, H: GroupTable) -> bool:
    """Invariant filters, then the first isomorphism of the generator-image search."""
    if G.order != H.order:
        return False
    if sorted(G.element_orders.tolist()) != sorted(H.element_orders.tolist()):
        return False
    if len(center(G)) != len(center(H)):
        return False
    return next(_isomorphisms(G, H), None) is not None


def least_generators(G: GroupTable, S: frozenset) -> tuple[int, ...]:
    """The least member of S that generates it, else the least pair that
    does, by closing every member and every pair of members in turn."""
    members = sorted(S)
    for g in members:
        if G.closure([g]) == S:
            return (g,)
    for g, h in combinations(members, 2):
        if G.closure([g, h]) == S:
            return (g, h)
    raise AssertionError(f"a subgroup of order {len(S)} needs more than two generators")


def subgroup_orbit(automorphisms: np.ndarray, S: frozenset) -> set:
    """The image of S under every automorphism row, each as a frozenset."""
    return set(map(frozenset, automorphisms[:, np.fromiter(S, dtype=np.int64)].tolist()))


def matrix_group_closure(gens, moduli) -> set:
    """All products of the given matrices, as reduced tuples."""
    mod = np.array(moduli, dtype=np.int64)[:, None]
    start = tuple(tuple(int(v) for v in row) for row in np.eye(len(moduli), dtype=np.int64))
    seen = {start}
    frontier = [start]
    arrays = [np.array(g, dtype=np.int64) for g in gens]
    while frontier:
        nxt = []
        for m in frontier:
            ma = np.array(m, dtype=np.int64)
            for g in arrays:
                prod = (g @ ma) % mod
                key = tuple(tuple(int(v) for v in row) for row in prod)
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    return seen


def congruent_by_search(q1: QuadForm, q2: QuadForm) -> bool:
    """Brute-force oracle: search all invertible A for A^T q1 A = q2.

    Only feasible for n <= 2 at small p; kept deliberately independent of the
    invariant computation.
    """
    if q1.p != q2.p or q1.n != q2.n:
        raise ValueError("incomparable forms")
    p, n = q1.p, q1.n
    m1 = np.array(q1.matrix, dtype=np.int64)
    m2 = np.array(q2.matrix, dtype=np.int64)
    for entries in product(range(p), repeat=n * n):
        a = np.array(entries, dtype=np.int64).reshape(n, n)
        if round(np.linalg.det(a)) % p == 0:
            continue
        if np.array_equal((a.T @ m1 @ a) % p, m2):
            return True
    return False


def congruence_orbit_ids(n: int, p: int) -> dict[tuple, int]:
    """Exhaustive congruence classification of all symmetric n x n matrices.

    Closes the whole space under A -> G^T A G for a generating set of GL(n,p);
    the resulting partition is exactly the congruence relation.  Serves as the
    brute-force oracle in dimensions where per-pair search is too slow.

    A form's code reads its upper triangle, row by row, as base-p digits.  Each
    generator moves every form at once into a table of image codes, and a
    depth-first walk over those tables, seeded from the least unvisited code,
    numbers the orbits; the forms are keyed in the order the walk reaches them.
    """
    rows, cols = np.triu_indices(n)
    upper = np.stack(np.unravel_index(np.arange(p ** len(rows)), (p,) * len(rows)), axis=1)
    mats = np.zeros((len(upper), n, n), dtype=np.int64)
    mats[:, rows, cols] = mats[:, cols, rows] = upper
    weights = p ** np.arange(len(rows) - 1, -1, -1)
    images = []
    for g in gl_generators(n, p):
        g = np.array(g, dtype=np.int64)
        moved = g.T @ mats @ g % p
        images.append((moved[:, rows, cols] @ weights).tolist())
    orbit = [-1] * len(mats)
    reached = []
    next_id = 0
    for seed in range(len(mats)):
        if orbit[seed] >= 0:
            continue
        orbit[seed] = next_id
        reached.append(seed)
        stack = [seed]
        while stack:
            cur = stack.pop()
            for image in images:
                nxt = image[cur]
                if orbit[nxt] < 0:
                    orbit[nxt] = next_id
                    reached.append(nxt)
                    stack.append(nxt)
        next_id += 1
    forms = [tuple(map(tuple, m)) for m in mats.tolist()]
    return {forms[code]: orbit[code] for code in reached}


def least_members(n: int, pairs) -> list[int]:
    """The least node of each node's class, for nodes 0..n-1 joined by the
    pairs, by union-find with path halving."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        parent[max(a, b)] = min(a, b)  # the root is the least member
    return [find(x) for x in range(n)]
