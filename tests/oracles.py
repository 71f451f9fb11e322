"""Brute-force oracles that only the tests compare the library against:
group isomorphism, the closure of a matrix group, and congruence of
quadratic forms by search over GL(n, p) and by closure under its generators.
"""

from itertools import product

import numpy as np

from pcubed.groups import BRUTE_FORCE_MAX_ORDER, GroupTable, _isomorphisms, center
from pcubed.modular import gl_generators
from pcubed.quadforms import QuadForm


def are_isomorphic(G: GroupTable, H: GroupTable) -> bool:
    """Invariant filters, then the first isomorphism of the generator-image search."""
    if G.order > BRUTE_FORCE_MAX_ORDER or H.order > BRUTE_FORCE_MAX_ORDER:
        raise ValueError("order above brute-force bound")
    if G.order != H.order:
        return False
    if sorted(G.element_orders.tolist()) != sorted(H.element_orders.tolist()):
        return False
    if len(center(G)) != len(center(H)):
        return False
    return next(_isomorphisms(G, H), None) is not None


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
    """
    gens = [np.array(g, dtype=np.int64) for g in gl_generators(n, p)]
    ids: dict[tuple, int] = {}
    all_forms = [
        tuple(map(tuple, _sym_from_upper(upper, n, p)))
        for upper in product(range(p), repeat=n * (n + 1) // 2)
    ]
    next_id = 0
    for form in all_forms:
        if form in ids:
            continue
        oid = next_id
        next_id += 1
        stack = [form]
        ids[form] = oid
        while stack:
            cur = np.array(stack.pop(), dtype=np.int64)
            for g in gens:
                moved = (g.T @ cur @ g) % p
                nxt = tuple(tuple(int(v) for v in row) for row in moved)
                if nxt not in ids:
                    ids[nxt] = oid
                    stack.append(nxt)
    return ids


def _sym_from_upper(upper, n, p):
    mat = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            v = next(it)
            mat[i][j] = mat[j][i] = v % p
    return mat
