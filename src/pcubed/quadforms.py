"""Quadratic / symmetric bilinear forms over F_p, p odd, up to congruence.

Over an odd prime field a symmetric form is determined up to congruence
Q -> A^T Q A by its rank and the square class of the discriminant (the
determinant of a nonsingular principal rank x rank minor).  This module
computes that invariant with ``modular.rank_and_det_mod``, the 2n+1 diagonal
representatives in dimension n, and the unit h for which h*z1^2 + z2^2 is
*not* congruent to z1*z2.  The exact class count closes all symmetric forms
under GL(n, p) acting through ``modular.quadratic_substitution_matrix``, the
same action that gives the quadratic part of the H^4 models.  It expands each
form under Waterhouse's two generators of GL(n, p),
``modular.gl_generator_pair``, where the H^4 models and the tests' closure
oracle use the three of ``modular.gl_generators``.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .modular import (
    gl_generator_pair, inverse_mod, least_nonsquare, legendre, primitive_root, quadratic_substitution_matrix,
    rank_and_det_mod, require_odd_prime,
)
from .orbits import DEFAULT_MAX_STATES, enumerate_orbit_ids, require_state_space

SQUARE = "square"
NONSQUARE = "nonsquare"


@dataclass(frozen=True)
class QuadForm:
    """Symmetric n x n matrix over F_p, entries stored reduced mod p."""

    p: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        require_odd_prime(self.p)
        m = self.matrix
        n = len(m)
        if any(len(row) != n for row in m):
            raise ValueError("matrix must be square")
        if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
            raise ValueError("matrix must be symmetric")

    @property
    def n(self) -> int:
        return len(self.matrix)

    @staticmethod
    def from_matrix(mat, p: int) -> "QuadForm":
        rows = tuple(tuple(int(x) % p for x in row) for row in mat)
        return QuadForm(p, rows)

    @staticmethod
    def diagonal(entries, p: int) -> "QuadForm":
        n = len(entries)
        mat = [[entries[i] % p if i == j else 0 for j in range(n)] for i in range(n)]
        return QuadForm.from_matrix(mat, p)

    @staticmethod
    def from_poly(n: int, p: int, coeffs: dict) -> "QuadForm":
        """Build from polynomial coefficients {(i, j): c} of c * z_i z_j, i <= j.

        Cross terms pick up the 1/2 polarization factor, so z1*z2 becomes
        off-diagonal entries of value 1/2 mod p.
        """
        half = inverse_mod(2, p)
        mat = [[0] * n for _ in range(n)]
        for (i, j), c in coeffs.items():
            if i == j:
                mat[i][i] = (mat[i][i] + c) % p
            else:
                mat[i][j] = (mat[i][j] + c * half) % p
                mat[j][i] = mat[i][j]
        return QuadForm.from_matrix(mat, p)


@dataclass(frozen=True)
class CongruenceInvariant:
    rank: int
    disc_class: str | None  # SQUARE / NONSQUARE, None for rank 0


def congruence_invariant(q: QuadForm) -> CongruenceInvariant:
    """Rank and discriminant square-class.

    A nonsingular principal rank x rank minor spans a complement of the
    radical, so its determinant is the discriminant of the nondegenerate part.
    """
    p, n = q.p, q.n
    rank, det = rank_and_det_mod(q.matrix, p)
    if rank == 0:
        return CongruenceInvariant(0, None)
    if rank < n:
        minors = (rank_and_det_mod([[q.matrix[i][j] for j in idx] for i in idx], p)[1]
                  for idx in combinations(range(n), rank))
        det = next(d for d in minors if d)
    return CongruenceInvariant(rank, SQUARE if legendre(det, p) == 1 else NONSQUARE)


def are_congruent(q1: QuadForm, q2: QuadForm) -> bool:
    """True iff q2 = A^T q1 A for some invertible A (decided by invariants)."""
    if q1.p != q2.p:
        raise ValueError("forms live over different primes")
    if q1.n != q2.n:
        raise ValueError("dimension mismatch")
    return congruence_invariant(q1) == congruence_invariant(q2)


def count_congruence_classes(n: int, p: int) -> int:
    """Exact class count: vectorized orbit closure over all n x n symmetric forms.

    The congruence action of GL(n, p) is linearized on the n(n+1)/2 polynomial
    coefficients by the quadratic substitution z -> g z and closed with the
    shared BFS engine, which quotients by the scalar g I_n.  Its callers are
    the ``quadforms`` benchmark sweep, demo 03 and the tests, where it is the
    independent count that ``verify``'s, read off the H^4 model orbits with a
    twist coordinate 0, is compared with.
    """
    require_odd_prime(p)
    require_state_space([p] * (n * (n + 1) // 2), DEFAULT_MAX_STATES)  # before the GL(n, p) generators
    _, seeds, _ = enumerate_orbit_ids(*congruence_action(n, p))
    return len(seeds)


def congruence_action(n: int, p: int) -> tuple[list[int], list[np.ndarray]]:
    """Moduli and generator matrices of GL(n, p) acting on the n(n+1)/2
    coefficients of a quadratic form by the substitution z -> g z: the pair
    A = diag(g, 1, ..., 1) and B of ``modular.gl_generator_pair`` (W. C.
    Waterhouse, Linear and Multilinear Algebra 24, 1989), A alone at n = 1,
    so the BFS computes two images per form, then the scalar g I_n for the
    primitive root g, which multiplies every form by g^2 and so lets the BFS
    quotient by the scalars g^(2j)."""
    if n < 1:
        raise ValueError(f"dimension {n} must be at least 1")
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    subs = list(gl_generator_pair(n, p)) + [primitive_root(p) * np.eye(n, dtype=np.int64)]
    return [p] * len(pairs), [quadratic_substitution_matrix(np.array(g), pairs, p) for g in subs]


def representatives(n: int, p: int) -> list[QuadForm]:
    """The 2n+1 diagonal congruence representatives 0, z1^2, g*z1^2, ..."""
    if not 1 <= n <= 3:
        raise ValueError(f"dimension {n} outside 1..3")
    g = least_nonsquare(p)
    reps = [QuadForm.diagonal([0] * n, p)]
    for r in range(1, n + 1):
        for lead in (1, g):
            entries = [0] * n
            entries[0] = lead
            for i in range(1, r):
                entries[i] = 1
            reps.append(QuadForm.diagonal(entries, p))
    return reps


def select_h(p: int) -> int:
    """The h in {1, g} with h*z1^2 + z2^2 not congruent to z1*z2."""
    g = least_nonsquare(p)
    z1z2 = QuadForm.from_poly(2, p, {(0, 1): 1})
    for h in (1, g):
        cand = QuadForm.diagonal([h, 1], p)
        if not are_congruent(cand, z1z2):
            return h
    raise AssertionError("one of the two rank-2 classes must avoid z1*z2")
