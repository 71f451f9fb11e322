"""The counts the paper states, as functions of p (or of the form rank n), each read as ``published.<name>``."""

from .groups import Family


def orbit_count(family: Family, p: int) -> int:
    """Aut(G)-orbits on the family's H^4(G, Z) model; 6p + 43 over the five families."""
    return {
        Family.CYCLIC: 7,
        Family.P2XP: 16,
        Family.ELEM_ABELIAN: p + 11,
        Family.HEISENBERG: 2 * p + 9,
        Family.GP: 3 * p,
    }[family]


def morita_histogram(p: int) -> dict[int, int]:
    """The number of weak-Morita classes holding 1, 2 and 3 orbits; 5p + 32 classes in all."""
    return {1: 4 * p + 22, 2: p + 9, 3: 1}


def aut_order(family: Family, p: int) -> int:
    """|Aut(G)| of the family's group."""
    return {
        Family.CYCLIC: p**2 * (p - 1),
        Family.P2XP: p**3 * (p - 1) ** 2,
        Family.ELEM_ABELIAN: (p**3 - 1) * (p**3 - p) * (p**3 - p**2),
        Family.HEISENBERG: p**2 * (p**2 - 1) * (p**2 - p),
        Family.GP: p**3 * (p - 1),
    }[family]


def subgroup_class_count(family: Family) -> int:
    """Aut(G)-classes of normal abelian subgroups of the family's group, at every odd p."""
    return {Family.CYCLIC: 2, Family.P2XP: 4, Family.ELEM_ABELIAN: 2, Family.HEISENBERG: 2, Family.GP: 3}[family]


def congruence_class_count(n: int) -> int:
    """Congruence classes of quadratic forms of rank <= n over F_p, at every odd p."""
    return 2 * n + 1
