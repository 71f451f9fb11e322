"""The five groups of order p^3 as explicit multiplication tables.

Elements are normal-form exponent tuples mapped to dense indices, with the
full product table precomputed, so every downstream loop pays O(1) per
product.  One closure search yields the normal abelian subgroups, the least
generators of each, and so its type.  Automorphisms are found by brute force
over generator images of the right element orders, batched per image of the
first searched generator: every choice of the other images is one row of a
numpy batch, and each row is extended by normal form to an image array img,
which is a homomorphism iff img(g x) = img(g) img(x) for every normal-form
generator g and every x: the generators generate G, so the rows of the
generators in the multiplication table are enough.  A homomorphism is an
isomorphism iff img is a permutation.  The defining relations are read only
by ``GroupTable.validate``, which checks the presentation.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations

import numpy as np

from .modular import radix_digits, radix_weights, require_odd_prime

GROUP_TABLE_MAX_P = 7  # order 343, the largest any caller builds


class Family(Enum):
    CYCLIC = "cyclic"
    P2XP = "p2xp"
    ELEM_ABELIAN = "elem_abelian"
    HEISENBERG = "heisenberg"
    GP = "gp"

    @staticmethod
    def parse(name: str) -> "Family":
        for fam in Family:
            if fam.value == name or fam.name.lower() == name.lower():
                return fam
        raise ValueError(f"unknown family {name!r}")


FAMILIES = tuple(Family)


def _radices(family: Family, p: int) -> tuple[int, ...]:
    return {
        Family.CYCLIC: (p**3,),
        Family.P2XP: (p**2, p),
        Family.ELEM_ABELIAN: (p, p, p),
        Family.HEISENBERG: (p, p, p),
        Family.GP: (p**2, p),
    }[family]


def _gen_labels(family: Family) -> tuple[str, ...]:
    # aligned with normal-form exponent positions
    return {
        Family.CYCLIC: ("x",),
        Family.P2XP: ("x", "y"),
        Family.ELEM_ABELIAN: ("x1", "x2", "x3"),
        Family.HEISENBERG: ("A", "B", "C"),
        Family.GP: ("b", "a"),
    }[family]


def _mul_exps(family: Family, p: int, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Vectorized normal-form product; e1, e2 broadcastable (..., k) arrays."""
    if family is Family.CYCLIC:
        return (e1 + e2) % p**3
    if family is Family.ELEM_ABELIAN:
        return (e1 + e2) % p
    if family is Family.P2XP:
        out = e1 + e2
        out[..., 0] %= p**2
        out[..., 1] %= p
        return out
    if family is Family.HEISENBERG:
        # (A^i1 B^j1 C^k1)(A^i2 B^j2 C^k2) = A^(i1+i2) B^(j1+j2) C^(k1+k2-i2*j1)
        out = np.empty(np.broadcast(e1, e2).shape, dtype=np.int64)
        out[..., 0] = (e1[..., 0] + e2[..., 0]) % p
        out[..., 1] = (e1[..., 1] + e2[..., 1]) % p
        out[..., 2] = (e1[..., 2] + e2[..., 2] - e2[..., 0] * e1[..., 1]) % p
        return out
    if family is Family.GP:
        # (b^i1 a^j1)(b^i2 a^j2) = b^(i1 + i2*(p+1)^j1) a^(j1+j2)
        pw = np.array([pow(p + 1, j, p**2) for j in range(p)], dtype=np.int64)
        out = np.empty(np.broadcast(e1, e2).shape, dtype=np.int64)
        out[..., 0] = (e1[..., 0] + e2[..., 0] * pw[e1[..., 1]]) % p**2
        out[..., 1] = (e1[..., 1] + e2[..., 1]) % p
        return out
    raise ValueError(family)


def _relations(family: Family, p: int) -> list[list[tuple[str, int]]]:
    """Defining relations as words (label, exponent); each must evaluate to e."""
    comm = lambda u, v: [(u, 1), (v, 1), (u, -1), (v, -1)]
    if family is Family.CYCLIC:
        return [[("x", p**3)]]
    if family is Family.P2XP:
        return [[("x", p**2)], [("y", p)], comm("x", "y")]
    if family is Family.ELEM_ABELIAN:
        rels = [[(g, p)] for g in ("x1", "x2", "x3")]
        rels += [comm(u, v) for u, v in combinations(("x1", "x2", "x3"), 2)]
        return rels
    if family is Family.HEISENBERG:
        return [
            [("A", p)],
            [("B", p)],
            [("C", p)],
            comm("A", "C"),
            comm("B", "C"),
            [("A", 1), ("B", 1), ("A", -1), ("B", -1), ("C", -1)],  # ABA^-1 = BC
        ]
    if family is Family.GP:
        return [
            [("a", p)],
            [("b", p**2)],
            [("a", 1), ("b", 1), ("a", -1), ("b", -(p + 1))],  # aba^-1 = b^(p+1)
        ]
    raise ValueError(family)


@dataclass(eq=False)
class GroupTable:
    """A group of order p^3 with precomputed product/inverse tables."""

    family: Family
    p: int
    order: int
    exps: np.ndarray          # (order, k) normal-form exponents
    mul: np.ndarray           # (order, order) int16, as are the automorphism rows
    inv: np.ndarray           # (order,) int16
    identity: int
    gen_names: dict[str, int]
    gen_labels: tuple[str, ...] = field(repr=False)
    element_orders: np.ndarray = field(repr=False)

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def power(self, a: int, e: int) -> int:
        if e < 0:
            a, e = int(self.inv[a]), -e
        r, base = self.identity, a
        while e:
            if e & 1:
                r = int(self.mul[r, base])
            base = int(self.mul[base, base])
            e >>= 1
        return r

    def evaluate_word(self, word, images: dict[str, int]) -> int:
        r = self.identity
        for label, e in word:
            r = self.multiply(r, self.power(images[label], e))
        return r

    def element_order(self, a: int) -> int:
        return int(self.element_orders[a])

    def word(self, a: int) -> str:
        """Render an element as a word in the generators, 'e' for the identity."""
        parts = []
        for pos, label in enumerate(self.gen_labels):
            e = int(self.exps[a, pos])
            if e == 1:
                parts.append(label)
            elif e > 1:
                parts.append(f"{label}^{e}")
        return "*".join(parts) if parts else "e"

    def closure(self, seed) -> frozenset:
        """Subgroup generated by the given element indices."""
        elems = {self.identity}
        frontier = [self.identity]
        gens = [int(g) for g in seed]
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    v = int(self.mul[h, g])
                    if v not in elems:
                        elems.add(v)
                        nxt.append(v)
            frontier = nxt
        return frozenset(elems)

    def validate(self) -> None:
        """Exhaustive group-axiom and presentation checks, associativity included."""
        n = self.order
        if n != self.p**3:
            raise AssertionError("order != p^3")
        if not np.array_equal(self.mul[self.identity, :], np.arange(n)):
            raise AssertionError("identity fails on the left")
        if not np.array_equal(self.mul[:, self.identity], np.arange(n)):
            raise AssertionError("identity fails on the right")
        if not np.all(self.mul[np.arange(n), self.inv] == self.identity):
            raise AssertionError("inverses fail")
        for a in range(n):
            if not np.array_equal(self.mul[self.mul[a, :], :], self.mul[a, self.mul]):
                raise AssertionError(f"associativity fails at element {a}")
        images = dict(self.gen_names)
        for word in _relations(self.family, self.p):
            if self.evaluate_word(word, images) != self.identity:
                raise AssertionError(f"defining relation {word} fails")


@lru_cache(maxsize=None)
def build_group(family: Family, p: int) -> GroupTable:
    """Construct and validate one of the five groups of order p^3."""
    require_odd_prime(p)
    if p > GROUP_TABLE_MAX_P:
        raise ValueError(f"p={p} above the group-table bound {GROUP_TABLE_MAX_P}")
    radices = _radices(family, p)
    order = int(np.prod(radices))
    exps = radix_digits(np.arange(order), radices)
    weights = np.array(radix_weights(radices), dtype=np.int64)

    mul = (_mul_exps(family, p, exps[:, None, :], exps[None, :, :]) @ weights).astype(np.int16)

    identity = 0
    inv = np.argmax(mul == identity, axis=1).astype(np.int16)

    labels = _gen_labels(family)
    # generator pos has exponent vector e_pos, which encodes to weights[pos]
    gen_names = {label: int(w) for label, w in zip(labels, weights)}

    orders = _element_orders(mul, identity, p)
    G = GroupTable(
        family=family,
        p=p,
        order=order,
        exps=exps,
        mul=mul,
        inv=inv,
        identity=identity,
        gen_names=gen_names,
        gen_labels=labels,
        element_orders=orders,
    )
    G.validate()
    return G


def _element_orders(mul: np.ndarray, identity: int, p: int) -> np.ndarray:
    n = mul.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    orders[identity] = 1
    cur = np.arange(n)
    step = 1
    while np.any(orders == 0):
        # raise everything to the p-th power
        nxt = cur
        for _ in range(p - 1):
            nxt = mul[nxt, cur]
        cur = nxt
        step *= p
        fresh = (orders == 0) & (cur == identity)
        orders[fresh] = step
    return orders


def center(G: GroupTable) -> frozenset:
    mask = np.all(G.mul == G.mul.T, axis=1)
    return frozenset(int(i) for i in np.flatnonzero(mask))


def _isomorphisms(G: GroupTable, H: GroupTable):
    """The isomorphisms G -> H as int16 arrays of element images, one row each,
    in lexicographic order of the searched generator images (each running over
    the elements of H of its order).

    One batch per image of the first searched generator holds every choice of
    the other images (a one-generator G is a single batch); each row of the
    batch is extended by normal form and tested as a whole array, and the
    batch's isomorphisms are yielded together, unless there are none."""
    # the Heisenberg C = [A, B] is derived, the other generators are searched
    heisenberg = G.family is Family.HEISENBERG
    labels = tuple(label for label in G.gen_labels if not (heisenberg and label == "C"))
    gens = np.array([G.gen_names[label] for label in G.gen_labels])
    candidates = [np.flatnonzero(H.element_orders == G.element_order(G.gen_names[label])) for label in labels]
    heads = candidates[0][:, None] if len(labels) > 1 else [candidates[0]]
    for head in heads:
        grids = np.meshgrid(head, *candidates[1:], indexing="ij")
        images = dict(zip(labels, (grid.ravel() for grid in grids)))
        if heisenberg:
            a, b = images["A"], images["B"]
            images["C"] = H.mul[H.mul[a, b], H.inv[H.mul[b, a]]]
        img = np.full((grids[0].size, G.order), H.identity, dtype=H.mul.dtype)
        for pos, label in enumerate(G.gen_labels):
            # tab[:, e] = image^e, so g1^e1...gk^ek -> im1^e1...imk^ek row by row
            tab = np.empty((img.shape[0], int(G.exps[:, pos].max()) + 1), dtype=H.mul.dtype)
            tab[:, 0] = H.identity
            for e in range(1, tab.shape[1]):
                tab[:, e] = H.mul[tab[:, e - 1], images[label]]
            img = H.mul[img, tab[:, G.exps[:, pos]]]
        hom = np.all(H.mul[img[:, gens][:, :, None], img[:, None, :]] == img[:, G.mul[gens]], axis=(1, 2))
        ordered = np.sort(img, axis=1)
        bijective = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
        found = img[hom & bijective]  # a copy, so the batch is not kept alive
        if len(found):
            yield found


def enumerate_automorphisms(G: GroupTable) -> np.ndarray:
    """Every automorphism as one int16 row of element images, in the
    deterministic order of the generator-image search."""
    return np.concatenate(list(_isomorphisms(G, G)))


@dataclass(frozen=True)
class SubgroupClass:
    """An Aut(G)-equivalence class of normal abelian subgroups."""

    isomorphism_type: tuple[int, ...]
    representative: frozenset
    members: tuple[frozenset, ...]
    generator_words: tuple[str, ...]


def normal_abelian_subgroups(G: GroupTable) -> dict[frozenset, tuple[int, ...]]:
    """Every proper nontrivial normal subgroup, sorted by (order, members), with its
    least generators: one iff it is cyclic.  Its order is p or p^2, so it is abelian."""
    n = G.order
    # <g, h> depends only on <g> and <h>, so close the cyclic subgroups' least generators
    # pairwise in increasing order: the first generators to reach a subgroup are its least
    gens: dict[frozenset, tuple[int, ...]] = {}
    for g in range(n):
        S = G.closure([g])
        if 1 < len(S) < n:
            gens.setdefault(S, (g,))
    small = [g for S, (g,) in gens.items() if len(S) <= G.p**2]
    for g, h in combinations(small, 2):
        S = G.closure([g, h])
        if len(S) < n:
            gens.setdefault(S, (g, h))
    out = {}
    for S in sorted(gens, key=lambda S: (len(S), sorted(S))):
        mem = np.fromiter(S, dtype=np.int64)
        if np.isin(G.mul[G.mul[:, mem], G.inv[:, None]], mem).all():  # g s g^-1 in S for all g, s
            out[S] = gens[S]
    return out


def normal_abelian_subgroup_classes(
    G: GroupTable, automorphisms: np.ndarray | None = None
) -> list[SubgroupClass]:
    """Partition the normal abelian subgroups into Aut(G)-equivalence classes.

    An automorphism sigma sends S to the normal subgroup of S's order generated by
    the images of S's generators, which is the one such subgroup holding them all:
    so S's orbit is read off the generator columns, with no image set built."""
    subgroups = normal_abelian_subgroups(G)
    if automorphisms is None:
        automorphisms = enumerate_automorphisms(G)
    unassigned = set(subgroups)
    classes = []
    for S, gens in subgroups.items():  # in sorted order, so S is the least member of its class
        if S not in unassigned:
            continue
        images = automorphisms[:, list(gens)]
        orbit = {T for T in unassigned if len(T) == len(S) and np.isin(images, list(T)).all(axis=1).any()}
        unassigned -= orbit
        classes.append(
            SubgroupClass(
                isomorphism_type=(len(S),) if len(gens) == 1 else (G.p, G.p),
                representative=S,
                members=tuple(sorted(orbit, key=sorted)),
                generator_words=tuple(G.word(g) for g in gens),
            )
        )
    return sorted(classes, key=lambda c: (len(c.representative), c.isomorphism_type, sorted(c.representative)))
