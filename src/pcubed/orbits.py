"""Orbit enumeration of matrix-generated actions on finite abelian groups.

States are mixed-radix encodings of model coefficient vectors (big-endian in
the fixed basis order, so numeric order on states is lexicographic order on
coefficient vectors).  Orbits come from a breadth-first closure under the
generator matrices, vectorized over frontier chunks of ``_CHUNK`` states;
scanning seeds in increasing state order makes every seed the
lexicographically minimal member of its orbit, which is the canonical
representative contract the Morita graph relies on.

- Seed scan: the next seed is the first unvisited entry of ``orbit_id``
  (the table dtype's maximum) found block by block with ``np.flatnonzero``,
  so the scan costs one vector compare per block, not one Python step per
  state.
- Dedupe by sort: each chunk's unvisited images are sorted and kept where
  they differ from their left neighbour, so exactly one copy of every new
  state survives; the survivors are then set to the orbit id, so a later
  chunk reads them as visited.  Frontiers are int32.
- A uint8 table: ``orbit_id`` costs one byte per state while the ids fit
  below the unvisited mark 255; the 256th orbit widens it to int32 once.
- Images by table: a state s splits as a * P + b at the digit boundary P
  nearest sqrt(total) (with one coordinate, at floor(sqrt(m)) or one above),
  so its coefficient vector is the digitwise sum of those of a * P and b
  and each generator's image is the sum of two int64 table entries.  The
  entries pack the image digits at radix 2 m_i - 1, so the sum has no carry
  between digits, and two small fold tables map its two halves back to the
  encoded image; a chunk costs one ``divmod``, four ``np.take`` calls and
  two adds, with no floating point and no BLAS.
- Exactness: ``require_state_space`` refuses 2^31 states or more before any
  work, for the int32 frontiers, and that bound keeps the tables in int64.
  Dot products: a row reduced mod m_i times digits below m_j is at most
  (m_i - 1) sum_j (m_j - 1) <= (m_i - 1)(states - 1) < 2^62, as prod(1 + x_j)
  >= 1 + sum x_j.  Packed sums: below 2 prod(2 m_i - 1) <= 2 * 2^s * states
  < 2^63, where s <= log2(states) < 31 is the number of moduli of 2 or more.
  A modulus-1 coordinate packs at radix 1, so it adds nothing to any table.
- Character split: when the last coordinate b has an odd prime modulus q and
  every matrix permutes the states and acts on b by a scalar chi(s) alone
  (the det on beta in the elementary-abelian model), the BFS runs on the
  other coordinates only and labels each state x with L(x) = log chi of a
  path to it from the seed x0.  Schreier's lemma: the stabiliser of x0 is
  generated by the t_sx^-1 s t_x over all edges (x, s), so log chi of it is
  generated mod q - 1 by the edge defects L(x) + log chi(s) - L(s x), and by
  their gcd d.  The block orbit O of x0 splits into O x {0} and one orbit of
  size |O| (q - 1) / d per coset (log b - L(x)) mod d; as b is the least
  significant coordinate, seeds and numbering are those of the full BFS.
  Only the block table and the labels are stored: the id of (x, b) is
  computed on demand from the block orbit of x, L(x) and log b, through one
  (distinct gcds x q - 1) table of coset offsets.
- Label tables: the labels of an edge's target are read from a (generators x
  q - 1) shift table, (L + log chi(s)) mod (q - 1) in the labels' own dtype,
  and each defect, shifted by q - 1 into 1..2 (q - 1) - 1 (so the labels'
  dtype holds it), is tested against the current gcd d in a "multiple of d"
  table; ``np.gcd.reduce`` runs only on a chunk with a defect that is not.
- One coordinate: a 1x1 multiplier u is replaced by its distinct repeated
  squares u, u^2, u^4, ..., ``m.bit_length()`` of them.  They are words in
  u, so orbits, seeds and sizes do not change, and u^e s is popcount(e)
  levels from s, not e: the cyclic model at p = 11 takes 27 levels in all,
  not 1331.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .groups import Family
from .h4_models import CohClass, H4Model, action_generators
from .modular import is_automorphism, is_prime, primitive_root, radix_digits, radix_weights

DEFAULT_MAX_STATES = 10**8
_CHUNK = 1 << 13  # the generators x chunk int64 image temporaries stay within L2


@dataclass(frozen=True)
class Orbit:
    rep: CohClass
    size: int


@dataclass
class OrbitIndex:
    """Orbit decomposition of a whole model under a fixed generator set."""

    model: H4Model
    ids: Callable[[np.ndarray], np.ndarray]  # encoded states -> int32 orbit ids
    orbits: list[Orbit]

    def orbit_of(self, cls: CohClass) -> Orbit:
        if cls.model != self.model:
            raise ValueError("class belongs to a different model")
        return self.orbits[int(self.ids(self.model.encode(cls.coeffs)))]


def _splits_off(moduli: np.ndarray, mats: np.ndarray) -> bool:
    """Whether the last coordinate splits off as a character chi.

    It does when its modulus is an odd prime and every (row-reduced) matrix
    permutes the states and acts on it by a scalar, ``chi``, alone.
    """
    q = int(moduli[-1])
    if len(moduli) < 2 or q == 2 or not is_prime(q) or mats[:, -1, :-1].any() or mats[:, :-1, -1].any():
        return False
    return all(is_automorphism(mat, moduli) for mat in mats)


def _discrete_logs(q: int) -> np.ndarray:
    """``log[b]`` to the base ``primitive_root(q)`` for b in 1..q-1; ``log[0]`` is 0."""
    log = np.zeros(q, dtype=np.int32)
    g, x = primitive_root(q), 1
    for i in range(q - 1):
        log[x] = i
        x = x * g % q
    return log


def _split_place(moduli) -> int:
    """The place value P nearest sqrt(total) at which every state splits as
    s = a * P + b with vec(s) = vec(a * P) + vec(b), digit by digit.

    With two coordinates or more, P is the best digit boundary.  With one,
    any P works, and the best is floor(sqrt(m)) or floor(sqrt(m)) + 1.
    """
    total = math.prod(int(m) for m in moduli)
    root = math.isqrt(total)
    places = radix_weights(moduli) if len(moduli) > 1 else (root, root + 1)
    return min(places, key=lambda P: (max(-(-total // P), P), P))


class _Images(NamedTuple):
    """Image tables of generator matrices acting mod ``moduli`` on encoded states.

    A state s = a * place + b has image ``hi[g, a] + lo[g, b]`` under
    generator g, packed: each entry holds the reduced image digits of a *
    place or of b at radix 2 m_i - 1, so the sum has every digit at most
    2 m_i - 2 and no carry between digits.  The digits before the fold split
    sit above bit ``shift``, the rest below it, and ``fold_hi`` and
    ``fold_lo`` map each group back to the mixed-radix code of its digits mod
    m_i.  With a single coordinate there are no fold tables: its sum is
    reduced by one conditional subtraction of ``modulus``.
    """

    place: int
    hi: np.ndarray  # (generators, ceil(total / place)) int64
    lo: np.ndarray  # (generators, place) int64
    shift: int
    fold_hi: np.ndarray | None
    fold_lo: np.ndarray | None
    modulus: int  # the single coordinate's modulus; 0 when there are fold tables

    def __call__(self, states: np.ndarray) -> np.ndarray:
        """Encoded images, one row per generator, of the integer ``states``."""
        a, b = np.divmod(states, self.place)
        packed = np.take(self.hi, a, axis=1)
        packed += np.take(self.lo, b, axis=1)
        if self.modulus:
            return np.subtract(packed, self.modulus, out=packed, where=packed >= self.modulus)
        images = np.take(self.fold_hi, packed >> self.shift)
        images += np.take(self.fold_lo, packed & ((1 << self.shift) - 1))
        return images


def _fold_table(radix, moduli, weights) -> np.ndarray:
    """Mixed-radix code of the digits mod ``moduli`` of every number at ``radix``."""
    return radix_digits(np.arange(math.prod(radix)), radix) % moduli @ weights


def _image_tables(moduli: np.ndarray, mats: np.ndarray) -> _Images:
    """The ``_Images`` of row-reduced ``mats``, built with exact int64 products.

    The image tables hold about sqrt(total) entries per generator, and the
    fold tables, one per half of a balanced cut of the digits, about
    sqrt(2**s * total), s the number of moduli of 2 or more.
    """
    k = len(moduli)
    weights = np.array(radix_weights(moduli), dtype=np.int64)
    total = int(weights[0] * moduli[0])
    place = _split_place(moduli)
    radix = [2 * int(m) - 1 for m in moduli]
    if k == 1:
        pack, shift, fold_hi, fold_lo = np.ones(1, dtype=np.int64), 0, None, None
    else:
        cut = min(range(1, k), key=lambda j: max(math.prod(radix[:j]), math.prod(radix[j:])))
        shift = (math.prod(radix[cut:]) - 1).bit_length()
        pack = np.array([w << shift for w in radix_weights(radix[:cut])] + list(radix_weights(radix[cut:])))
        fold_hi = _fold_table(radix[:cut], moduli[:cut], weights[:cut])
        fold_lo = _fold_table(radix[cut:], moduli[cut:], weights[cut:])

    def packed_images(codes):
        return pack @ (mats @ radix_digits(codes, moduli).T % moduli[:, None])

    return _Images(
        place=place,
        hi=packed_images(np.arange(-(-total // place)) * place),
        lo=packed_images(np.arange(place)),
        shift=shift,
        fold_hi=fold_hi,
        fold_lo=fold_lo,
        modulus=int(moduli[0]) if k == 1 else 0,
    )


def _bfs(images_of: _Images, orbit_id: np.ndarray, character=None):
    """Seed scan and chunked BFS over the uint8 ``orbit_id`` (all 255 on entry).

    Returns the seeds, sizes and gcds of the orbits and the table it ends
    with: ``orbit_id`` itself, or its int32 widening once a 256th orbit
    needs an id.  With ``character = (labels, log_chi, order)`` it also
    labels each state of an orbit with ``log chi`` of a path from the seed,
    mod ``order``, and the gcds are, per orbit, those of ``order`` and every
    edge's label defect.
    """
    total = orbit_id.size
    unvisited = np.iinfo(orbit_id.dtype).max
    if character is not None:
        labels, log_chi, order = character
        # shift[g, l] = (l + log chi(g)) mod order, and divisible[order + t]
        # whether t is 0 mod d: defects are looked up, not reduced
        shift = ((np.arange(order) + log_chi[:, None]) % order).astype(labels.dtype)
        multiples = np.arange(2 * order)

    seeds: list[int] = []
    sizes: list[int] = []
    gcds: list[int] = []
    ptr = 0
    while ptr < total:
        free = np.flatnonzero(orbit_id[ptr : ptr + _CHUNK] == unvisited)
        if not free.size:
            ptr += _CHUNK
            continue
        ptr += int(free[0])
        oid = len(seeds)
        if oid == unvisited:  # the 256th orbit: widen the table to int32, once
            wide = np.iinfo(np.int32).max
            orbit_id = np.where(orbit_id == unvisited, np.int32(wide), orbit_id)
            unvisited = wide
        orbit_id[ptr] = oid
        frontier = np.array([ptr], dtype=np.int32)
        size = 1
        d = order if character is not None else 1
        if d > 1:
            divisible = multiples % d == 0
        while frontier.size:
            new_parts = []
            for lo in range(0, frontier.size, _CHUNK):
                states = frontier[lo : lo + _CHUNK]
                images = images_of(states).ravel()
                fresh = np.take(orbit_id, images) == unvisited
                cand = np.compress(fresh, images)
                new = cand.astype(np.int32)
                new.sort()
                first = np.ones(new.size, dtype=bool)  # the first of each run of equal states
                np.not_equal(new[1:], new[:-1], out=first[1:])
                new = new[first]
                orbit_id[new] = oid
                new_parts.append(new)
                if d > 1:
                    # any edge into a new state gives it a valid label; once
                    # the gcd is 1 the labels are no longer needed
                    proposed = np.take(shift, np.take(labels, states), axis=1).ravel()
                    labels[cand] = np.compress(fresh, proposed)
                    # each defect, shifted by order, is in 1..2 order - 1
                    defects = proposed + order
                    defects -= np.take(labels, images)
                    if not np.take(divisible, defects).all():
                        d = math.gcd(d, int(np.gcd.reduce(defects)))
                        divisible = multiples % d == 0
            frontier = np.concatenate(new_parts)
            size += frontier.size
        seeds.append(ptr)
        sizes.append(size)
        gcds.append(d)
        ptr += 1
    return seeds, sizes, gcds, orbit_id


def _split_character(block, labels, block_seeds, block_sizes, gcds, log):
    """Orbit ids, seeds and sizes of the whole space from its block orbits.

    ``block`` and ``labels`` hold each block state x's orbit id and L(x); the
    state (x, b) is ``x * q + b``.  Block orbit O with seed x0 and gcd d
    becomes the orbit of (x0, 0), then one orbit per coset of the index-d
    subgroup of F_q^*, numbered by the coset's least member.  ``ids`` reads
    the id of (x, b), b != 0, as base(O) + offsets[d, (log b - L(x)) mod
    (q - 1)] on demand, with no table of the whole space.
    """
    q = log.size
    order = q - 1
    distinct, rows = np.unique(gcds, return_inverse=True)
    # one row per distinct gcd d: entry t is 1 + the rank of the coset t mod d
    offsets = np.empty((len(distinct), order), dtype=np.int32)
    cosets = []  # each row's coset least members, in increasing order
    for row, d in enumerate(distinct):
        least = np.full(d, q)
        np.minimum.at(least, log[1:] % d, np.arange(1, q))
        offsets[row] = 1 + np.argsort(np.argsort(least))[np.arange(order) % d]
        cosets.append(np.sort(least).tolist())

    seeds, sizes, bases = [], [], []
    for x0, n, d, row in zip(block_seeds, block_sizes, gcds, rows):
        bases.append(len(seeds))
        seeds += [x0 * q] + [x0 * q + b for b in cosets[row]]
        sizes += [n] + [n * order // d] * d
    bases = np.array(bases, dtype=np.int32)

    def ids(states):
        x, b = np.divmod(states, q)
        orbit = block[x]
        offset = offsets[rows[orbit], (log[b] - labels[x]) % order]
        return bases[orbit] + np.where(b == 0, 0, offset)

    return ids, seeds, sizes


def _repeated_squares(units: list[int], m: int) -> np.ndarray:
    """The distinct u, u^2, u^4, ... mod ``m``, ``m.bit_length()`` of each
    multiplier u, as 1x1 matrices.

    They are words in the u, so the orbits do not change, and any u^e with
    e < m is a product of popcount(e) of them: the BFS reaches it in that many
    levels, not e.
    """
    squares = dict.fromkeys(pow(u, 1 << t, m) for u in units for t in range(m.bit_length()))
    return np.array(list(squares), dtype=np.int64).reshape(-1, 1, 1)


def require_state_space(moduli, max_states: int) -> int:
    """The number of states mod ``moduli``, after refusing a modulus below 1,
    then more than ``max_states`` states, then 2^31 states or more."""
    moduli = [int(m) for m in moduli]
    if any(m < 1 for m in moduli):
        raise ValueError(f"moduli {moduli} must all be at least 1")
    total = math.prod(moduli)
    if total > max_states:
        raise ValueError(f"state space {total} above the bound {max_states}")
    if total >= 2**31:
        raise ValueError(f"state space {total} at or above 2^31, too large for int32 frontiers")
    return total


def enumerate_orbit_ids(moduli, matrices, max_states: int = DEFAULT_MAX_STATES):
    """Core BFS: orbit ids, seed states and sizes for matrices acting mod moduli.

    ``ids`` maps encoded states to orbit ids.  Seeds are scanned in increasing
    state order, so each seed is the smallest encoded state of its orbit.
    """
    total = require_state_space(moduli, max_states)
    moduli = np.asarray(moduli, dtype=np.int64)
    k = len(moduli)
    # row i acts mod moduli[i], so reducing it there changes no image and
    # keeps every dot product of the table build below 2^62
    mats = np.stack([np.asarray(m, dtype=np.int64) for m in matrices]) % moduli[:, None]
    if k == 1:
        mats = _repeated_squares(mats[:, 0, 0].tolist(), int(moduli[0]))

    split = _splits_off(moduli, mats)
    n = k - 1 if split else k  # the coordinates the BFS runs on
    images = _image_tables(moduli[:n], mats[:, :n, :n])
    q = int(moduli[-1]) if split else 1
    table = np.full(total // q, np.iinfo(np.uint8).max, dtype=np.uint8)
    if not split:
        seeds, sizes, _, table = _bfs(images, table)
        return lambda states: table[states].astype(np.int32), seeds, sizes
    log = _discrete_logs(q)
    # the labels' dtype also holds the shifted defects, up to 2 (q - 1) - 1
    labels = np.zeros(table.size, dtype=np.min_scalar_type(2 * (q - 1) - 1))
    seeds, sizes, gcds, table = _bfs(images, table, (labels, log[mats[:, -1, -1]], q - 1))
    return _split_character(table, labels, seeds, sizes, gcds, log)


def enumerate_orbits(
    model: H4Model,
    generators=None,
    max_states: int = DEFAULT_MAX_STATES,
) -> OrbitIndex:
    """BFS closure from each unvisited state, deterministic orbit numbering;
    ``generators`` are model matrices, the family's ``action_generators`` by default."""
    require_state_space(model.moduli, max_states)
    if generators is None:
        generators = action_generators(model.family, model.p)
    ids, seeds, sizes = enumerate_orbit_ids(model.moduli, generators, max_states)
    orbits = [
        Orbit(rep=model.cls(model.decode(seed)), size=size)
        for seed, size in zip(seeds, sizes)
    ]
    return OrbitIndex(model, ids, orbits)


def expected_orbit_count(family: Family, p: int) -> int:
    """Published per-family orbit counts used by the --check mode."""
    return {
        Family.CYCLIC: 7,
        Family.P2XP: 16,
        Family.ELEM_ABELIAN: p + 11,
        Family.HEISENBERG: 2 * p + 9,
        Family.GP: 3 * p,
    }[Family(family)]


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
