"""Orbit enumeration of matrix-generated actions on finite abelian groups.

States are mixed-radix encodings of model coefficient vectors (big-endian in
the fixed basis order, so numeric order on states is lexicographic order on
coefficient vectors).  Orbits come from a breadth-first closure under the
generator matrices, vectorized over chunks of ``_CHUNK`` states;
scanning seeds in increasing state order makes every seed the
lexicographically minimal member of its orbit, which is the canonical
representative contract the Morita graph relies on.

- Seed scan: the next seed is the first unvisited entry of ``orbit_id``
  (the table dtype's maximum) found block by block with ``argmax`` of the
  block's compare, so the scan costs one vector compare per block, not one
  Python step per state.
- Dedupe by sort: each chunk's unvisited images are sorted in place and
  kept where they differ from their left neighbour, so exactly one copy of
  every new state survives (a chunk with at most one skips the sort); the
  survivors are then set to the orbit id, so a later chunk reads them as
  visited.
- A worklist, not levels: an orbit's visited states that are not yet
  expanded wait in a first-in first-out queue of int32 arrays; each image
  call takes the first ``_CHUNK`` states off its front, joining small
  entries and splitting a larger one, whose rest stays at the front, and
  each chunk's new states join the queue as one array, so a call falls
  short only when the queue holds fewer states, and no level is ever
  gathered into one frontier.
- A uint8 table: ``orbit_id`` costs one byte per state while the ids fit
  below the unvisited mark 255; the 256th orbit widens it to int32 once.
  It covers only the states below the end of the last canonical range (all
  of them without a scalar quotient, below), since the BFS and ``ids`` look
  up canonical states alone: (c + 1) p^(n - 1) of the p^n, c the largest
  least member of a coset c S, 3 * 13^5 of 13^6 for the n = 3 congruence
  closure at p = 13.  A split action's labels have the same length.
- Images by table: with two coordinates or more, a state s splits as
  a * P + b at the fold cut, the digit boundary P that halves the packed
  digits below most evenly, so its coefficient vector is the digitwise sum
  of those of a * P and b, and each generator's image is the sum of two
  table entries.  The entries pack the image digits at radix 2 m_i - 1, so
  the sum has no carry between digits, and two small fold tables map its two
  halves, split at the same cut, back to the encoded image; a chunk costs
  one ``divmod``, four ``take`` calls and two adds, with no floating point
  and no BLAS, and its low half is masked in the packed array itself.  The
  engine calls the ``take`` and ``compress`` methods of its arrays, not the
  ``np.take`` and ``np.compress`` wrappers, which add a Python call each.
- Exactness: ``require_state_space`` refuses 2^31 states or more before any
  work, for the int32 worklist, and that bound keeps every packed sum in
  int64.
  The image tables are int32 when 2 prod(2 m_i - 1), a bound on every packed
  sum, is below 2^31 (the (Z/13)^6 block and the n = 3 congruence forms at
  p = 13, not the (Z/17)^6 block), and int64 otherwise.  Steps j of the
  scalar quotient are read from int8 (int16 past 128 scalars) tables and
  widened to int32 once, so each product, by the labels' order or by
  log chi_s, is below (p - 1) (q - 1) < 2^31; a step is added to an int32
  fold code, into a scale table's index, below the table's size.
  The fold and scale tables are int32: each entry is a mixed-radix code of
  digits mod m_i, and the two halves' entries add up to the encoded image,
  so every entry and sum is below the state count and exact in int32.
  One coordinate: u s < m^2 < 2^62 for a multiplier u and a state s below m.
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
  |S| x q - 1) shift table, (L + log chi(s) + j log chi_s) mod (q - 1) for
  the scalar quotient's step j (below; 0 without one), in the labels' dtype,
  and each defect, shifted by q - 1 into 1..2 (q - 1) - 1 (so the labels'
  dtype holds it), is tested against the current gcd d in a "multiple of d"
  table; ``np.gcd.reduce`` runs only on a chunk with a defect that is not.
- Scalar quotient: when the BFS runs on two coordinates or more, all mod one
  odd prime p, and a generator acts on them as f I, f not 0 or 1, that
  generator is no edge.  S = <f> commutes with every generator, so orbits
  are unions of S-classes, and each image y is replaced by canon(y) = f^j y,
  the j making y's leading nonzero digit c the least of its coset c S;
  canon(y) is the least state of S y, as every s y has its leading digit in
  the same place.  Two lead tables, one per packed fold half, give j, the
  low half's read only where the high half is 0 mod p; each
  fold table maps its half to the code of its h digits within the half
  times |S|, and a scale table of p^h |S| entries holds at that code plus j
  the half's encoded digits times f^j, so no table grows with
  |S| (2p - 1)^h.  Each orbit's least state is
  canonical, so the seed scan reads only the canonical ranges 0 and
  [c p^e, (c + 1) p^e), c the least of its coset, and finds the same seeds
  in the same order; an orbit's size is |S| times its canonical states (1
  for the zero orbit, which every scalar fixes), and ``ids`` canonicalises
  a state before its lookup.  On a character split the scalar also acts on
  b by chi_s, and Schreier's lemma runs on the quotient graph: canonicalising
  by f^j adds j log chi_s to a label, so the edge defects come out as
  before, and the loop f^|S|, which fixes every block state, adds |S| log
  chi_s to each stabiliser's image (log chi_s for the zero block state,
  which f itself fixes).  Each orbit's gcd therefore starts at
  gcd(q - 1, |S| log chi_s), or gcd(q - 1, log chi_s), and ``ids`` reads
  (x, b) as (f^j x, chi_s^j b).  Without such a generator S = {1}, and
  everything above is the plain BFS.
- One coordinate: a BFS on one coordinate mod m (the cyclic model, the
  n = 1 congruence action, the G_p block once gamma^2 splits off) builds no
  tables: each image is u s mod m.  On a one-coordinate model each 1x1
  multiplier u is replaced by its distinct repeated squares u, u^2, u^4, ...,
  ``m.bit_length()`` of them.  They are words in u, so orbits, seeds and
  sizes do not change, and u^e s is popcount(e) levels from s, not e: the
  cyclic model at p = 11 takes 27 levels in all, not 1331.
"""

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .groups import Family
from .h4_models import CohClass, H4Model, action_generators, scalar_action
from .modular import is_automorphism, is_prime, primitive_root, radix_digits, radix_weights

DEFAULT_MAX_STATES = 10**8
_CHUNK = 1 << 12  # states per image call, filled from the worklist; its temporaries stay within L2


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
    """``log[b]`` to the base ``primitive_root(q)`` for b in 1..q-1; ``log[0]`` is 0.

    The powers g^0 .. g^(q-2) fill in by doubling, powers[n:2n] = powers[:n] * g^n,
    in log2(q) array steps; the products stay exact in int64 as q < 2^31."""
    g = primitive_root(q)
    powers = np.ones(q - 1, dtype=np.int64)
    n = 1
    while n < q - 1:
        m = min(n, q - 1 - n)
        powers[n:n + m] = powers[:m] * pow(g, n, q) % q
        n += m
    log = np.zeros(q, dtype=np.int32)
    log[powers] = np.arange(q - 1, dtype=np.int32)
    return log


class _Images(NamedTuple):
    """Image tables of generator matrices acting mod ``moduli`` on encoded states.

    A state s = a * place + b has image ``hi[g, a] + lo[g, b]`` under
    generator g, packed: each entry holds the reduced image digits of a *
    place or of b at radix 2 m_i - 1, so the sum has every digit at most
    2 m_i - 2 and no carry between digits.  The digits before the fold split
    sit above bit ``shift``, the rest below it, and ``fold_hi`` and
    ``fold_lo`` map each group back to the mixed-radix code of its digits mod
    m_i.  With a scalar quotient by S = <f>, ``lead_hi`` and ``lead_lo`` give
    each group the step j that makes its leading nonzero digit the least of
    its S-coset (-1 and 0 where every digit is 0 mod p), the fold tables give
    the code of its h digits within its half times |S|, and ``scale_hi`` and
    ``scale_lo`` at that code plus j the encoded digits times f^j, so each
    image comes out canonical.
    """

    place: int
    hi: np.ndarray  # (generators, ceil(total / place)) int32, int64 when packed sums reach 2^31
    lo: np.ndarray  # (generators, place), the same dtype
    shift: int
    fold_hi: np.ndarray  # int32, one entry per packed high half
    fold_lo: np.ndarray  # int32, one entry per packed low half
    lead_hi: np.ndarray | None  # int8 (int16 past 128 scalars), as fold_hi; None without a scalar quotient
    lead_lo: np.ndarray | None
    scale_hi: np.ndarray | None  # flat (p^h, |S|) int32; None without a scalar quotient
    scale_lo: np.ndarray | None

    def __call__(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Encoded int32 images, one row per generator, of the integer
        ``states``, and the int32 steps j that canonicalised them (None
        without a scalar quotient)."""
        a, b = np.divmod(states, self.place)
        packed = self.hi.take(a, axis=1)
        packed += self.lo.take(b, axis=1)
        high = packed >> self.shift
        low = np.bitwise_and(packed, (1 << self.shift) - 1, out=packed)
        if self.lead_hi is None:
            images = self.fold_hi.take(high)
            images += self.fold_lo.take(low)
            return images, None
        steps = self.lead_hi.take(high).astype(np.int32)
        zero = steps < 0  # the high half is 0 mod p: the low half leads
        steps[zero] = self.lead_lo.take(low[zero])
        high = self.fold_hi.take(high)
        high += steps
        low = self.fold_lo.take(low)
        low += steps
        images = self.scale_hi.take(high)
        images += self.scale_lo.take(low)
        return images, steps


def _digit_columns(radix):
    """The big-endian digits at ``radix`` of every number below its
    product, one int32 column per place."""
    codes = np.arange(math.prod(radix), dtype=np.int32)
    for r, place in zip(radix, radix_weights(radix)):
        yield codes // place % r


def _fold_table(radix, moduli, weights, powers) -> np.ndarray:
    """Mixed-radix code of the digits mod ``moduli`` of every number at
    ``radix``, times each of ``powers``: one column per power, flattened, so
    number c times the j-th power is at c len(powers) + j."""
    codes = np.zeros((1, len(powers)), dtype=np.int32)  # below total < 2^31
    for r, m, w in zip(radix, moduli.tolist(), weights.tolist()):
        # (f^j d mod m) w for every digit d < r and power f^j, added to every
        # code of the digits before it, so only the last step is full size
        digit = (np.outer(np.arange(r), powers) % m * w).astype(np.int32)
        codes = (codes[:, None, :] + digit[None, :, :]).reshape(-1, len(powers))
    return codes.ravel()


def _lead_table(radix, p: int, powers, zero: int) -> np.ndarray:
    """The index j of the power f^j that makes the leading nonzero digit mod
    ``p`` of every number at ``radix`` the least of its coset, ``zero`` where
    there is none, in the least signed dtype that holds -|S|."""
    lead = np.zeros(math.prod(radix), dtype=np.int32)
    for column in _digit_columns(radix):
        np.copyto(lead, column % p, where=lead == 0)  # kept once a digit is nonzero
    step = (np.arange(p)[:, None] * np.asarray(powers) % p).argmin(axis=1)
    step[0] = zero
    return step.astype(np.min_scalar_type(-len(powers)))[lead]


def _image_tables(moduli: np.ndarray, mats: np.ndarray, powers=(1,)) -> _Images:
    """The ``_Images`` of row-reduced ``mats`` on two coordinates or more,
    built with exact int64 products, canonical under the scalars ``powers``
    (the powers f^j of f, all moduli the prime p) when there is more than one.
    The image tables are int32 when every packed sum, below 2 prod(2 m_i - 1),
    fits, and int64 otherwise.

    The image tables hold about sqrt(total) entries per generator, and the
    fold tables, one per half of a balanced cut of the digits, about
    sqrt(2**s * total), s the number of moduli of 2 or more.  Under a scalar
    quotient, with k coordinates mod p, each half of h digits adds
    (2p - 1)^h lead and p^h |S| scale entries, and the fold, lead and scale
    tables together hold at most max(3 p^k, ``_CHUNK``) entries, whatever
    |S| is.
    """
    weights = np.array(radix_weights(moduli), dtype=np.int64)
    total = int(weights[0] * moduli[0])
    radix = [2 * int(m) - 1 for m in moduli]
    cut = min(range(1, len(moduli)), key=lambda j: max(math.prod(radix[:j]), math.prod(radix[j:])))
    place = math.prod(int(m) for m in moduli[cut:])
    shift = (math.prod(radix[cut:]) - 1).bit_length()
    pack = np.array([w << shift for w in radix_weights(radix[:cut])] + list(radix_weights(radix[cut:])))
    dtype = np.int32 if 2 * math.prod(radix) < 2**31 else np.int64
    high_weights, low_weights = weights[:cut], weights[cut:]
    lead_hi = lead_lo = scale_hi = scale_lo = None
    if len(powers) > 1:
        p = int(moduli[0])
        # each fold table gives its half's own code times |S|, where its scale row starts
        high_weights, low_weights = high_weights // place * len(powers), low_weights * len(powers)
        lead_hi = _lead_table(radix[:cut], p, powers, -1)
        lead_lo = _lead_table(radix[cut:], p, powers, 0)
        scale_hi = _fold_table(moduli[:cut], moduli[:cut], weights[:cut], powers)
        scale_lo = _fold_table(moduli[cut:], moduli[cut:], weights[cut:], powers)

    def packed_images(codes):
        return (pack @ (mats @ radix_digits(codes, moduli).T % moduli[:, None])).astype(dtype)

    return _Images(
        place=place,
        hi=packed_images(np.arange(-(-total // place)) * place),
        lo=packed_images(np.arange(place)),
        shift=shift,
        fold_hi=_fold_table(radix[:cut], moduli[:cut], high_weights, (1,)),
        fold_lo=_fold_table(radix[cut:], moduli[cut:], low_weights, (1,)),
        lead_hi=lead_hi,
        lead_lo=lead_lo,
        scale_hi=scale_hi,
        scale_lo=scale_lo,
    )


def _pop_chunk(pending: deque, count: int) -> np.ndarray:
    """The first ``count`` states of the worklist ``pending``, all of them
    when it holds fewer, taken off its front: small entries are joined, and
    a larger one is split, its rest left at the front."""
    parts = []
    while pending and count:
        head = pending.popleft()
        if head.size > count:
            pending.appendleft(head[count:])
            head = head[:count]
        parts.append(head)
        count -= head.size
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _bfs(images_of: Callable, orbit_id: np.ndarray, ranges, scalars: int, character=None):
    """Seed scan over ``ranges`` and chunked BFS over the uint8 ``orbit_id``.

    Each orbit's visited states wait in a first-in first-out worklist of int32
    arrays; each image call takes the first ``_CHUNK`` of them, across as
    many entries as that needs, and each chunk's new states join it as one
    array: the states held are those not yet expanded.

    The scan reads only the [start, stop) ``ranges`` of states, where the
    canonical states lie; ``images_of`` returns canonical images, and an
    orbit's size is ``scalars`` per state reached, except the zero orbit's.
    Returns the seeds, sizes and gcds of the orbits and the table it ends
    with: ``orbit_id`` itself, or its int32 widening once a 256th orbit
    needs an id.  With ``character = (labels, log_chi, order, log_scalar)``
    it also labels each state of an orbit with ``log chi`` of a path from
    the seed, mod ``order``, canonicalising by f^j adding j ``log_scalar``,
    and the gcds are, per orbit, those of ``order``, the scalar's loop
    defect and every edge's label defect.
    """
    unvisited = np.iinfo(orbit_id.dtype).max
    if character is not None:
        labels, log_chi, order, log_scalar = character
        # shift[g, j, l] = (l + log chi(g) + j log_scalar) mod order, flat, and
        # divisible[order + t] whether t is 0 mod d: defects are looked up, not reduced
        steps = np.arange(scalars) * log_scalar
        shift = ((np.arange(order) + (log_chi[:, None] + steps)[..., None]) % order).astype(labels.dtype).ravel()
        firsts = np.arange(len(log_chi), dtype=np.int32)[:, None] * (scalars * order)  # each generator's first shift entry
        multiples = np.arange(2 * order)

    seeds: list[int] = []
    sizes: list[int] = []
    gcds: list[int] = []
    for start, stop in ranges:
        ptr = start
        while ptr < stop:
            free = orbit_id[ptr : min(ptr + _CHUNK, stop)] == unvisited
            offset = int(free.argmax())  # the first True, or 0 when there is none
            if not free[offset]:
                ptr += _CHUNK
                continue
            ptr += offset
            oid = len(seeds)
            if oid == unvisited:  # the 256th orbit: widen the table to int32, once
                wide = np.iinfo(np.int32).max
                orbit_id = np.where(orbit_id == unvisited, np.int32(wide), orbit_id)
                unvisited = wide
            orbit_id[ptr] = oid
            pending = deque([np.array([ptr], dtype=np.int32)])  # visited, not yet expanded
            size = 1
            d = 1
            if character is not None:
                # every scalar power fixes the zero state; any other comes back after |S| of them
                d = math.gcd(order, log_scalar if ptr == 0 else scalars * log_scalar)
                divisible = multiples % d == 0
            while pending:
                states = _pop_chunk(pending, _CHUNK)
                images, steps = images_of(states)
                images = images.ravel()
                fresh = orbit_id.take(images) == unvisited
                new = images.compress(fresh).astype(np.int32, copy=False)
                if d > 1:
                    # any edge into a new state gives it a valid label; once
                    # the gcd is 1 the labels are no longer needed
                    at = labels.take(states) + firsts
                    if steps is not None:
                        at += steps * order
                    proposed = shift.take(at).ravel()
                    labels[new] = proposed.compress(fresh)
                    # each defect, shifted by order, is in 1..2 order - 1
                    defects = proposed + order
                    defects -= labels.take(images)
                    if not divisible.take(defects).all():
                        d = math.gcd(d, int(np.gcd.reduce(defects)))
                        divisible = multiples % d == 0
                if new.size > 1:
                    new.sort()  # in place, once the labels have read it in image order
                    first = np.empty(new.size, dtype=bool)  # the first of each run of equal states
                    first[0] = True
                    np.not_equal(new[1:], new[:-1], out=first[1:])
                    new = new[first]
                if new.size:
                    orbit_id[new] = oid
                    size += new.size
                    pending.append(new)
            seeds.append(ptr)
            sizes.append(size * scalars if ptr else size)
            gcds.append(d)
            ptr += 1
    return seeds, sizes, gcds, orbit_id


def _split_character(block, labels, block_seeds, block_sizes, gcds, log, canonical, log_scalar):
    """Orbit ids, seeds and sizes of the whole space from its block orbits.

    ``block`` and ``labels`` hold each canonical block state x's orbit id and
    L(x); the state (x, b) is ``x * q + b``.  Block orbit O with seed x0 and
    gcd d becomes the orbit of (x0, 0), then one orbit per coset of the
    index-d subgroup of F_q^*, numbered by the coset's least member.  ``ids``
    moves (x, b) to (f^j x, chi_s^j b) in the same orbit, f^j x canonical,
    through ``canonical`` (x and j = 0 without a scalar quotient), then reads
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
        x, steps = canonical(x)
        orbit = block[x]
        offset = offsets[rows[orbit], (log[b] + steps * log_scalar - labels[x]) % order]
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


def _scalar_quotient(moduli, block):
    """The index of the first generator whose ``block`` is f I, f not 0 or 1,
    and the powers f^0, f^1, ... of S = <f>, when the block has two
    coordinates or more, all mod one odd prime p; None otherwise."""
    p, n = int(moduli[0]), len(moduli)
    if n < 2 or (moduli != p).any() or p == 2 or not is_prime(p):
        return None
    eye = np.eye(n, dtype=np.int64)
    for index, mat in enumerate(block):
        f = int(mat[0, 0])
        if f > 1 and np.array_equal(mat, f * eye):
            powers = [1]
            while powers[-1] * f % p != 1:
                powers.append(powers[-1] * f % p)
            return index, powers
    return None


def _canonical_ranges(p: int, n: int, powers) -> list[tuple[int, int]]:
    """The [start, stop) ranges, in increasing order, of the canonical states
    of n coordinates mod p: 0, and those whose leading nonzero digit c is the
    least of its coset c S, that is [c p^e, (c + 1) p^e)."""
    least = [c for c in range(1, p) if min(c * s % p for s in powers) == c]
    return [(0, 1)] + [(c * p**e, (c + 1) * p**e) for e in range(n) for c in least]


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
    q = int(moduli[-1]) if split else 1
    quotient = _scalar_quotient(moduli[:n], mats[:, :n, :n])
    powers, ranges, chi_scalar, block = [1], [(0, total // q)], 1, mats[:, :n, :n]
    if quotient is not None:
        index, powers = quotient
        # the scalar leaves the edges (its last entry is chi_s on a split); the
        # identity's row of the tables, last, canonicalises the states of ``ids``
        chi_scalar, mats = mats[index, -1, -1], np.delete(mats, index, axis=0)
        ranges = _canonical_ranges(int(moduli[0]), n, powers)
        block = np.concatenate([mats[:, :n, :n], np.eye(n, dtype=np.int64)[None]])
    # the BFS and ``ids`` look up canonical states only, all below the last range's stop
    table = np.full(ranges[-1][1], np.iinfo(np.uint8).max, dtype=np.uint8)
    if n == 1:  # u s mod m for each multiplier u, with no tables
        units, m = mats[:, 0, :1], int(moduli[0])
        images = lambda states: (units * states % m, None)
    else:
        tables = _image_tables(moduli[:n], block, powers)
        edges = len(mats)
        images = tables._replace(hi=tables.hi[:edges], lo=tables.lo[:edges])
        identity = tables._replace(hi=tables.hi[edges:], lo=tables.lo[edges:])

    def canonical(states):
        if quotient is None:
            return states, 0
        codes, steps = identity(states)
        return codes[0], steps[0]

    if not split:
        seeds, sizes, _, table = _bfs(images, table, ranges, len(powers))
        return lambda states: table[canonical(states)[0]].astype(np.int32), seeds, sizes
    log = _discrete_logs(q)
    log_scalar = int(log[chi_scalar])
    # the labels' dtype also holds the shifted defects, up to 2 (q - 1) - 1
    labels = np.zeros(table.size, dtype=np.min_scalar_type(2 * (q - 1) - 1))
    seeds, sizes, gcds, table = _bfs(images, table, ranges, len(powers),
                                     (labels, log[mats[:, -1, -1]], q - 1, log_scalar))
    return _split_character(table, labels, seeds, sizes, gcds, log, canonical, log_scalar)


def enumerate_orbits(
    model: H4Model,
    generators=None,
    max_states: int = DEFAULT_MAX_STATES,
) -> OrbitIndex:
    """BFS closure from each unvisited state, deterministic orbit numbering;
    ``generators`` are model matrices, the family's ``action_generators`` by
    default, with the scalar g I_3 appended for (Z/p)^3 so the BFS quotients by it."""
    require_state_space(model.moduli, max_states)
    if generators is None:
        generators = action_generators(model.family, model.p)
        if model.family is Family.ELEM_ABELIAN:
            generators += (scalar_action(model.p),)
    ids, seeds, sizes = enumerate_orbit_ids(model.moduli, generators, max_states)
    orbits = [
        Orbit(rep=model.cls(model.decode(seed)), size=size)
        for seed, size in zip(seeds, sizes)
    ]
    return OrbitIndex(model, ids, orbits)


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
