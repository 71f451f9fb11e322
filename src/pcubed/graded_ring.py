"""Graded-commutative rings over Z with per-generator additive torsion.

Elements are signed sums of sorted monomials in named generators; odd-degree
generators square to zero and anticommute, and the coefficient of a monomial
is reduced modulo the minimum additive order among its generators.  That is
exactly enough structure to re-derive, by machine, every pullback and
differential identity the classification rests on: Bockstein Leibniz
expansions, automorphism pullbacks on degree-4 classes, and the
transgression-style third differentials of the relevant central extensions.

Sign conventions, fixed project-wide: sorting two odd generators past each
other flips the sign, and derivations raise degree by one and satisfy
D(ab) = D(a) b + (-1)^|a| a D(b).  Ring maps and derivations are plain
functions on elements, built from their images of the generators.

A coefficient is an ``int`` or an int64 array over a batch of B parameter
tuples, one entry per tuple; a scalar is a batch of one, so one element, one
ring map, one derivation and one Bockstein carry a whole parameter sweep.  A
monomial is kept while any entry of its coefficient is nonzero, and ``==`` and
``is_zero`` hold only when they hold on every row.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product

import numpy as np

from .modular import units
from .report import CheckResult

MAX_TUPLES = 4000  # parametrized identities above this many tuples are stride-sampled


@dataclass(frozen=True)
class Generator:
    label: str
    degree: int
    order: int  # additive order, a prime power
    bockstein: str | None = None  # label of beta(gen), if declared


class RingPresentation:
    """Named graded generators with torsion and optional Bockstein targets."""

    def __init__(self, generators, p: int):
        self.p = p
        self.gens = tuple(generators)
        self.by_label = {g.label: g for g in self.gens}
        if len(self.by_label) != len(self.gens):
            raise ValueError("duplicate generator labels")
        self._sort_key = {g.label: (g.degree, g.label) for g in self.gens}
        self._orders: dict[tuple[str, ...], int] = {}
        # the Leibniz extension of the declared Bocksteins, built once per presentation
        self.bockstein = derivation(self, {g.label: self.gen(g.bockstein) for g in self.gens if g.bockstein})

    def degree(self, label: str) -> int:
        return self.by_label[label].degree

    def monomial_order(self, mon: tuple[str, ...]) -> int:
        """Least additive order among the labels; 0 (untwisted Z) for the empty monomial."""
        if mon not in self._orders:
            self._orders[mon] = min((self.by_label[l].order for l in mon), default=0)
        return self._orders[mon]

    def sort_with_sign(self, labels) -> tuple[tuple[str, ...], int] | None:
        """Sort by (degree, label) with Koszul signs; None if an odd label repeats."""
        arr = list(labels)
        sign = 1
        key = self._sort_key
        for i in range(1, len(arr)):
            j = i
            while j > 0 and key[arr[j - 1]] > key[arr[j]]:
                if self.degree(arr[j - 1]) % 2 and self.degree(arr[j]) % 2:
                    sign = -sign
                arr[j - 1], arr[j] = arr[j], arr[j - 1]
                j -= 1
        for a, b in zip(arr, arr[1:]):
            if a == b and self.degree(a) % 2:
                return None
        return tuple(arr), sign

    # -- element constructors ------------------------------------------------

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def element(self, terms: dict) -> "GradedElement":
        out: dict[tuple[str, ...], int] = {}
        for mon, coeff in terms.items():
            norm = self.sort_with_sign(tuple(mon))
            if norm is None:
                continue
            smon, sign = norm
            out[smon] = out.get(smon, 0) + sign * coeff
        return GradedElement(self, out)

    def gen(self, label: str, coeff: int = 1) -> "GradedElement":
        if label not in self.by_label:
            raise KeyError(label)
        return GradedElement(self, {(label,): coeff})


class GradedElement:
    """Signed sum of sorted monomials; no coefficient that is zero on every row
    is stored."""

    __slots__ = ("ring", "terms")
    __array_ufunc__ = None  # an array coefficient times an element is the element's __rmul__

    def __init__(self, ring: RingPresentation, terms: dict):
        self.ring = ring
        clean = {}
        for mon, coeff in terms.items():
            order = ring.monomial_order(mon)
            if order:
                coeff = coeff % order
            if np.count_nonzero(coeff):
                clean[mon] = coeff
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Common degree of all monomials, None for 0, error if inhomogeneous."""
        degs = {sum(self.ring.degree(l) for l in mon) for mon in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element of degrees {sorted(degs)}")
        return degs.pop()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if self.ring is not other.ring:
            raise ValueError("elements from different presentations")
        out = dict(self.terms)
        for mon, c in other.terms.items():
            out[mon] = out.get(mon, 0) + c
        return GradedElement(self.ring, out)

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __rmul__(self, scalar) -> "GradedElement":
        if not isinstance(scalar, (int, np.integer, np.ndarray)):
            return NotImplemented
        return GradedElement(self.ring, {m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            return other * self
        if self.ring is not other.ring:
            raise ValueError("elements from different presentations")
        out: dict[tuple[str, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                norm = self.ring.sort_with_sign(m1 + m2)
                if norm is None:
                    continue
                mon, sign = norm
                out[mon] = out.get(mon, 0) + sign * c1 * c2
        return GradedElement(self.ring, out)

    def __eq__(self, other):
        return (
            isinstance(other, GradedElement)
            and self.ring is other.ring
            and self.terms.keys() == other.terms.keys()
            and not any(np.count_nonzero(c != other.terms[mon]) for mon, c in self.terms.items())
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mon in sorted(self.terms):
            c = self.terms[mon]
            body = "*".join(mon) if mon else "1"
            parts.append(body if np.all(c == 1) else f"{c}*{body}")
        return " + ".join(parts)


GradedMap = Callable[[GradedElement], GradedElement]


def ring_map(ring: RingPresentation, images: dict[str, GradedElement]) -> GradedMap:
    """Degree- and torsion-preserving map of presentations, extended multiplicatively.

    Images with array coefficients make it a batch of maps, one per row,
    validated on every row at once."""
    for label, img in images.items():
        gen = ring.by_label[label]
        if not img.is_zero() and img.degree() != gen.degree:
            raise ValueError(f"image of {label} has wrong degree")
        if not (gen.order * img).is_zero():
            raise ValueError(f"image of {label} has additive order above {gen.order}")
    images = {g.label: images.get(g.label, ring.gen(g.label)) for g in ring.gens}

    def apply(el: GradedElement) -> GradedElement:
        out = ring.zero()
        for mon, coeff in el.terms.items():
            part = images[mon[0]] if mon else ring.element({(): 1})
            for label in mon[1:]:
                part = part * images[label]
            out = out + coeff * part
        return out

    return apply


def derivation(ring: RingPresentation, images: dict[str, GradedElement]) -> GradedMap:
    """Graded derivation raising degree by one, extended by Leibniz; unlisted generators map to 0."""
    for label, img in images.items():
        if not img.is_zero() and img.degree() != ring.degree(label) + 1:
            raise ValueError(f"derivation image of {label} has wrong degree")
    images = {label: img for label, img in images.items() if not img.is_zero()}

    def apply(el: GradedElement) -> GradedElement:
        out = ring.zero()
        for mon, coeff in el.terms.items():
            prefix_degree = 0
            for idx, label in enumerate(mon):
                if label in images:
                    sign = -1 if prefix_degree % 2 else 1
                    piece = ring.element({mon[:idx]: 1}) * images[label] * ring.element({mon[idx + 1:]: 1})
                    out = out + (sign * coeff) * piece
                prefix_degree += ring.degree(label)
        return out

    return apply


def bockstein(el: GradedElement) -> GradedElement:
    """Leibniz extension of the declared generator Bocksteins."""
    return el.ring.bockstein(el)


# ---------------------------------------------------------------------------
# standard presentations used across the classification


def exterior_bockstein_ring(n: int, p: int) -> RingPresentation:
    """x_1..x_n in degree 1 with beta(x_i) = y_i in degree 2, all of order p."""
    gens = []
    for i in range(1, n + 1):
        gens.append(Generator(f"x{i}", 1, p, bockstein=f"y{i}"))
        gens.append(Generator(f"y{i}", 2, p))
    return RingPresentation(gens, p)


@lru_cache(maxsize=None)
def rank2_extension_ring(p: int, odd: str, even: str, fiber: str) -> RingPresentation:
    """A central extension by Z/p of a rank-2 base, all classes of order p: the
    base's degree-1 classes odd1, odd2 with Bocksteins even1, even2, and the
    degree-2 fiber class.  Each caller names the classes, w/z/t for the
    Heisenberg group and x/y/y3 for the page checks; one presentation per names
    and p, so elements built by different callers multiply."""
    gens = [Generator(f"{odd}{i}", 1, p, bockstein=f"{even}{i}") for i in (1, 2)]
    gens += [Generator(f"{even}{i}", 2, p) for i in (1, 2)] + [Generator(fiber, 2, p)]
    return RingPresentation(gens, p)


def kunneth_uv_ring(p: int) -> RingPresentation:
    """u (order p) and v (order p^2), both in degree 2."""
    return RingPresentation([Generator("u", 2, p), Generator("v", 2, p * p)], p)


def cyclic_s_ring(p: int) -> RingPresentation:
    return RingPresentation([Generator("s", 2, p**3)], p)


def r_gamma_ring(p: int) -> RingPresentation:
    """r of order p^2 and gam of order p, both in degree 2."""
    return RingPresentation([Generator("r", 2, p * p), Generator("gam", 2, p)], p)


def k_invariants(x1, x2, y1, y2) -> dict[str, GradedElement]:
    """The k-invariants of the central extensions by Z/p, keyed by their label in
    ``lhs_morita.CASES``, written in the base's degree-1 classes x1, x2 and their
    Bocksteins y1, y2; "0" is the split extension."""
    return {"0": x1.ring.zero(), "y1": y1, "x1x2": x1 * x2, "y2+x1x2": y2 + x1 * x2}


# ---------------------------------------------------------------------------
# the identity suite


def _gl2(p: int):
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p:
            yield (a, b), (c, d)


def verify_identity_suite(p: int) -> list[CheckResult]:
    """Re-derive every printed pullback/differential identity symbolically.

    Each automorphism pullback is compared with its model matrix, column by
    column, by ``h4_models.pullbacks``, which ``cross_check_actions`` uses too;
    one call, and one batched ring map, covers a whole parameter sweep.
    Parametrized identities run over all parameter tuples when there are at
    most ``MAX_TUPLES`` of them, and over a deterministic stride sample
    otherwise.  Returns one check per identity.
    """
    from .groups import Family
    from .h4_models import h4_model, pullbacks

    checks: list[CheckResult] = []

    def add(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))

    def sample(items, length):
        """Every stride-th of the ``length`` items, all of them when there are
        at most MAX_TUPLES; the sweep is never held whole."""
        stride = 1 if length <= MAX_TUPLES else length // MAX_TUPLES + 1
        return list(islice(items, 0, None, stride))

    # -- product group Z/p^2 x Z/p: pullbacks on u^2, uv, v^2 ---------------
    # (i, j, k, l) with i a unit mod p^2, j, k mod p and l a unit mod p
    tuples = sample(product(units(p * p), range(p), range(p), units(p)), p * (p - 1) * p * p * (p - 1))
    basis = h4_model(Family.P2XP, p).basis
    agree = pullbacks(Family.P2XP, p, tuples).agree
    for col in reversed(range(len(basis))):
        bad = np.flatnonzero(~agree[:, col])
        detail = f"first failure at (i,j,k,l)={tuples[bad[0]]}" if bad.size else f"{len(tuples)} tuples"
        add(f"product_group.pullback.{basis[col]}", not bad.size, detail)

    # -- Heisenberg: GL(2,p) pullbacks on chi, z1^2, z2^2, z1z2 --------------
    H = rank2_extension_ring(p, "w", "z", "t")
    w1, w2, z1, z2, t = (H.gen(l) for l in ("w1", "w2", "z1", "z2", "t"))
    kappa = w1 * w2
    mats = sample(_gl2(p), (p * p - 1) * (p * p - p))
    pb = pullbacks(Family.HEISENBERG, p, mats)
    for label, ok in zip(h4_model(Family.HEISENBERG, p).basis, pb.agree.T):
        add(f"heisenberg.pullback.{label}", ok.all(), f"{len(mats)} matrices")
    ok_wlin = pb.map(bockstein(kappa)) == bockstein(pb.map(kappa))
    add("heisenberg.pullback.commutes_with_bockstein", ok_wlin, f"{len(mats)} matrices")

    # -- Heisenberg central extension: d3 generated by t -> beta(w1 w2) ------
    d3 = derivation(H, {"t": bockstein(kappa)})
    add("heisenberg.d3.t^2", d3(t * t) == 2 * (t * bockstein(kappa)), "Leibniz on t^2")
    add("heisenberg.d3.t*w1", bockstein(kappa * w1).is_zero(), "beta(w1*w2*w1) = 0")
    add("heisenberg.d3.t*w2", bockstein(kappa * w2).is_zero(), "beta(w1*w2*w2) = 0")
    add("heisenberg.d3.t*w1w2", bockstein(kappa * kappa).is_zero(), "beta((w1*w2)^2) = 0")
    tz1 = bockstein(kappa * z1)
    tz2 = bockstein(kappa * z2)
    add("heisenberg.d3.t*z1", (not tz1.is_zero()) and tz1 == bockstein(kappa) * z1, repr(tz1))
    add("heisenberg.d3.t*z2", (not tz2.is_zero()) and tz2 == bockstein(kappa) * z2, repr(tz2))

    # -- extraspecial group of exponent p^2: unit action and shear action ----
    Q = r_gamma_ring(p)
    r, gam = Q.gen("r"), Q.gen("gam")
    delta = p * (r * r)  # order-p class p*r^2
    ok_delta = pullbacks(Family.GP, p, units(p * p)).agree.all()
    add("order_p2_extension.pullback.unit_action", ok_delta, f"{len(units(p*p))} units")
    tau = ring_map(Q, {"gam": gam + p * r})
    add(
        "order_p2_extension.pullback.shear_on_gamma^2",
        tau(gam * gam) == gam * gam,
        "cross term 2p*r*gam and p^2*r^2 both die by torsion",
    )
    add("order_p2_extension.pullback.shear_on_delta", tau(delta) == delta)

    # -- elementary abelian: Bockstein expansions ----------------------------
    E = exterior_bockstein_ring(3, p)
    x1, x2, x3 = (E.gen(f"x{i}") for i in (1, 2, 3))
    y1, y2, y3 = (E.gen(f"y{i}") for i in (1, 2, 3))
    expected = y1 * x2 * x3 - x1 * (y2 * x3) + x1 * x2 * y3
    add("elem_abelian.bockstein.x1x2x3", bockstein(x1 * x2 * x3) == expected, repr(expected))
    add("elem_abelian.bockstein.x2x3", bockstein(x2 * x3) == y2 * x3 - x2 * y3)
    add("elem_abelian.bockstein.squares_to_zero", bockstein(bockstein(x1 * x2 * x3)).is_zero())
    add("elem_abelian.bockstein.on_y1^2", bockstein(y1 * y1).is_zero())

    # determinant twist on the triple product b(x1x2x3), the last basis column,
    # for a transvection, a 3-cycle and a transposition of x1, x2
    twists = (
        ("shear", ((1, 1, 0), (0, 1, 0), (0, 0, 1)), "det = 1"),
        ("cycle", ((0, 1, 0), (0, 0, 1), (1, 0, 0)), "det = 1"),
        ("swap", ((0, 1, 0), (1, 0, 0), (0, 0, 1)), "det = -1"),
    )
    agree = pullbacks(Family.ELEM_ABELIAN, p, [A for _, A, _ in twists]).agree
    for (name, _, detail), ok in zip(twists, agree[:, -1]):
        add(f"elem_abelian.pullback.det_twist.{name}", ok, detail)

    # -- second differential of the split-off p^2 factor ----------------------
    d2 = derivation(E, {"x2": y1})
    add("product_group_fiber.d2.beta_x2x3", d2(bockstein(x2 * x3)) == -1 * (y1 * y3))
    add("product_group_fiber.d2.x1_beta_x2x3", d2(x1 * bockstein(x2 * x3)) == x1 * y1 * y3)

    # -- rank-2 base with order-p fiber: d3(y3 * P) = beta(kappa * P) --------
    F = rank2_extension_ring(p, "x", "y", "y3")
    fx1, fx2, fy1, fy2, fy3 = (F.gen(l) for l in ("x1", "x2", "y1", "y2", "y3"))
    kappas = k_invariants(fx1, fx2, fy1, fy2)
    # kappa = x1x2 spares exactly 1, x1, x2 and x1x2 in the checked spans
    kap = kappas["x1x2"]
    add("rank2_base.d3.x1x2.kills_y3", not bockstein(kap).is_zero())
    add("rank2_base.d3.x1x2.spares_y3x1", bockstein(kap * fx1).is_zero())
    add("rank2_base.d3.x1x2.spares_y3x1x2", bockstein(kap * (fx1 * fx2)).is_zero())
    add("rank2_base.d3.x1x2.kills_y3y1", not bockstein(kap * fy1).is_zero())
    # kappa = y1 spares y3 and the y-multiples, kills the x-multiples
    kap = kappas["y1"]
    add("rank2_base.d3.y1.spares_y3", bockstein(kap).is_zero())
    add("rank2_base.d3.y1.y3x1_to_y1^2", bockstein(kap * fx1) == fy1 * fy1)
    add("rank2_base.d3.y1.y3x2_to_y1y2", bockstein(kap * fx2) == fy1 * fy2)
    add("rank2_base.d3.y1.spares_y3y2", bockstein(kap * fy2).is_zero())
    # kappa = y2 + x1x2: kernel on the (2,2) cell is spanned by y2 - x1x2
    kap = kappas["y2+x1x2"]
    add("rank2_base.d3.y2+x1x2.kills_y3", not bockstein(kap).is_zero())
    add(
        "rank2_base.d3.y2+x1x2.spares_y3(y2-x1x2)",
        bockstein(kap * (fy2 - fx1 * fx2)).is_zero(),
    )
    add("rank2_base.d3.y2+x1x2.kills_y3y1", not bockstein(kap * fy1).is_zero())
    # d3 on the fiber square: Leibniz with d3(y3) = beta(kappa); the split extension has no d3
    for name, kap in kappas.items():
        if kap.is_zero():
            continue
        dd = derivation(F, {"y3": bockstein(kap)})
        add(
            f"rank2_base.d3.y3^2.{name}",
            dd(fy3 * fy3) == 2 * (fy3 * bockstein(kap)),
            "Leibniz on the fiber square",
        )

    return checks
