"""Derived weak-Morita equivalences between the five families at dimension p^3.

Six extension shapes (an abelian normal subgroup A with quotient K, possibly
with a nontrivial action) each realize some of the five groups.  One table,
CASES, holds every shape once: per realized group its k-invariant, the
subgroup Omega(G; A) of degree-4 classes carrying module-category data, and
for the mixed-torsion shapes the first and last displayed spectral-sequence
pages, all with orders written as p-exponents so the table is
prime-independent.  The page data is re-verified mechanically (symbolically
where the cells are p-torsion spans, by order bookkeeping where the torsion
is mixed).  Each case also holds the class-level equivalences derived from
it, as edge records instantiated over their parameter ranges, whose endpoints,
canonicalized through the five families' orbit indices, join into the Morita
classes; ``morita_components`` takes only those indices and reads p off them.
"""

import csv
import io
import json
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import graded_ring as gr
from . import published
from .groups import FAMILIES, Family
from .h4_models import CohClass, H4Model, h4_model
from .modular import least_nonsquare, radix_digits, rank_and_det_mod, units
from .orbits import OrbitIndex
from .quadforms import select_h
from .report import CheckResult


@dataclass(frozen=True)
class RealizedExtension:
    family: Family
    # class label in H^2(K, A), "0" for the split extension; over the rank-1 and rank-2
    # bases graded_ring.k_invariants turns it into the class the page checks use, while
    # the mixed-torsion labels ("uv", "nonzero") only tell a nonsplit member from the split one
    k_invariant: str
    # Omega(G; A) as (sub, quot) spans: ((model basis label, p-exponent of its scale), ...)
    omega: tuple
    # mixed-torsion cases only: first and last displayed page,
    # (a, b) -> ((generator, p-exponent of its order), ...)
    pages: tuple = field(default=(), hash=False)


@dataclass(frozen=True)
class MoritaEdge:
    """One parametrized family of derived equivalences: ``coeffs(p, *params)``
    gives the left and the right class's coefficients, each entry an int or an
    array over the parameters, every parameter running through 0..p-1."""

    left: Family
    right: Family
    params: tuple[str, ...]
    coeffs: Callable

    def rows(self, p: int) -> np.ndarray:
        """One int64 row (left family, left code, right family, right code) per parameter
        value, in lexicographic order; families index ``FAMILIES``, codes are ``H4Model.encode``."""
        grid = np.meshgrid(*(np.arange(p),) * len(self.params), indexing="ij")
        left, right = self.coeffs(p, *(axis.ravel() for axis in grid))
        columns = np.broadcast_arrays(
            FAMILIES.index(self.left), h4_model(self.left, p).encode(left),
            FAMILIES.index(self.right), h4_model(self.right, p).encode(right),
        )
        return np.stack(columns, axis=-1).reshape(-1, 4)


@dataclass(frozen=True)
class ExtensionCase:
    case_id: str
    realized: tuple[RealizedExtension, ...]
    edges: tuple[MoritaEdge, ...] = ()


# E_2 pages shared by the split and the nonsplit member of one case
_E2_ZP2_BY_ZP = {
    (0, 4): (("v^2", 2),),
    (0, 2): (("v", 2),),
    (1, 2): (("x*v", 1),),
    (2, 2): (("uv", 1),),
    (2, 0): (("u", 1),),
    (4, 0): (("u^2", 1),),
}
_E2_ZP_BY_ZP2 = {
    (0, 4): (("u^2", 1),),
    (0, 2): (("u", 1),),
    (1, 2): (("x*u", 1),),
    (2, 2): (("uv", 1),),
    (2, 0): (("v", 2),),
    (4, 0): (("v^2", 2),),
}
# the pages of split members without a partner, where E_2 = E_inf
_E2_GP_TWISTED = {
    (0, 4): (("p*r^2", 1),),
    (0, 2): (("p*r", 1),),
    (1, 2): (),
    (2, 2): (),
    (3, 1): (),
    (2, 0): (("gamma", 1),),
    (4, 0): (("gamma^2", 1),),
}
_E2_H_TWISTED = {
    (0, 4): (("t2", 1),),
    (1, 3): (("u13", 1),),
    (2, 2): (("z1z2", 1),),
    (3, 1): (),
    (0, 2): (("u02", 1),),
    (1, 2): (("u12", 1),),
    (0, 3): (("u03", 1),),
    (2, 0): (("z1", 1),),
    (4, 0): (("z1^2", 1),),
}

# the two edges of CASES that the consistency checks read again
# k p² s² <-> uv + k v², from k = 0
_SCALED_SQUARE_EDGE = MoritaEdge(Family.CYCLIC, Family.P2XP, ("k",), lambda p, k: ((k * p * p,), (k, 1, 0)))
# k gamma² <-> y2y3 - b(x1x2x3) + k y1², from k = 0
_TRIPLE_EDGE = MoritaEdge(Family.GP, Family.ELEM_ABELIAN, ("k",), lambda p, k: ((0, k), (k, 0, 0, 0, 0, 1, p - 1)))

CASES = (
    # A = Z/p^2, K = Z/p, trivial action; A = <x> in the product, <x^p> in the cyclic group
    ExtensionCase("A=Zp2.K=Zp.trivial", (
        RealizedExtension(Family.P2XP, "0", ((("u^2", 0),), (("uv", 0),)), (_E2_ZP2_BY_ZP, _E2_ZP2_BY_ZP)),
        RealizedExtension(Family.CYCLIC, "uv", ((), (("s^2", 2),)), (_E2_ZP2_BY_ZP, {
            (0, 4): (("s^2", 2),),
            (0, 2): (("s", 2),),
            (1, 2): (),
            (2, 2): (("p^2*s^2", 1),),
            (2, 0): (("p*s", 1),),
            (4, 0): (),
        })),
    ), (
        # 0 <-> uv
        MoritaEdge(Family.CYCLIC, Family.P2XP, (), lambda p: ((0,), (0, 1, 0))),
    )),
    # A = Z/p^2, K = Z/p acting by b -> b^(p+1); A = <b>
    ExtensionCase("A=Zp2.K=Zp.twisted", (
        RealizedExtension(Family.GP, "0", ((("gamma^2", 0),), ()), (_E2_GP_TWISTED, _E2_GP_TWISTED)),
    )),
    # A = Z/p, K = Z/p^2, trivial action; A = <y> in the product, <x^(p^2)> in the cyclic group
    ExtensionCase("A=Zp.K=Zp2.trivial", (
        RealizedExtension(Family.P2XP, "0", ((("v^2", 0),), (("uv", 0),)), (_E2_ZP_BY_ZP2, _E2_ZP_BY_ZP2)),
        RealizedExtension(Family.CYCLIC, "uv", ((("s^2", 2),), (("s^2", 1),)), (_E2_ZP_BY_ZP2, {
            (0, 4): (("s^2", 1),),
            (0, 2): (("s", 1),),
            (1, 2): (),
            (2, 2): (("p*s^2", 1),),
            (2, 0): (("v", 2),),
            (4, 0): (("p^2*s^2", 1),),
        })),
    ), (_SCALED_SQUARE_EDGE,)),
    # A = Z/p x Z/p, K = Z/p, trivial action; A = <x2, x3> in (Z/p)^3, <x^p, y> in the product
    ExtensionCase("A=ZpZp.K=Zp.trivial", (
        RealizedExtension(Family.ELEM_ABELIAN, "0", ((("y1^2", 0),), (("y1y2", 0), ("y1y3", 0)))),
        RealizedExtension(Family.P2XP, "y1", ((), (("v^2", 1),))),
    ), (
        # 0 <-> y1y2
        MoritaEdge(Family.P2XP, Family.ELEM_ABELIAN, (), lambda p: ((0, 0, 0), (0, 0, 0, 1, 0, 0, 0))),
    )),
    # A = Z/p, K = Z/p x Z/p, trivial action; A = <x3>, <x^p>, <C> and <b^p> in the four groups
    ExtensionCase("A=Zp.K=ZpZp.trivial", (
        RealizedExtension(
            Family.ELEM_ABELIAN, "0",
            ((("y1^2", 0), ("y2^2", 0), ("y1y2", 0)), (("y1y3", 0), ("y2y3", 0), ("b(x1x2x3)", 0))),
        ),
        RealizedExtension(Family.P2XP, "y1", ((("u^2", 0),), (("uv", 0), ("v^2", 1)))),
        RealizedExtension(Family.HEISENBERG, "x1x2", ((("z1^2", 0), ("z2^2", 0), ("z1z2", 0)), (("chi", 0),))),
        RealizedExtension(Family.GP, "y2+x1x2", ((("gamma^2", 0),), (("delta", 0),))),
    ), (
        # k u² <-> y1y3 + k y2², from k = 0
        MoritaEdge(Family.P2XP, Family.ELEM_ABELIAN, ("k",), lambda p, k: ((0, 0, k), (0, k, 0, 0, 1, 0, 0))),
        # a z1² + c z2² + m z1z2 <-> a y1² + c y2² + m y1y2 + b(x1x2x3)
        MoritaEdge(
            Family.HEISENBERG, Family.ELEM_ABELIAN, ("a", "m", "c"),
            lambda p, a, m, c: ((0, a, c, m), (a, c, 0, m, 0, 0, 1)),
        ),
        _TRIPLE_EDGE,
    )),
    # A = Z/p x Z/p, K = Z/p acting by B -> B*C; A = <B, C> in H_p, <a, b^p> in G_p
    ExtensionCase("A=ZpZp.K=Zp.twisted", (
        RealizedExtension(Family.HEISENBERG, "0", ((("z1^2", 0),), (("z1z2", 0),)), (_E2_H_TWISTED, _E2_H_TWISTED)),
        RealizedExtension(Family.GP, "nonzero", ((), ()), ({
            (0, 4): (("gamma^2", 1),),
            (1, 3): (("delta", 1),),
            (2, 2): (),
            (3, 1): (),
            (0, 2): (("u02", 1),),
            (1, 2): (("u12", 1),),
            (2, 0): (("u20", 1),),
            (4, 0): (("u40", 1),),
        }, {
            (0, 4): (("gamma^2", 1),),
            (1, 3): (("delta", 1),),
            (2, 2): (),
            (3, 1): (),
            (0, 2): (("u02", 1),),
            (1, 2): (),
            (2, 0): (("u20", 1),),
            (4, 0): (),
        })),
    ), (
        # 0 <-> z1z2 + l z1²
        MoritaEdge(Family.GP, Family.HEISENBERG, ("l",), lambda p, l: ((0, 0), (0, l, 0, 1))),
    )),
)


# ---------------------------------------------------------------------------
# Omega(G; A): coordinate-aligned spans inside the H^4 models


@dataclass(frozen=True)
class OmegaGroup:
    """Span of classes admitting module-category data over A, inside the model."""

    model: H4Model
    sub_basis: tuple[tuple[str, int], ...]  # (model basis label, scale)
    quot_basis: tuple[tuple[str, int], ...]

    @property
    def divisors(self) -> tuple[int, ...]:
        model = self.model
        scale = {label: s for label, s in self.sub_basis + self.quot_basis}
        divs = []
        for label, m in zip(model.basis, model.moduli):
            divs.append(min(scale.get(label, m), m))
        return tuple(divs)

    @property
    def order(self) -> int:
        n = 1
        for m, d in zip(self.model.moduli, self.divisors):
            n *= m // d
        return n

    @property
    def sub_order(self) -> int:
        n = 1
        moduli = dict(zip(self.model.basis, self.model.moduli))
        for label, s in self.sub_basis:
            n *= moduli[label] // s
        return n

    @property
    def quot_order(self) -> int:
        n = 1
        moduli = dict(zip(self.model.basis, self.model.moduli))
        sub_scale = dict(self.sub_basis)
        for label, s in self.quot_basis:
            term = moduli[label] // s
            if label in sub_scale:
                # quotient by the deeper filtration step on the same coordinate
                term //= moduli[label] // sub_scale[label]
            n *= term
        return n

    def contains_codes(self, codes) -> np.ndarray:
        """Whether each encoded class lies in the span: each of its digits is a
        multiple of that coordinate's divisor."""
        return (radix_digits(codes, self.model.moduli) % self.divisors == 0).all(axis=-1)


def omega(case: ExtensionCase, family: Family, p: int) -> OmegaGroup:
    """The Omega span for a family realized in the given extension case."""
    realized = {r.family: r for r in case.realized}
    if family not in realized:
        raise ValueError(f"{family.value} is not realized in case {case.case_id}")
    sub, quot = realized[family].omega
    scale = lambda pairs: tuple((label, p**e) for label, e in pairs)
    return OmegaGroup(h4_model(family, p), scale(sub), scale(quot))


# ---------------------------------------------------------------------------
# spectral-sequence page data and its mechanical verification


def diagonal_order(cells: dict, p: int) -> int:
    """Order of the total-degree-4 diagonal of one displayed page."""
    return p ** sum(e for (a, b), gens in cells.items() if a + b == 4 for _, e in gens)


# -- linear algebra over F_p on monomial coordinates -------------------------


def _rank_of(elements) -> int:
    """Rank mod p of the elements' coefficient rows over their monomials, p their ring's."""
    if not elements:
        return 0
    mons = sorted({m for el in elements for m in el.terms})
    return rank_and_det_mod([[el.terms.get(m, 0) for m in mons] for el in elements], elements[0].ring.p)[0]


def _cell_check(name, domain, diff, expected_survivors, incoming) -> CheckResult:
    """ker(diff)/im(incoming) on a span must equal the listed surviving generators; diff None is 0."""
    images = [diff(el) for el in domain] if diff else []
    rank_out = _rank_of(images)
    rank_in = _rank_of(incoming)
    survivors = len(domain) - rank_out - rank_in
    ok = survivors == len(expected_survivors)
    if incoming:
        # the incoming image must land inside this cell's span
        ok &= _rank_of(domain + incoming) == _rank_of(domain)
    # the listed survivors must actually survive: killed by diff, independent mod image
    if diff:
        ok &= all(diff(el).is_zero() for el in expected_survivors)
    if expected_survivors:
        ok &= _rank_of(incoming + expected_survivors) == rank_in + len(expected_survivors)
    return CheckResult(name, ok, f"dim ker/im = {survivors}, listed = {len(expected_survivors)}")


def _rank2_fourth_pages(x1, x2, y1, y2) -> dict[Family, dict]:
    """Surviving generators of the displayed fourth pages over a rank-2 base,
    per family of ``CASES[4]``, in the base's degree-1 classes x1, x2 and their
    Bocksteins y1, y2."""
    one = x1.ring.element({(): 1})
    b12 = gr.bockstein(x1 * x2)
    return {
        Family.ELEM_ABELIAN: {
            (0, 2): [one],
            (1, 2): [x1, x2],
            (2, 2): [y1, y2, x1 * x2],
            (0, 4): [one],
            (3, 0): [b12],
            (4, 0): [y1 * y1, y1 * y2, y2 * y2],
        },
        Family.P2XP: {
            (0, 2): [one],
            (1, 2): [],
            (2, 2): [y1, y2],
            (0, 4): [one],
            (3, 0): [b12],
            (4, 0): [y2 * y2],
        },
        Family.HEISENBERG: {
            (0, 2): [],
            (1, 2): [x1, x2],
            (2, 2): [x1 * x2],
            (0, 4): [],
            (3, 0): [],
            (4, 0): [y1 * y1, y1 * y2, y2 * y2],
        },
        Family.GP: {
            (0, 2): [],
            (1, 2): [],
            (2, 2): [y2 - x1 * x2],
            (0, 4): [],
            (3, 0): [],
            (4, 0): [y1 * y1],
        },
    }


def _walk(name, page, r, d, want) -> list[CheckResult]:
    """Check E_(r+1) against the survivors ``want`` lists, on each of its cells (a, b) in
    ``page`` order: d_r: E_r^(a,b) -> E_r^(a+r,b-r+1) leaves the cell when b - r + 1 >= 0
    (and is 0 otherwise), and the images of d_r on cell (a - r, b + r - 1) arrive in it."""
    return [
        _cell_check(
            f"{name}.cell{(a, b)}", domain, d if b - r + 1 >= 0 else None, want[(a, b)],
            [d(el) for el in page.get((a - r, b + r - 1), [])],
        )
        for (a, b), domain in page.items()
        if (a, b) in want
    ]


def _walk_rank2(name, base, realized, detail04="fiber square survives iff beta(kappa) = 0") -> list[CheckResult]:
    """Fourth page of a central extension by Z/p of a rank-2 base: d3(y3 * P) = beta(kappa * P),
    with kappa read from the realized member's k-invariant label."""
    x1, x2, y1, y2 = base
    beta = gr.bockstein
    kappa = gr.k_invariants(*base)[realized.k_invariant]
    want = _rank2_fourth_pages(*base)[realized.family]
    d3 = lambda el: beta(kappa * el)
    page = {
        (0, 2): [x1.ring.element({(): 1})],
        (1, 2): [x1, x2],
        (2, 2): [y1, y2, x1 * x2],
        (3, 0): [beta(x1 * x2)],
        (4, 0): [y1 * y1, y1 * y2, y2 * y2],
    }
    row = lambda b: {cell: gens for cell, gens in want.items() if cell[1] == b}
    # fiber square: d3(y3^2 * P) = 2 y3 beta(kappa P), nonzero iff beta(kappa) is
    square = CheckResult(f"{name}.cell(0, 4)", beta(kappa).is_zero() == bool(want[(0, 4)]), detail04)
    return _walk(name, page, 3, d3, row(2)) + [square] + _walk(name, page, 3, d3, row(0))


def _verify_rank2_base_pages(case: ExtensionCase, p: int) -> list[CheckResult]:
    """Symbolic page-4 verification for the extensions over a rank-2 base, then
    for the Heisenberg member again as the centre of H_p in w/z names."""
    R = gr.rank2_extension_ring(p, "x", "y", "y3")
    base = tuple(R.gen(l) for l in ("x1", "x2", "y1", "y2"))
    checks = []
    for realized in case.realized:
        checks += _walk_rank2(f"pages.{case.case_id}.{realized.family.value}", base, realized)
    H = gr.rank2_extension_ring(p, "w", "z", "t")
    heisenberg = next(r for r in case.realized if r.family is Family.HEISENBERG)
    return checks + _walk_rank2(
        "pages.heisenberg_center", tuple(H.gen(l) for l in ("w1", "w2", "z1", "z2")), heisenberg,
        "t^2 dies: d3(t^2) = 2 t beta(w1 w2) != 0",
    )


def _verify_rank1_base_pages(case: ExtensionCase, p: int) -> list[CheckResult]:
    """Symbolic page verification for fiber (Z/p)^2 over base Z/p."""
    R = gr.exterior_bockstein_ring(3, p)
    x1, x2, x3 = (R.gen(f"x{i}") for i in (1, 2, 3))
    y1, y2, y3 = (R.gen(f"y{i}") for i in (1, 2, 3))
    beta = gr.bockstein
    page2 = {
        (0, 2): [y2, y3],
        (1, 2): [x1 * y2, x1 * y3],
        (2, 2): [y1 * y2, y1 * y3],
        (3, 2): [x1 * y1 * y2, x1 * y1 * y3],
        (0, 3): [beta(x2 * x3)],
        (1, 3): [x1 * beta(x2 * x3)],
        (0, 4): [y2 * y2, y2 * y3, y3 * y3],
        (4, 0): [y1 * y1],
    }
    # d2 is the derivation x2 -> kappa of each member's k-invariant
    kappa = gr.k_invariants(x1, x2, y1, y2)
    d2_of = {r.family: gr.derivation(R, {"x2": kappa[r.k_invariant]}) for r in case.realized}
    # split member: kappa = 0, so d2 = 0 and every cell survives
    checks = _walk(f"pages.{case.case_id}.{Family.ELEM_ABELIAN.value}", page2, 2, d2_of[Family.ELEM_ABELIAN], page2)
    # product member: d2(x2) = kappa, then d3(x1 y2) = y1^2
    fam = Family.P2XP.value
    page3_expected = {
        (0, 2): [y2, y3],
        (1, 2): [x1 * y2, x1 * y3],
        (2, 2): [y1 * y2],
        (3, 2): [x1 * y1 * y2],
        (0, 3): [],
        (1, 3): [],
        (0, 4): [y2 * y2, y2 * y3, y3 * y3],
    }
    checks += _walk(f"pages.{case.case_id}.{fam}.page3", page2, 2, d2_of[Family.P2XP], page3_expected)
    # the only nonzero third differential: x1 y2 -> y1^2, x1 y3 -> 0
    page3 = {(1, 2): page3_expected[(1, 2)], (4, 0): [y1 * y1]}
    d3 = lambda el: [y1 * y1, R.zero()][page3[(1, 2)].index(el)]
    checks += _walk(f"pages.{case.case_id}.{fam}.page4", page3, 3, d3, {(1, 2): [x1 * y3], (4, 0): []})
    # order bookkeeping: with the stated d3 the degree-4 orders multiply to
    # |H^4| = p^4; a vanishing d3 would leave p^5
    degree4 = p ** (len(page3_expected[(0, 4)]) + len(page3_expected[(2, 2)]))
    return checks + [
        CheckResult(
            f"pages.{case.case_id}.{fam}.order_bookkeeping",
            degree4 == h4_model(Family.P2XP, p).total_order
            and degree4 * p != h4_model(Family.P2XP, p).total_order,
            f"E_infinity degree-4 order {degree4}",
        )
    ]


def _verify_mixed_pages(case: ExtensionCase, p: int) -> list[CheckResult]:
    checks = []
    for realized in case.realized:
        e_first, e_last = realized.pages
        name = f"pages.{case.case_id}.{realized.family.value}"
        model_order = h4_model(realized.family, p).total_order
        final = diagonal_order(e_last, p)
        checks.append(CheckResult(f"{name}.final_order", final == model_order,
                                  f"E_inf degree-4 order {final} vs |H^4| {model_order}"))
        killed = diagonal_order(e_first, p) // final
        # a rank-r d3 out of (1,2) removes p^r from the degree-3 and degree-4
        # diagonals simultaneously; split members must need no differential
        if realized.k_invariant == "0":
            checks.append(CheckResult(f"{name}.split_no_differentials", killed == 1 and e_first == e_last,
                                      "k-invariant 0: E_2 = E_inf"))
        else:
            avail = p ** sum(e for _, e in e_first.get((1, 2), ()))
            checks.append(CheckResult(f"{name}.d3_rank", killed == avail and killed > 1,
                                      f"d3 must kill a factor of {killed}, cell (1,2) holds {avail}"))
    return checks


def verify_pages(p: int) -> list[CheckResult]:
    """Re-derive the displayed spectral-sequence pages for the six cases.

    Cells whose entries are p-torsion spans are recomputed with the graded
    ring engine (kernel mod image under the differential rules); mixed-torsion
    cases are checked by order bookkeeping against |H^4| of each realized
    group, including that split extensions need no differentials at all.
    """
    checks: list[CheckResult] = []
    for case in CASES:
        if case is CASES[3]:
            checks += _verify_rank1_base_pages(case, p)
        elif case is CASES[4]:
            checks += _verify_rank2_base_pages(case, p)
        else:
            checks += _verify_mixed_pages(case, p)
    # Omega orders must factor as |sub| * |quot| through the coordinate spans
    for case in CASES:
        for realized in case.realized:
            om = omega(case, realized.family, p)
            checks.append(
                CheckResult(
                    f"omega.{case.case_id}.{realized.family.value}.order",
                    om.order == om.sub_order * om.quot_order,
                    f"|Omega| = {om.order} = {om.sub_order} * {om.quot_order}",
                )
            )
    return checks


# ---------------------------------------------------------------------------
# the derived equivalences, as explicit class pairs


def all_edges(p: int) -> np.ndarray:
    """The rows of every edge family of every case, one ``(E, 4)`` array in case order."""
    return np.concatenate([edge.rows(p) for case in CASES for edge in case.edges])


# ---------------------------------------------------------------------------
# components over canonical orbit representatives


@dataclass
class MoritaGraph:
    """Connected components of the derived equivalences on orbit representatives."""

    p: int
    indices: dict[Family, OrbitIndex]
    components: list[tuple[tuple[Family, CohClass], ...]]

    def size_histogram(self) -> dict[int, int]:
        return dict(Counter(len(comp) for comp in self.components))

    def nontrivial(self) -> list[tuple[tuple[Family, CohClass], ...]]:
        return [c for c in self.components if len(c) > 1]

    def component_of(self, family: Family, cls: CohClass) -> tuple:
        rep = self.indices[family].orbit_of(cls).rep
        for comp in self.components:
            if (family, rep) in comp:
                return comp
        raise KeyError((family, cls))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "components": [
                {
                    "members": [
                        {
                            "family": fam.value,
                            "class_label": rep.label(),
                            "coeffs": list(rep.coeffs),
                        }
                        for fam, rep in comp
                    ]
                }
                for comp in self.components
            ],
        }


def morita_components(indices: dict[Family, OrbitIndex]) -> MoritaGraph:
    """Canonicalize the endpoints of every edge of ``all_edges(p)`` and join
    them; the components are the Morita classes.

    ``indices`` are the five families' orbit indices, all at one prime p, which
    is read off their models; a mapping that lacks a family or mixes primes is
    refused with a ValueError."""
    missing = [fam.value for fam in FAMILIES if fam not in indices]
    if missing:
        raise ValueError(f"no orbit index for {', '.join(missing)}")
    primes = sorted({indices[fam].model.p for fam in FAMILIES})
    if len(primes) > 1:
        raise ValueError(f"orbit indices at more than one prime: {', '.join(map(str, primes))}")
    p = primes[0]
    edges = all_edges(p)
    offset, nodes = {}, []
    for fam in FAMILIES:
        offset[fam] = len(nodes)
        nodes += [(fam, orbit.rep) for orbit in indices[fam].orbits]

    # the node of every endpoint, left and right interleaved, one ids call per family
    fams, codes = edges[:, 0::2].ravel(), edges[:, 1::2].ravel()
    ends = np.empty(fams.size, dtype=np.int64)
    for f, fam in enumerate(FAMILIES):
        rows = fams == f
        ends[rows] = offset[fam] + indices[fam].ids(codes[rows])
    # each node takes the least label of itself and its neighbours until none
    # changes; then every node holds the least node of its component
    left, right = ends.reshape(-1, 2).T
    label, before = np.arange(len(nodes)), None
    while not np.array_equal(label, before):
        before = label.copy()
        np.minimum.at(label, left, label[right])
        np.minimum.at(label, right, label[left])
    groups: dict[int, list[int]] = {}
    for i, least in enumerate(label.tolist()):
        groups.setdefault(least, []).append(i)
    # members come in node order, which is (family, representative) order
    # because orbit ids follow the order of their seeds; components are
    # sorted by their members' families, then by their representatives,
    # which for equal families is the order of their node numbers
    family_of = [f for f, fam in enumerate(FAMILIES) for _ in indices[fam].orbits]
    groups_in_order = sorted(groups.values(), key=lambda members: ([family_of[i] for i in members], members))
    components = [tuple(nodes[i] for i in members) for members in groups_in_order]
    return MoritaGraph(p, indices, components)


def morita_count_checks(graph: MoritaGraph) -> list[CheckResult]:
    """The number of Morita classes and their size histogram against the published ones."""
    p, n, hist = graph.p, len(graph.components), graph.size_histogram()
    return [
        CheckResult(f"counts.morita.p{p}", n == sum(published.morita_histogram(p).values()), f"{n} components"),
        CheckResult(f"counts.morita_histogram.p{p}", hist == published.morita_histogram(p), f"{hist}"),
    ]


# ---------------------------------------------------------------------------
# merged-table output


def _family_heading(family: Family, p: int) -> str:
    return {
        Family.CYCLIC: f"Z/{p**3}",
        Family.P2XP: f"Z/{p**2} x Z/{p}",
        Family.ELEM_ABELIAN: f"(Z/{p})^3",
        Family.HEISENBERG: f"H_{p}",
        Family.GP: f"G_{p}",
    }[family]


def _entry(graph: MoritaGraph, family: Family, rep: CohClass) -> str:
    orbit = graph.indices[family].orbit_of(rep)
    txt = rep.label()
    return "{" + txt + "}" if orbit.size == 1 else f"O({txt})"


def emit_table(graph: MoritaGraph, fmt: str = "md") -> str:
    """Render the merged nontrivial-component table (md or csv) or the full JSON."""
    p = graph.p
    if fmt == "json":
        payload = graph.to_json()
        payload["h"] = select_h(p)
        return json.dumps(payload, indent=2)
    # one family -> representative row per nontrivial component, in component order
    rows = [dict(comp) for comp in graph.nontrivial()]
    headers = [_family_heading(fam, p) for fam in FAMILIES]
    cells = [
        [(_entry(graph, fam, row[fam]) if fam in row else "") for fam in FAMILIES]
        for row in rows
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(headers)
        writer.writerows(cells)
        return buf.getvalue()
    if fmt != "md":
        raise ValueError(f"unsupported format {fmt!r}")
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(headers)]
    lines = [
        "| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |",
        "|" + "|".join("-" * (w + 2) for w in widths) + "|",
    ]
    for row in cells:
        lines.append("| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |")
    lines.append("")
    lines.append(f"nontrivial Morita classes: {len(rows)} (h = {select_h(p)})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# cross-case consistency checks


def consistency_checks(graph: MoritaGraph) -> list[CheckResult]:
    """Checks tying the edge data, orbit indices and Omega spans together."""
    p = graph.p
    checks: list[CheckResult] = []
    indices = graph.indices

    def orbit_ids(family: Family, coeffs) -> list[int]:
        """Orbit ids of the classes with these coefficients, one ids call."""
        return indices[family].ids(indices[family].model.encode(coeffs)).tolist()

    # every edge endpoint lies inside the Omega span of its case and family;
    # a failure names the first case and family with an endpoint outside it
    outside = [
        f"{fam.value} endpoint outside Omega in {case.case_id}"
        for case in CASES for edge in case.edges
        for fam, codes in zip((edge.left, edge.right), edge.rows(p)[:, 1::2].T)
        if not omega(case, fam, p).contains_codes(codes).all()
    ]
    checks.append(CheckResult("consistency.edges_in_omega", not outside, outside[0] if outside else ""))

    # the unit-parameter reading mod p^2 produces the same canonical edge set
    def unit_pairs(modulus):
        edge = _SCALED_SQUARE_EDGE
        left, right = edge.coeffs(p, np.array(units(modulus)))
        return set(zip(orbit_ids(edge.left, left), orbit_ids(edge.right, right)))

    narrow, wide = unit_pairs(p), unit_pairs(p * p)
    checks.append(
        CheckResult(
            "consistency.unit_parameter_readings_agree",
            narrow == wide,
            f"{len(units(p))} vs {len(units(p * p))} parameter values, same orbit pairs",
        )
    )
    # all unit parameters collapse into the square/nonsquare pair of orbit pairs
    checks.append(
        CheckResult(
            "consistency.unit_parameter_orbit_pair_count",
            len(narrow) == 2,
            f"{len(narrow)} distinct canonical pairs",
        )
    )

    # both signs of the triple-product class land in the same orbit
    _, minus = _TRIPLE_EDGE.coeffs(p, np.arange(p))
    plus = minus[:-1] + (-minus[-1] % p,)
    right = _TRIPLE_EDGE.right
    checks.append(CheckResult("consistency.triple_product_sign", orbit_ids(right, plus) == orbit_ids(right, minus)))

    # the sixteen listed product-group representatives are pairwise disjoint
    # orbits and exhaust the classification; g is also the least nonsquare unit
    # mod p^2, because a unit mod p^2 is a square iff it is a square mod p
    g = least_nonsquare(p)
    listed = [(a, 0, c) for a in (0, 1, g, p, g * p) for c in (0, 1, g)] + [(0, 1, 0)]
    ids = set(orbit_ids(Family.P2XP, np.array(listed).T))
    checks.append(
        CheckResult(
            "consistency.p2xp_sixteen_representatives",
            len(ids) == len(indices[Family.P2XP].orbits) == published.orbit_count(Family.P2XP, p),
            f"{len(ids)} distinct orbits among the listed representatives",
        )
    )

    # the p+11 listed representatives of the elementary abelian family are
    # pairwise disjoint orbits and exhaust the classification
    listed_e = [
        (lead, rank2, 0, 0, 0, 0, beta)
        for lead in (0, 1, g)
        for rank2 in ((0, 1) if lead else (0,))
        for beta in (0, 1)
    ]
    for lead in (1, g):
        for a in range((p - 1) // 2 + 1):
            listed_e.append((lead, 1, 1, 0, 0, 0, a))
    ids_e = set(orbit_ids(Family.ELEM_ABELIAN, np.array(listed_e).T))
    checks.append(
        CheckResult(
            "consistency.elem_abelian_listed_representatives",
            len(listed_e) == len(ids_e) == len(indices[Family.ELEM_ABELIAN].orbits)
            == published.orbit_count(Family.ELEM_ABELIAN, p),
            f"{len(ids_e)} distinct orbits among {len(listed_e)} listed classes",
        )
    )

    # gamma^2 multiples are fixed classes and stay in distinct components
    G = h4_model(Family.GP, p)
    comps = set()
    ok = True
    for k in range(1, p):
        cls = G.cls((0, k))
        ok &= graph.indices[Family.GP].orbit_of(cls).size == 1
        comps.add(graph.component_of(Family.GP, cls))
    checks.append(
        CheckResult(
            "consistency.gamma_square_singletons",
            ok and len(comps) == p - 1,
            f"{len(comps)} distinct components for {p - 1} classes",
        )
    )
    return checks
