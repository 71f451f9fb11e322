"""Finite abelian models of H^4(G, Z) for the five groups of order p^3.

Each model is a coefficient lattice with named basis classes and per-coordinate
p-power moduli, together with integer matrices generating the image of Aut(G)
on it.  The matrices are built from explicit per-family formulas and then
cross-checked, column by column, against symbolic pullbacks computed in
``graded_ring`` - so the action data is never trusted as hand-copied numbers
alone.  There is one pullback comparison, ``pullbacks``, and it is batched:
``_ring_images`` turns a stack of B automorphisms' parameters into one ring map
on the family's presentation whose coefficients are int64 arrays over the B
rows, the map is applied to the ring elements of the basis
(``_ring_and_basis``), the images are read back with ``_coords_in_basis`` into
a ``(B, n, n)`` stack, and that stack is compared column by column with
``_reduce_rows(_model_matrix(...))``, the model matrices stacked the same way.
``cross_check_actions`` runs it once on a family's generator records;
``graded_ring.verify_identity_suite`` runs it once per parameter sweep and
reuses the returned ring map.

Each generator of Aut(G) the paper names is one ``AutGenerator`` record,
written once per family in ``aut_generators``: its name and its parameters
(the unit, the (i, j, k, l) of rho, or the GL(3, p) / GL(2, p) matrix from
``modular.gl_generators``); the record's name is the generator's only name.
Three things are derived from the record: the model matrix
(``_model_matrix``, the one builder behind both ``action_generators`` and
``push_automorphism``), the symbolic ring pullback that
``cross_check_actions`` compares it with (``_ring_images``), and the
generator images in the group, which ``push_automorphism`` reads back into a
record (``_params_of``) from an automorphism's row of element images, one
row of ``groups.enumerate_automorphisms``.  An action generator is the model
matrix with each row reduced mod its modulus, held as a tuple of row tuples:
``action_generators`` returns one per record, in ``aut_generators`` order,
and ``push_automorphism`` returns the same kind of matrix.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import graded_ring as gr
from .groups import Family, GroupTable, build_group
from .modular import (
    gl_generators, is_automorphism, primitive_root, quadratic_substitution_matrix, radix_digits, radix_weights,
    require_odd_prime,
)
from .report import CheckResult

_BASIS = {
    Family.CYCLIC: ("s^2",),
    Family.P2XP: ("v^2", "uv", "u^2"),
    Family.ELEM_ABELIAN: ("y1^2", "y2^2", "y3^2", "y1y2", "y1y3", "y2y3", "b(x1x2x3)"),
    Family.HEISENBERG: ("chi", "z1^2", "z2^2", "z1z2"),
    Family.GP: ("delta", "gamma^2"),
}

# index pairs of the quadratic coordinates, aligned with the basis orders above
_QUAD_PAIRS = {
    Family.ELEM_ABELIAN: ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)),
    Family.HEISENBERG: ((0, 0), (1, 1), (0, 1)),
}


@dataclass(frozen=True)
class H4Model:
    family: Family
    p: int
    basis: tuple[str, ...]
    moduli: tuple[int, ...]

    @property
    def total_order(self) -> int:
        return math.prod(self.moduli)

    @property
    def weights(self) -> tuple[int, ...]:
        return radix_weights(self.moduli)

    def encode(self, coeffs):
        """Code of a coefficient vector; coefficients given as int64 arrays,
        broadcast against each other, give an array of codes."""
        return sum(np.asarray(c, dtype=np.int64) % m * w for c, m, w in zip(coeffs, self.moduli, self.weights))

    def decode(self, state: int) -> tuple[int, ...]:
        return tuple(radix_digits(state, self.moduli).tolist())

    def cls(self, coeffs) -> "CohClass":
        if len(coeffs) != len(self.basis):
            raise ValueError("coefficient vector has wrong length")
        return CohClass(self, tuple(int(c) % m for c, m in zip(coeffs, self.moduli)))


@dataclass(frozen=True)
class CohClass:
    """An element of an H4 model: reduced coefficient vector over the basis."""

    model: H4Model
    coeffs: tuple[int, ...]

    def label(self) -> str:
        parts = []
        for c, name in zip(self.coeffs, self.model.basis):
            if c == 0:
                continue
            parts.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def h4_model(family: Family, p: int) -> H4Model:
    """The degree-4 integral cohomology model for one family at an odd prime."""
    require_odd_prime(p)
    moduli = {
        Family.CYCLIC: (p**3,),
        Family.P2XP: (p**2, p, p),
        Family.ELEM_ABELIAN: (p,) * 7,
        Family.HEISENBERG: (p,) * 4,
        Family.GP: (p, p),
    }[family]
    return H4Model(family, p, _BASIS[family], moduli)


def _reduce_rows(mat: np.ndarray, moduli) -> np.ndarray:
    """Each row of a matrix, or of each matrix in a stack, mod its modulus."""
    return mat % np.array(moduli, dtype=np.int64)[:, None]


def _as_rows(mat: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, mat.tolist()))


def _well_defined(mat: np.ndarray, moduli) -> bool:
    # entry (i, j) sends a mod-m_j coordinate into a mod-m_i one, so whenever
    # m_j < m_i the entry must be divisible by m_i / m_j
    for i, mi in enumerate(moduli):
        for j, mj in enumerate(moduli):
            if mj < mi and mat[i, j] % (mi // mj):
                return False
    return True


@dataclass(frozen=True)
class AutGenerator:
    """One generator of Aut(G), named and given by the paper's parameters.

    ``params`` is, by family:
    - cyclic: the unit u of x -> x^u;
    - gp: the unit u of b -> b^u (a fixed);
    - p2xp: (i, j, k, l) of rho, x -> x^i y^j, y -> x^(pk) y^l;
    - elem_abelian: the 3x3 matrix whose row r holds the exponents of the
      image of x_(r+1);
    - heisenberg: the 2x2 matrix whose rows hold the A, B exponents of the
      images of A and B.
    """

    name: str
    params: int | tuple


def aut_generators(family: Family, p: int) -> tuple[AutGenerator, ...]:
    """The paper's generating set of Aut(G), one record per generator."""
    g = primitive_root(p)
    if family is Family.CYCLIC:
        g3 = primitive_root(p**3)
        return (AutGenerator(f"unit {g3}", g3),)
    if family is Family.GP:
        return (AutGenerator(f"b -> b^{g}", g),)
    if family is Family.P2XP:
        g2 = primitive_root(p**2)
        params = [(g2, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 0, 0, g)]
        return tuple(AutGenerator("rho(i={},j={},k={},l={})".format(*t), t) for t in params)
    if family is Family.ELEM_ABELIAN:
        n, names = 3, (f"diag({g},1,1)", "cycle(1->2->3)", "shear(x1->x1+x2)")
    else:
        n, names = 2, (f"diag({g},1)", "swap", "shear(A->A*B)")
    return tuple(AutGenerator(name, m) for name, m in zip(names, gl_generators(n, p)))


def _dets_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinant mod p of each 2x2 or 3x3 matrix in a stack, by cofactors.

    The entries are reduced mod p first, so every product of three stays
    below p**3, far inside int64, and the determinant is exact before its
    final reduction."""
    a = np.asarray(mats, dtype=np.int64) % p
    if a.shape[-1] == 2:
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    else:
        # expansion along the first row
        det = (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
               - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
               + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))
    return det % p


def _stacked(rows) -> np.ndarray:
    """A matrix written entry by entry, each entry a scalar or an array over the
    parameter stack, as one array with the stack's axes in front."""
    entries = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for row in rows for v in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (len(rows), len(rows[0])))


def _model_matrix(family: Family, params, p: int) -> np.ndarray:
    """Action on the model of the automorphisms with these record parameters.

    ``params`` is one record's parameters or a stack of them along leading
    axes (B units, B rho tuples, B matrices); the result is the matching
    ``(..., n, n)`` stack.  Rows are not yet reduced mod their moduli.
    """
    params = np.asarray(params, dtype=np.int64)
    if family is Family.CYCLIC:
        return _stacked([[params * params]])
    if family is Family.GP:
        return _stacked([[params * params, 0], [0, 1]])
    if family is Family.P2XP:
        # on [v^2, uv, u^2]
        i, j, k, l = np.moveaxis(params, -1, 0)
        return _stacked([[i * i, p * i * j, 0], [2 * i * k, i * l, 0], [k * k, k * l, l * l]])
    det = _dets_mod(params, p)
    out = np.zeros(params.shape[:-2] + (len(_BASIS[family]),) * 2, dtype=np.int64)
    if family is Family.ELEM_ABELIAN:
        out[..., :6, :6] = quadratic_substitution_matrix(params, _QUAD_PAIRS[family], p)
        out[..., 6, 6] = det
    else:
        # z1 -> a z1 + c z2, z2 -> b z1 + d z2 for A -> A^a B^b, B -> A^c B^d
        out[..., 0, 0] = det * det % p
        out[..., 1:, 1:] = quadratic_substitution_matrix(np.swapaxes(params, -1, -2), _QUAD_PAIRS[family], p)
    return out


def _action(model: H4Model, params, name: str) -> tuple[tuple[int, ...], ...]:
    """The reduced model matrix of the automorphism with these record parameters."""
    mat = _model_matrix(model.family, params, model.p)
    if not _well_defined(mat, model.moduli):
        raise AssertionError(f"action matrix for {name} not well defined on mixed moduli")
    if not is_automorphism(mat, model.moduli):
        raise AssertionError(f"action matrix for {name} not invertible")
    return _as_rows(_reduce_rows(mat, model.moduli))


@lru_cache(maxsize=None)
def action_generators(family: Family, p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Generators of the image of Aut(G) on the model: the reduced matrices, in
    ``aut_generators`` order, as tuples of row tuples."""
    model = h4_model(family, p)
    return tuple(_action(model, gen.params, gen.name) for gen in aut_generators(family, p))


def scalar_action(p: int) -> tuple[tuple[int, ...], ...]:
    """The (Z/p)^3 model matrix of the scalar g I_3 of GL(3, p), g the
    primitive root: diag(g^2 I_6, g^3), a scalar on the quadratic block."""
    g = primitive_root(p)
    return _action(h4_model(Family.ELEM_ABELIAN, p), g * np.eye(3, dtype=np.int64), f"{g} I_3")


# ---------------------------------------------------------------------------
# pushing brute-force automorphisms into the models (used for cross-checks)


def _params_of(G: GroupTable, image: np.ndarray):
    """Record parameters of a group automorphism, read off its generator images."""
    img = {label: tuple(int(v) for v in G.exps[image[G.gen_names[label]]]) for label in G.gen_labels}
    if G.family is Family.CYCLIC:
        return img["x"][0]
    if G.family is Family.GP:
        return img["b"][0]
    if G.family is Family.P2XP:
        (i, j), (c, l) = img["x"], img["y"]
        if c % G.p:
            raise AssertionError("image of the order-p generator must land in p * Z/p^2")
        return (i, j, c // G.p, l)
    if G.family is Family.ELEM_ABELIAN:
        return (img["x1"], img["x2"], img["x3"])
    return (img["A"][:2], img["B"][:2])


def push_automorphism(image: np.ndarray, model: H4Model) -> tuple[tuple[int, ...], ...]:
    """Reduced model matrix induced by a group automorphism of the model's group,
    given as its row of element images (one row of ``enumerate_automorphisms``)."""
    return _action(model, _params_of(build_group(model.family, model.p), image), "pushed automorphism")


# ---------------------------------------------------------------------------
# symbolic cross-checks against the graded-ring engine


@lru_cache(maxsize=None)
def _ring_and_basis(family: Family, p: int):
    """Ring presentation plus the ring elements of the model basis, in basis order."""
    if family is Family.ELEM_ABELIAN:
        R = gr.exterior_bockstein_ring(3, p)
        y = [R.gen(f"y{i}") for i in (1, 2, 3)]
        beta = gr.bockstein(R.gen("x1") * R.gen("x2") * R.gen("x3"))
        return R, (y[0] * y[0], y[1] * y[1], y[2] * y[2], y[0] * y[1], y[0] * y[2], y[1] * y[2], beta)
    if family is Family.HEISENBERG:
        R = gr.rank2_extension_ring(p, "w", "z", "t")
        z1, z2, t = R.gen("z1"), R.gen("z2"), R.gen("t")
        chi = t * R.gen("w1") * R.gen("w2")
        return R, (chi, z1 * z1, z2 * z2, z1 * z2)
    if family is Family.P2XP:
        R = gr.kunneth_uv_ring(p)
        u, v = R.gen("u"), R.gen("v")
        return R, (v * v, u * v, u * u)
    if family is Family.CYCLIC:
        R = gr.cyclic_s_ring(p)
        s = R.gen("s")
        return R, (s * s,)
    if family is Family.GP:
        R = gr.r_gamma_ring(p)
        r, gam = R.gen("r"), R.gen("gam")
        return R, (p * (r * r), gam * gam)
    raise ValueError(family)


def _coords_in_basis(el, basis) -> list:
    """Coordinates of a ring element in the model basis; error if outside its span.

    The basis classes have pairwise disjoint monomial supports, so coordinate
    k is read off one monomial of class k: its coefficient in ``el`` divided by
    its coefficient in the class, modulo the monomial's additive order (the
    quotient is the coordinate's modulus), element by element when ``el`` is a
    batch.  Rebuilding ``el`` from the coordinates then checks every other
    monomial on every batch row.
    """
    coords = []
    for cls in basis:
        mon, c = next(iter(cls.terms.items()))
        order = el.ring.monomial_order(mon)
        g = math.gcd(c, order)
        coords.append(el.terms.get(mon, 0) // g * pow(c // g, -1, order // g) % (order // g))
    rebuilt = {mon: x * c for x, cls in zip(coords, basis) for mon, c in cls.terms.items()}
    if gr.GradedElement(el.ring, rebuilt) != el:
        raise AssertionError(f"element {el!r} not in the model span")
    return coords


def _ring_images(family: Family, params: np.ndarray, p: int) -> dict:
    """Generator images, on the family's presentation, of the pullbacks by a
    stack of record parameters: coefficient arrays over the stack's rows."""
    ring = _ring_and_basis(family, p)[0]
    gen = ring.gen
    if family is Family.CYCLIC:
        return {"s": gen("s", params)}
    if family is Family.GP:
        return {"r": gen("r", params)}
    if family is Family.P2XP:
        i, j, k, l = np.moveaxis(params, -1, 0)
        return {"u": ring.element({("u",): l, ("v",): p * j}), "v": ring.element({("u",): k, ("v",): i})}
    # x_i, y_i substitute by the rows of the 3x3 matrix, the Heisenberg base
    # classes w_i, z_i by the columns of the 2x2 one
    if family is Family.ELEM_ABELIAN:
        names, rows = "xy", params
    else:
        names, rows = "wz", np.swapaxes(params, -1, -2)
    n = rows.shape[-1]
    images = {
        f"{x}{i}": ring.element({(f"{x}{j}",): rows[..., i - 1, j - 1] for j in range(1, n + 1)})
        for x in names
        for i in range(1, n + 1)
    }
    if family is Family.HEISENBERG:
        images["t"] = gen("t", _dets_mod(params, p))
    return images


class Pullback(NamedTuple):
    """The pullbacks of B automorphisms: their batched ring map, the ``(B, n, n)``
    stack of matrices read off it (column j: the coordinates of basis class j's
    image), the stack of reduced ``_model_matrix`` matrices, and the ``(B, n)``
    array of whether the two agree, per automorphism and basis column."""

    map: gr.GradedMap
    symbolic: np.ndarray
    model: np.ndarray
    agree: np.ndarray


def pullbacks(family: Family, p: int, params_seq) -> Pullback:
    """Compare the symbolic pullback of each record's parameters with its model
    matrix, reduced mod the moduli, column by column.  Batched: one ring map,
    whose coefficients are arrays over the records, carries the whole sequence."""
    ring, basis = _ring_and_basis(family, p)
    params = np.array(params_seq, dtype=np.int64)
    pullback = gr.ring_map(ring, _ring_images(family, params, p))
    symbolic = np.empty((len(params), len(basis), len(basis)), dtype=np.int64)
    for col, el in enumerate(basis):
        for row, coord in enumerate(_coords_in_basis(pullback(el), basis)):
            symbolic[:, row, col] = coord
    model = _reduce_rows(_model_matrix(family, params, p), h4_model(family, p).moduli)
    return Pullback(pullback, symbolic, model, (symbolic == model).all(axis=-2))


def cross_check_actions(family: Family, p: int) -> list[CheckResult]:
    """Compare every action-generator matrix against the symbolic pullback."""
    recs = aut_generators(family, p)
    pb = pullbacks(family, p, [rec.params for rec in recs])
    checks = []
    for rec, symbolic, model, agree in zip(recs, pb.symbolic, pb.model, pb.agree):
        ok = bool(agree.all())
        checks.append(
            CheckResult(
                f"action.{family.value}.p{p}.{rec.name}",
                ok,
                "matrix equals symbolic pullback" if ok else f"{_as_rows(symbolic)} != {_as_rows(model)}",
            )
        )
    return checks
