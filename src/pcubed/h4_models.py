"""Finite abelian models of H^4(G, Z) for the five groups of order p^3.

Each model is a coefficient lattice with named basis classes and per-coordinate
p-power moduli, together with integer matrices generating the image of Aut(G)
on it.  The matrices are built from explicit per-family formulas and then
cross-checked, column by column, against symbolic pullbacks computed in
``graded_ring`` - so the action data is never trusted as hand-copied numbers
alone.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import graded_ring as gr
from .groups import Family, GroupMorphism
from .modular import inverse_mod, is_prime, primitive_root
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
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @property
    def weights(self) -> tuple[int, ...]:
        w = [1] * len(self.moduli)
        for i in range(len(self.moduli) - 2, -1, -1):
            w[i] = w[i + 1] * self.moduli[i + 1]
        return tuple(w)

    def encode(self, coeffs) -> int:
        return sum((int(c) % m) * w for c, m, w in zip(coeffs, self.moduli, self.weights))

    def decode(self, state: int) -> tuple[int, ...]:
        return tuple(int(state) // w % m for w, m in zip(self.weights, self.moduli))

    def cls(self, coeffs) -> "CohClass":
        if len(coeffs) != len(self.basis):
            raise ValueError("coefficient vector has wrong length")
        return CohClass(self, tuple(int(c) % m for c, m in zip(coeffs, self.moduli)))

    def zero(self) -> "CohClass":
        return CohClass(self, (0,) * len(self.basis))

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "p": self.p,
            "basis": list(self.basis),
            "moduli": list(self.moduli),
        }


@dataclass(frozen=True)
class CohClass:
    """An element of an H4 model: reduced coefficient vector over the basis."""

    model: H4Model
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def label(self) -> str:
        parts = []
        for c, name in zip(self.coeffs, self.model.basis):
            if c == 0:
                continue
            parts.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        d = self.model.to_json()
        d["coeffs"] = list(self.coeffs)
        return d


@lru_cache(maxsize=None)
def h4_model(family: Family, p: int) -> H4Model:
    """The degree-4 integral cohomology model for one family at an odd prime."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    family = Family(family)
    moduli = {
        Family.CYCLIC: (p**3,),
        Family.P2XP: (p**2, p, p),
        Family.ELEM_ABELIAN: (p,) * 7,
        Family.HEISENBERG: (p,) * 4,
        Family.GP: (p, p),
    }[family]
    return H4Model(family, p, _BASIS[family], moduli)


def det_mod(A, m: int) -> int:
    """Determinant mod m by Gaussian elimination (m prime here)."""
    a = [[int(x) % m for x in row] for row in A]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % m), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col] % m
        inv = inverse_mod(a[col][col], m)
        for r in range(col + 1, n):
            f = a[r][col] * inv % m
            if f:
                for c in range(col, n):
                    a[r][c] = (a[r][c] - f * a[col][c]) % m
    return det % m


@dataclass(frozen=True)
class ActionGenerator:
    """Integer matrix acting on model coefficient vectors, with provenance."""

    model: H4Model
    matrix: tuple[tuple[int, ...], ...]
    provenance: str

    @property
    def array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=np.int64)

    def apply(self, cls: CohClass) -> CohClass:
        out = self.array @ np.array(cls.coeffs, dtype=np.int64)
        return self.model.cls(tuple(int(v) for v in out))

    def is_invertible(self) -> bool:
        # all moduli are p-powers, so invertible iff invertible mod p
        return det_mod(self.matrix, self.model.p) != 0

    def key(self) -> tuple:
        return self.matrix


def _reduce_rows(mat: np.ndarray, moduli) -> tuple[tuple[int, ...], ...]:
    out = mat % np.array(moduli, dtype=np.int64)[:, None]
    return tuple(tuple(int(v) for v in row) for row in out)


def _well_defined(mat: np.ndarray, moduli) -> bool:
    # entry (i, j) sends a mod-m_j coordinate into a mod-m_i one, so whenever
    # m_j < m_i the entry must be divisible by m_i / m_j
    for i, mi in enumerate(moduli):
        for j, mj in enumerate(moduli):
            if mj < mi and mat[i, j] % (mi // mj):
                return False
    return True


def _quadratic_substitution_matrix(sub: np.ndarray, pairs, p: int) -> np.ndarray:
    """Coefficient action on quadratic monomials under y_i -> sum_j sub[i,j] y_j."""
    n = sub.shape[0]
    m = np.zeros((len(pairs), len(pairs)), dtype=np.int64)
    for col, (i, j) in enumerate(pairs):
        coeff = np.zeros((n, n), dtype=np.int64)
        for k in range(n):
            for l in range(n):
                coeff[k, l] += sub[i, k] * sub[j, l]
        for row, (k, l) in enumerate(pairs):
            m[row, col] = coeff[k, l] + (coeff[l, k] if k != l else 0)
    return m % p


def _elem_matrix(A: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros((7, 7), dtype=np.int64)
    out[:6, :6] = _quadratic_substitution_matrix(A % p, _QUAD_PAIRS[Family.ELEM_ABELIAN], p)
    out[6, 6] = det_mod(A, p)
    return out


def _heis_matrix(M: np.ndarray, p: int) -> np.ndarray:
    a, b = int(M[0, 0]), int(M[0, 1])
    c, d = int(M[1, 0]), int(M[1, 1])
    det = (a * d - b * c) % p
    sub = np.array([[a, c], [b, d]], dtype=np.int64)  # z1 -> a z1 + c z2, z2 -> b z1 + d z2
    out = np.zeros((4, 4), dtype=np.int64)
    out[0, 0] = det * det % p
    out[1:, 1:] = _quadratic_substitution_matrix(sub, _QUAD_PAIRS[Family.HEISENBERG], p)
    return out


def _p2xp_matrix(i: int, j: int, k: int, l: int, p: int) -> np.ndarray:
    # action of (1,0) -> (i,j), (0,1) -> (pk,l) on [v^2, uv, u^2]
    return np.array(
        [
            [i * i, p * i * j, 0],
            [2 * i * k, i * l, 0],
            [k * k, k * l, l * l],
        ],
        dtype=np.int64,
    )


@lru_cache(maxsize=None)
def action_generators(family: Family, p: int) -> tuple[ActionGenerator, ...]:
    """Generators of the image of Aut(G) inside the automorphisms of the model."""
    family = Family(family)
    model = h4_model(family, p)
    g = primitive_root(p)
    raw: list[tuple[np.ndarray, str]] = []
    if family is Family.CYCLIC:
        g3 = primitive_root(p**3)
        raw.append((np.array([[g3 * g3]], dtype=np.int64), f"unit {g3}"))
    elif family is Family.GP:
        raw.append((np.array([[g * g, 0], [0, 1]], dtype=np.int64), f"b -> b^{g}"))
    elif family is Family.ELEM_ABELIAN:
        mats = {
            f"diag({g},1,1)": np.array([[g, 0, 0], [0, 1, 0], [0, 0, 1]]),
            "cycle(1->2->3)": np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
            "shear(x1->x1+x2)": np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        }
        raw += [(_elem_matrix(A, p), name) for name, A in mats.items()]
    elif family is Family.HEISENBERG:
        mats = {
            f"diag({g},1)": np.array([[g, 0], [0, 1]]),
            "swap": np.array([[0, 1], [1, 0]]),
            "shear(A->A*B)": np.array([[1, 1], [0, 1]]),
        }
        raw += [(_heis_matrix(M, p), name) for name, M in mats.items()]
    elif family is Family.P2XP:
        g2 = primitive_root(p**2)
        params = [(g2, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 0, 0, g)]
        raw += [
            (_p2xp_matrix(i, j, k, l, p), f"rho(i={i},j={j},k={k},l={l})")
            for (i, j, k, l) in params
        ]
    gens = []
    for mat, name in raw:
        if not _well_defined(mat, model.moduli):
            raise AssertionError(f"action matrix for {name} not well defined on mixed moduli")
        gen = ActionGenerator(model, _reduce_rows(mat, model.moduli), name)
        if not gen.is_invertible():
            raise AssertionError(f"action matrix for {name} not invertible")
        gens.append(gen)
    return tuple(gens)


# ---------------------------------------------------------------------------
# pushing brute-force automorphisms into the models (used for cross-checks)


def push_automorphism(sigma: GroupMorphism, model: H4Model) -> ActionGenerator:
    """Model matrix induced by a group automorphism found by brute force."""
    G = sigma.source
    if G.family is not model.family or G.p != model.p:
        raise ValueError("automorphism and model belong to different groups")
    p = G.p
    exps = G.exps

    def img_exps(label):
        return tuple(int(v) for v in exps[sigma(G.gen_names[label])])

    if model.family is Family.CYCLIC:
        (i,) = img_exps("x")
        mat = np.array([[i * i]], dtype=np.int64)
    elif model.family is Family.GP:
        i, _ = img_exps("b")
        mat = np.array([[i * i, 0], [0, 1]], dtype=np.int64)
    elif model.family is Family.P2XP:
        i, j = img_exps("x")
        c, l = img_exps("y")
        if c % p:
            raise AssertionError("image of the order-p generator must land in p * Z/p^2")
        mat = _p2xp_matrix(i, j, c // p, l, p)
    elif model.family is Family.ELEM_ABELIAN:
        A = np.array([img_exps(f"x{i}") for i in (1, 2, 3)], dtype=np.int64)
        mat = _elem_matrix(A, p)
    elif model.family is Family.HEISENBERG:
        a, b, _ = img_exps("A")
        c, d, _ = img_exps("B")
        mat = _heis_matrix(np.array([[a, b], [c, d]], dtype=np.int64), p)
    else:
        raise ValueError(model.family)
    return ActionGenerator(model, _reduce_rows(mat, model.moduli), "pushed automorphism")


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


# ---------------------------------------------------------------------------
# symbolic cross-checks against the graded-ring engine


def _ring_and_basis(family: Family, p: int):
    """Ring presentation plus basis monomials for the families' H^4 classes."""
    if family is Family.ELEM_ABELIAN:
        R = gr.exterior_bockstein_ring(3, p)
        y = [R.gen(f"y{i}") for i in (1, 2, 3)]
        beta = gr.bockstein(R.gen("x1") * R.gen("x2") * R.gen("x3"))
        basis = [y[0] * y[0], y[1] * y[1], y[2] * y[2], y[0] * y[1], y[0] * y[2], y[1] * y[2], beta]
        return R, basis
    if family is Family.HEISENBERG:
        R = gr.heisenberg_base_ring(p)
        z1, z2, t = R.gen("z1"), R.gen("z2"), R.gen("t")
        chi = t * R.gen("w1") * R.gen("w2")
        return R, [chi, z1 * z1, z2 * z2, z1 * z2]
    if family is Family.P2XP:
        R = gr.kunneth_uv_ring(p)
        u, v = R.gen("u"), R.gen("v")
        return R, [v * v, u * v, u * u]
    if family is Family.CYCLIC:
        R = gr.cyclic_s_ring(p)
        s = R.gen("s")
        return R, [s * s]
    if family is Family.GP:
        R = gr.r_gamma_ring(p)
        r, gam = R.gen("r"), R.gen("gam")
        return R, [p * (r * r), gam * gam]
    raise ValueError(family)


def _coords_in_basis(family: Family, el, p: int) -> list[int]:
    """Express a degree-4 ring element in the model basis; error if outside it."""
    if family is Family.ELEM_ABELIAN:
        c_beta = el.coefficient("x2", "x3", "y1")
        ring = el.ring
        beta = gr.bockstein(ring.gen("x1") * ring.gen("x2") * ring.gen("x3"))
        rest = el - c_beta * beta
        pairs = [("y1", "y1"), ("y2", "y2"), ("y3", "y3"), ("y1", "y2"), ("y1", "y3"), ("y2", "y3")]
        coords = [rest.coefficient(a, b) for a, b in pairs] + [c_beta]
        check = ring.zero()
        for c, mon in zip(coords[:6], pairs):
            check = check + c * ring.monomial(*mon)
        if rest != check:
            raise AssertionError(f"element {el!r} not in the model span")
        return [c % p for c in coords]
    if family is Family.HEISENBERG:
        coords = [
            el.coefficient("w1", "w2", "t"),
            el.coefficient("z1", "z1"),
            el.coefficient("z2", "z2"),
            el.coefficient("z1", "z2"),
        ]
        ring = el.ring
        chk = (
            coords[0] * (ring.gen("t") * ring.gen("w1") * ring.gen("w2"))
            + coords[1] * ring.monomial("z1", "z1")
            + coords[2] * ring.monomial("z2", "z2")
            + coords[3] * ring.monomial("z1", "z2")
        )
        if chk != el:
            raise AssertionError(f"element {el!r} not in the model span")
        return [c % p for c in coords]
    if family is Family.P2XP:
        coords = [el.coefficient("v", "v"), el.coefficient("u", "v"), el.coefficient("u", "u")]
        return [coords[0] % (p * p), coords[1] % p, coords[2] % p]
    if family is Family.CYCLIC:
        return [el.coefficient("s", "s") % p**3]
    if family is Family.GP:
        c_rr = el.coefficient("r", "r") % (p * p)
        if c_rr % p:
            raise AssertionError("r^2 coefficient not a multiple of p")
        if el.coefficient("r", "gam"):
            raise AssertionError("stray r*gam term")
        return [c_rr // p, el.coefficient("gam", "gam") % p]
    raise ValueError(family)


def _ring_images(family: Family, p: int, provenance: str, ring) -> dict:
    """Generator images of the pullback matching an action generator's provenance."""
    g = primitive_root(p)
    if family is Family.CYCLIC:
        g3 = primitive_root(p**3)
        return {"s": g3 * ring.gen("s")}
    if family is Family.GP:
        return {"r": g * ring.gen("r")}
    if family is Family.P2XP:
        params = provenance[provenance.index("(") + 1 : -1]
        vals = dict(kv.split("=") for kv in params.split(","))
        i, j, k, l = (int(vals[key]) for key in ("i", "j", "k", "l"))
        u, v = ring.gen("u"), ring.gen("v")
        return {"u": l * u + (p * j) * v, "v": k * u + i * v}
    # matrix families: recover the 2x2 / 3x3 parameter matrix from the name
    if family is Family.HEISENBERG:
        mats = {
            f"diag({g},1)": [[g, 0], [0, 1]],
            "swap": [[0, 1], [1, 0]],
            "shear(A->A*B)": [[1, 1], [0, 1]],
        }
        a, b = mats[provenance][0]
        c, d = mats[provenance][1]
        det = (a * d - b * c) % p
        w1, w2, z1, z2, t = (ring.gen(x) for x in ("w1", "w2", "z1", "z2", "t"))
        return {
            "w1": a * w1 + c * w2,
            "w2": b * w1 + d * w2,
            "z1": a * z1 + c * z2,
            "z2": b * z1 + d * z2,
            "t": det * t,
        }
    if family is Family.ELEM_ABELIAN:
        mats = {
            f"diag({g},1,1)": [[g, 0, 0], [0, 1, 0], [0, 0, 1]],
            "cycle(1->2->3)": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            "shear(x1->x1+x2)": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        }
        A = mats[provenance]
        images = {}
        for i in (1, 2, 3):
            images[f"x{i}"] = sum(
                (A[i - 1][j] * ring.gen(f"x{j + 1}") for j in range(3)), ring.zero()
            )
            images[f"y{i}"] = sum(
                (A[i - 1][j] * ring.gen(f"y{j + 1}") for j in range(3)), ring.zero()
            )
        return images
    raise ValueError(family)


def cross_check_actions(family: Family, p: int) -> list[CheckResult]:
    """Compare every action-generator matrix against the symbolic pullback."""
    family = Family(family)
    model = h4_model(family, p)
    ring, basis = _ring_and_basis(family, p)
    checks = []
    for gen in action_generators(family, p):
        images = _ring_images(family, p, gen.provenance, ring)
        pullback = gr.ring_map(ring, images)
        cols = []
        for el in basis:
            cols.append(_coords_in_basis(family, pullback(el), p))
        symbolic = tuple(
            tuple(cols[j][i] % model.moduli[i] for j in range(len(basis)))
            for i in range(len(basis))
        )
        ok = symbolic == gen.matrix
        checks.append(
            CheckResult(
                f"action.{family.value}.p{p}.{gen.provenance}",
                ok,
                "matrix equals symbolic pullback" if ok else f"{symbolic} != {gen.matrix}",
            )
        )
    return checks
