import itertools
import random

import numpy as np
import pytest

from pcubed import h4_models
from pcubed.groups import FAMILIES, Family, build_group, enumerate_automorphisms
from pcubed.h4_models import (
    _coords_in_basis,
    _dets_mod,
    _model_matrix,
    _ring_and_basis,
    _well_defined,
    action_generators,
    aut_generators,
    cross_check_actions,
    h4_model,
    pullbacks,
    push_automorphism,
    scalar_action,
)
from pcubed.modular import is_automorphism, primitive_root, rank_and_det_mod, units
from pcubed.quadforms import QuadForm, congruence_invariant

from oracles import matrix_group_closure

TOTALS = {
    Family.CYCLIC: lambda p: p**3,
    Family.P2XP: lambda p: p**4,
    Family.ELEM_ABELIAN: lambda p: p**7,
    Family.HEISENBERG: lambda p: p**4,
    Family.GP: lambda p: p**2,
}


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_model_shapes(fam, p):
    model = h4_model(fam, p)
    assert model.total_order == TOTALS[fam](p)
    assert all(m % p == 0 for m in model.moduli)
    z = model.cls((0,) * len(model.basis))
    assert z.label() == "0"
    assert model.decode(model.encode((1,) + (0,) * (len(model.basis) - 1))) == (1,) + (0,) * (
        len(model.basis) - 1
    )


def test_p2xp_moduli_and_heisenberg_basis():
    m = h4_model(Family.P2XP, 3)
    assert m.moduli == (9, 3, 3)
    h = h4_model(Family.HEISENBERG, 5)
    assert h.basis == ("chi", "z1^2", "z2^2", "z1z2")
    assert h.moduli == (5, 5, 5, 5)
    g = h4_model(Family.GP, 3)
    assert g.total_order == 9


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_generators_invertible_and_well_defined(fam, p):
    moduli = h4_model(fam, p).moduli
    for matrix in action_generators(fam, p):
        assert is_automorphism(matrix, moduli)
        assert _well_defined(np.array(matrix), moduli)


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_cross_check_against_symbolic_pullback(fam, p):
    checks = cross_check_actions(fam, p)
    failures = [c for c in checks if not c.ok]
    assert not failures, "\n".join(c.line() for c in failures)


@pytest.mark.parametrize(
    "fam, name",
    [(Family.HEISENBERG, "swap"), (Family.P2XP, "rho(i=1,j=0,k=1,l=1)"), (Family.ELEM_ABELIAN, "cycle(1->2->3)")],
)
def test_cross_check_fails_exactly_the_generator_whose_matrix_is_off(monkeypatch, fam, name):
    # the symbolic side is derived from the record, never from the matrix
    p = 3
    target = next(rec for rec in aut_generators(fam, p) if rec.name == name)
    build = h4_models._model_matrix

    def off_by_one(family, params, p):
        mat = build(family, params, p)
        if family is fam:
            mat[[np.array_equal(row, target.params) for row in params], 0, 0] += 1
        return mat

    monkeypatch.setattr(h4_models, "_model_matrix", off_by_one)
    action_generators.cache_clear()
    try:
        failed = [c.name for c in cross_check_actions(fam, p) if not c.ok]
    finally:
        action_generators.cache_clear()
    assert failed == [f"action.{fam.value}.p{p}.{name}"]


def test_a_failing_cross_check_prints_both_matrices(monkeypatch):
    p = 3
    fam = Family.HEISENBERG
    symbolic = action_generators(fam, p)[1]  # the swap, as the pullback reads it
    build = h4_models._model_matrix

    def off_by_one(family, params, p):
        mat = build(family, params, p)
        if family is fam:
            mat[[np.array_equal(row, aut_generators(fam, p)[1].params) for row in params], 0, 0] += 1
        return mat

    monkeypatch.setattr(h4_models, "_model_matrix", off_by_one)
    off = ((symbolic[0][0] + 1,) + symbolic[0][1:],) + symbolic[1:]
    [failed] = [c for c in cross_check_actions(fam, p) if not c.ok]
    assert failed.detail == f"{symbolic} != {off}"


def _random_combination(fam, p, rng):
    ring, basis = _ring_and_basis(fam, p)
    coords = [rng.randrange(m) for m in h4_model(fam, p).moduli]
    return coords, sum((c * el for c, el in zip(coords, basis)), ring.zero())


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("p", [3, 5])
def test_basis_reader_round_trips(fam, p):
    rng = random.Random(p)
    ring, basis = _ring_and_basis(fam, p)
    draws = [_random_combination(fam, p, rng) for _ in range(50)]
    for coords, el in draws:
        assert _coords_in_basis(el, basis) == coords
    # the same draws as one batch of 50 rows
    columns = np.array([coords for coords, _ in draws]).T
    batch = sum((c * cls for c, cls in zip(columns, basis)), ring.zero())
    assert all((got == want).all() for got, want in zip(_coords_in_basis(batch, basis), columns))


@pytest.mark.parametrize(
    "fam, stray",
    [
        (Family.GP, ("r", "r")),
        (Family.GP, ("r", "gam")),
        (Family.ELEM_ABELIAN, ("x1", "x2", "y3")),
        (Family.HEISENBERG, ("t", "t")),
    ],
)
@pytest.mark.parametrize("p", [3, 5])
def test_basis_reader_rejects_elements_outside_the_span(fam, stray, p):
    # r^2 alone is not p*r^2, and x1x2y3 is one of the three terms of b(x1x2x3);
    # a batch is refused when a single one of its rows strays
    ring, basis = _ring_and_basis(fam, p)
    _, el = _random_combination(fam, p, random.Random(p))
    stray_on_one_row = np.eye(6, dtype=np.int64)[4] * ring.element({stray: 1})
    for candidate in (ring.element({stray: 1}), el + ring.element({stray: 1}), el + stray_on_one_row):
        with pytest.raises(AssertionError, match="not in the model span"):
            _coords_in_basis(candidate, basis)


def _gl(n, p):
    """Every invertible n x n matrix mod p, as an (N, n, n) stack."""
    mats = np.array(list(itertools.product(range(p), repeat=n * n)), dtype=np.int64).reshape(-1, n, n)
    return mats[np.rint(np.linalg.det(mats)).astype(np.int64) % p != 0]


def test_every_pullback_agrees_on_whole_parameter_sets():
    # the full sets verify samples or leaves out: all of GL(3, 3) (verify checks
    # three det twists), every rho tuple at p = 7 (verify strides 3087 of them),
    # all of GL(2, 7), and every unit mod 7^3 and mod 7^2
    p = 7
    sets = {
        (Family.ELEM_ABELIAN, 3): _gl(3, 3),
        (Family.P2XP, p): [(i, j, k, l) for i in units(p * p) for j in range(p) for k in range(p) for l in units(p)],
        (Family.HEISENBERG, p): _gl(2, p),
        (Family.CYCLIC, p): units(p**3),
        (Family.GP, p): units(p**2),
    }
    sizes = {fam: len(params) for (fam, _), params in sets.items()}
    assert sizes == {Family.ELEM_ABELIAN: 11232, Family.P2XP: 12348, Family.HEISENBERG: 2016,
                     Family.CYCLIC: 294, Family.GP: 42}
    for (fam, q), params in sets.items():
        agree = pullbacks(fam, q, params).agree
        assert agree.shape == (len(params), len(h4_model(fam, q).basis))
        assert agree.all(), (fam, np.argwhere(~agree)[:3])


def _group_images(family, params, p):
    """Exponent vectors of the generator images that a record's parameters name."""
    if family is Family.CYCLIC:
        return {"x": (params,)}
    if family is Family.GP:
        return {"b": (params, 0), "a": (0, 1)}
    if family is Family.P2XP:
        i, j, k, l = params
        return {"x": (i, j), "y": (p * k, l)}
    if family is Family.ELEM_ABELIAN:
        return {f"x{r + 1}": tuple(row) for r, row in enumerate(params)}
    (a, b), (c, d) = params
    return {"A": (a, b, 0), "B": (c, d, 0)}


# at p = 5, g**2 != 1, so diag(g,1) and diag(1,g) push to different matrices
@pytest.mark.parametrize(
    "fam, p", [(fam, 3) for fam in FAMILIES] + [(fam, 5) for fam in FAMILIES if fam is not Family.ELEM_ABELIAN]
)
def test_each_record_pushes_to_its_action_generator(fam, p):
    G = build_group(fam, p)
    model = h4_model(fam, p)
    auts = enumerate_automorphisms(G)
    for rec, matrix in zip(aut_generators(fam, p), action_generators(fam, p), strict=True):
        images = _group_images(fam, rec.params, p)
        [sigma] = [
            s for s in auts
            if all(tuple(int(v) for v in G.exps[s[G.gen_names[label]]]) == e for label, e in images.items())
        ]
        assert push_automorphism(sigma, model) == matrix, rec.name


def _apply(matrix, cls):
    """The class a model matrix sends ``cls`` to."""
    return cls.model.cls(tuple(int(v) for v in np.array(matrix, dtype=np.int64) @ cls.coeffs))


def test_heisenberg_diag_action_columns():
    # M = diag(g, 1): z1^2 -> g^2 z1^2, z1z2 -> g z1z2, chi -> g^2 chi
    p = 5
    g = 2
    model = h4_model(Family.HEISENBERG, p)
    names = [rec.name for rec in aut_generators(Family.HEISENBERG, p)]
    matrix = action_generators(Family.HEISENBERG, p)[names.index(f"diag({g},1)")]
    chi_col = [row[0] for row in matrix]
    assert chi_col == [g * g % p, 0, 0, 0]
    z1sq = _apply(matrix, model.cls((0, 1, 0, 0)))
    assert z1sq.coeffs == (0, g * g % p, 0, 0)
    z1z2 = _apply(matrix, model.cls((0, 0, 0, 1)))
    assert z1z2.coeffs == (0, 0, 0, g % p)


def test_p2xp_rho_on_v_squared():
    # column of v^2 under rho(i,j,k,l) is (i^2, 2ik, k^2)
    p = 3
    for (i, j, k, l) in [(2, 1, 2, 1), (4, 0, 1, 2), (1, 2, 0, 1)]:
        mat = _model_matrix(Family.P2XP, (i, j, k, l), p)
        assert mat[0, 0] % (p * p) == i * i % (p * p)
        assert mat[1, 0] % p == 2 * i * k % p
        assert mat[2, 0] % p == k * k % p


def test_elem_swap_action():
    # transposition of the first two coordinates: y1y3 <-> y2y3, det twist -1
    p = 3
    A = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    mat = _model_matrix(Family.ELEM_ABELIAN, A, p)
    model = h4_model(Family.ELEM_ABELIAN, p)
    moved = _apply(mat, model.cls((0, 0, 0, 0, 1, 0, 0)))  # y1y3
    assert moved.coeffs == (0, 0, 0, 0, 0, 1, 0)  # y2y3
    beta = _apply(mat, model.cls((0, 0, 0, 0, 0, 0, 1)))
    assert beta.coeffs == (0, 0, 0, 0, 0, 0, p - 1)


def test_elem_diag_scaling_example():
    # fixing y1, y2 and sending y3 -> a y3 multiplies the triple product by a
    p = 5
    a = 3
    A = np.array([[1, 0, 0], [0, 1, 0], [0, 0, a]])
    mat = _model_matrix(Family.ELEM_ABELIAN, A, p)
    model = h4_model(Family.ELEM_ABELIAN, p)
    beta = _apply(mat, model.cls((0, 0, 0, 0, 0, 0, 1)))
    assert beta.coeffs[6] == a % p
    y3sq = _apply(mat, model.cls((0, 0, 1, 0, 0, 0, 0)))
    assert y3sq.coeffs[2] == a * a % p


def test_quadratic_block_matches_congruence_action():
    # pushing a class through the model equals the A^T C A action on forms
    rng = random.Random(5)
    p = 5
    model = h4_model(Family.ELEM_ABELIAN, p)
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    for _ in range(40):
        while True:
            A = np.array([[rng.randrange(p) for _ in range(3)] for _ in range(3)])
            if round(np.linalg.det(A)) % p:
                break
        coeffs = [rng.randrange(p) for _ in range(6)]
        cls = model.cls(tuple(coeffs) + (0,))
        mat = _model_matrix(Family.ELEM_ABELIAN, A, p)
        moved = _apply(mat, cls)
        q = QuadForm.from_poly(3, p, {pair: c for pair, c in zip(pairs, coeffs)})
        qa = QuadForm.from_matrix((A.T @ np.array(q.matrix) @ A) % p, p)
        expect = QuadForm.from_poly(3, p, {pair: c for pair, c in zip(pairs, moved.coeffs[:6])})
        assert qa == expect
        assert congruence_invariant(q) == congruence_invariant(qa)


def test_rejects_ill_defined_matrix():
    model = h4_model(Family.P2XP, 3)
    bad = np.zeros((3, 3), dtype=np.int64)
    bad[0, 1] = 1  # sends a mod-p coordinate into the mod-p^2 one
    assert not _well_defined(bad, model.moduli)


def test_push_p2xp_and_cyclic_automorphisms():
    p = 3
    for fam in (Family.P2XP, Family.CYCLIC):
        model = h4_model(fam, p)
        G = build_group(fam, p)
        pushed = {push_automorphism(s, model) for s in enumerate_automorphisms(G)}
        generated = matrix_group_closure(action_generators(fam, p), model.moduli)
        assert pushed == generated


def test_json_round_trip():
    model = h4_model(Family.HEISENBERG, 3)
    cls = model.cls((1, 0, 2, 0))
    assert cls.label() == "chi + 2*z2^2"


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [2, 3])
def test_cofactor_determinants_match_elimination(n, p):
    rng = np.random.default_rng(1000 * n + p)
    # unreduced entries, negative ones included, then a third of the stack
    # made singular mod p: its last row a combination of the others mod p
    mats = rng.integers(-3 * p, 3 * p, size=(300, n, n))
    coeffs = rng.integers(0, p, size=(100, n - 1))
    mats[:100, -1] = np.einsum("bi,bij->bj", coeffs, mats[:100, :-1]) + p * rng.integers(-2, 3, size=(100, n))
    expected = [rank_and_det_mod(m, p)[1] for m in mats.tolist()]
    assert expected.count(0) >= 100
    assert _dets_mod(mats, p).tolist() == expected
    assert _dets_mod(mats.reshape(3, 100, n, n), p).tolist() == np.reshape(expected, (3, 100)).tolist()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_scalar_action_is_the_pullback_of_g_times_the_identity(p):
    # g I_3 multiplies each quadratic class by g^2 and beta by det = g^3, equal
    # to its symbolic pullback and central among the generators
    g = primitive_root(p)
    mat = np.array(scalar_action(p))
    assert np.array_equal(mat, np.diag([g * g % p] * 6 + [g**3 % p]))
    pb = pullbacks(Family.ELEM_ABELIAN, p, [g * np.eye(3, dtype=np.int64)])
    assert pb.agree.all() and np.array_equal(pb.model[0], mat)
    for gen in map(np.array, action_generators(Family.ELEM_ABELIAN, p)):
        assert np.array_equal(mat @ gen % p, gen @ mat % p)
