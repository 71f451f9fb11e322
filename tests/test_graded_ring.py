import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcubed import graded_ring, h4_models
from pcubed.graded_ring import (
    GradedElement,
    Generator,
    RingPresentation,
    bockstein,
    cyclic_s_ring,
    derivation,
    exterior_bockstein_ring,
    kunneth_uv_ring,
    r_gamma_ring,
    rank2_extension_ring,
    ring_map,
    verify_identity_suite,
)
from pcubed.groups import Family


@pytest.fixture
def ext3():
    return exterior_bockstein_ring(3, 3)


def test_koszul_sign(ext3):
    x1, x2 = ext3.gen("x1"), ext3.gen("x2")
    assert x1 * x2 == ext3.element({("x1", "x2"): 1})
    assert x2 * x1 == ext3.element({("x1", "x2"): -1})
    assert (x1 * x1).is_zero()


def test_even_generators_commute(ext3):
    y1, y2 = ext3.gen("y1"), ext3.gen("y2")
    assert y1 * y2 == y2 * y1
    assert not (y1 * y1).is_zero()


def test_quadratic_product_expansion():
    # (a z1 + c z2)(b z1 + d z2) = ab z1^2 + (ad + bc) z1 z2 + cd z2^2
    R = rank2_extension_ring(5, "w", "z", "t")
    z1, z2 = R.gen("z1"), R.gen("z2")
    a, b, c, d = 2, 3, 4, 1
    lhs = (a * z1 + c * z2) * (b * z1 + d * z2)
    rhs = (a * b) * (z1 * z1) + (a * d + b * c) * (z1 * z2) + (c * d) * (z2 * z2)
    assert lhs == rhs


def test_mixed_torsion_square():
    # (k u + i v)^2 = k^2 u^2 + 2ik uv + i^2 v^2 with the uv coefficient mod p
    p = 3
    R = kunneth_uv_ring(p)
    u, v = R.gen("u"), R.gen("v")
    k, i = 2, 4
    sq = (k * u + i * v) * (k * u + i * v)
    assert sq.terms.get(("u", "u"), 0) == k * k % p
    assert sq.terms.get(("u", "v"), 0) == 2 * i * k % p
    assert sq.terms.get(("v", "v"), 0) == i * i % (p * p)


def test_bockstein_three_term_expansion(ext3):
    # independent oracle: the signed three-term sum, assembled by hand
    x1, x2, x3 = (ext3.gen(f"x{i}") for i in (1, 2, 3))
    y1, y2, y3 = (ext3.gen(f"y{i}") for i in (1, 2, 3))
    expected = y1 * x2 * x3 - x1 * y2 * x3 + x1 * x2 * y3
    assert bockstein(x1 * x2 * x3) == expected
    assert bockstein(x2 * x3) == y2 * x3 - x2 * y3


def test_bockstein_squares_to_zero_on_random_elements():
    rng = random.Random(41)
    R = exterior_bockstein_ring(3, 5)
    labels = [g.label for g in R.gens]
    for _ in range(80):
        el = R.zero()
        for _ in range(rng.randrange(1, 5)):
            mon = tuple(rng.choice(labels) for _ in range(rng.randrange(1, 4)))
            el = el + R.element({mon: rng.randrange(1, 5)})
        assert bockstein(bockstein(el)).is_zero()


def _random_homogeneous(R, degree, rng):
    by_degree = {}
    labels = [g.label for g in R.gens]
    for a in labels:
        for b in labels:
            mon = R.sort_with_sign((a, b))
            if mon is None:
                continue
            d = R.degree(a) + R.degree(b)
            by_degree.setdefault(d, set()).add(mon[0])
    for a in labels:
        by_degree.setdefault(R.degree(a), set()).add((a,))
    pool = sorted(by_degree.get(degree, set()))
    el = R.zero()
    if not pool:
        return el
    for _ in range(rng.randrange(1, 4)):
        el = el + R.element({rng.choice(pool): rng.randrange(1, R.p)})
    return el


def test_graded_commutativity_property():
    rng = random.Random(17)
    R = exterior_bockstein_ring(3, 3)
    for _ in range(100):
        da, db = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        a = _random_homogeneous(R, da, rng)
        b = _random_homogeneous(R, db, rng)
        sign = -1 if (da % 2 and db % 2) else 1
        assert a * b == sign * (b * a)


def test_associativity_property():
    rng = random.Random(19)
    R = exterior_bockstein_ring(3, 5)
    for _ in range(80):
        a = _random_homogeneous(R, rng.choice([1, 2]), rng)
        b = _random_homogeneous(R, rng.choice([1, 2]), rng)
        c = _random_homogeneous(R, rng.choice([1, 2]), rng)
        assert (a * b) * c == a * (b * c)


def test_derivation_leibniz_property():
    rng = random.Random(23)
    R = exterior_bockstein_ring(3, 5)
    beta = R.bockstein
    for _ in range(100):
        da, db = rng.choice([1, 2]), rng.choice([1, 2, 3])
        a = _random_homogeneous(R, da, rng)
        b = _random_homogeneous(R, db, rng)
        lhs = beta(a * b)
        sign = -1 if da % 2 else 1
        rhs = beta(a) * b + sign * (a * beta(b))
        assert lhs == rhs


def test_ring_map_multiplicative():
    rng = random.Random(29)
    R = exterior_bockstein_ring(3, 3)
    x = {i: R.gen(f"x{i}") for i in (1, 2, 3)}
    y = {i: R.gen(f"y{i}") for i in (1, 2, 3)}
    m = ring_map(
        R,
        {
            "x1": x[1] + 2 * x[2],
            "y1": y[1] + 2 * y[2],
            "x2": x[3],
            "y2": y[3],
            "x3": x[1],
            "y3": y[1],
        },
    )
    for _ in range(60):
        a = _random_homogeneous(R, rng.choice([1, 2]), rng)
        b = _random_homogeneous(R, rng.choice([1, 2]), rng)
        assert m(a * b) == m(a) * m(b)


def test_apply_map_examples():
    p = 3
    E = exterior_bockstein_ring(3, p)
    y1, y3 = E.gen("y1"), E.gen("y3")
    d2 = derivation(E, {"x2": y1})
    assert d2(bockstein(E.gen("x2") * E.gen("x3"))) == -1 * (y1 * y3)

    H = rank2_extension_ring(p, "w", "z", "t")
    t = H.gen("t")
    m = ring_map(H, {"t": 2 * t})  # det(M) = 2
    assert m(t) == 2 * t

    ident = ring_map(E, {})
    el = y1 * y3 + 2 * bockstein(E.gen("x1") * E.gen("x2"))
    assert ident(el) == el


def test_map_validation():
    R = kunneth_uv_ring(3)
    u, v = R.gen("u"), R.gen("v")
    with pytest.raises(ValueError):
        ring_map(R, {"u": v})  # order p image would need order <= p
    with pytest.raises(ValueError):
        ring_map(R, {"u": np.array([0, 0, 1], dtype=np.int64) * v})  # a batch is checked on every row
    ring_map(R, {"u": np.array([0, 3, 6], dtype=np.int64) * v + u})  # p*v has order p on every row
    R2 = exterior_bockstein_ring(2, 3)
    with pytest.raises(ValueError):
        ring_map(R2, {"x1": R2.gen("y1")})  # degree mismatch
    with pytest.raises(ValueError):
        derivation(R2, {"x1": R2.gen("x2")})


def test_torsion_reduction_kills_cross_terms():
    # tau: gam -> gam + p r fixes gam^2: 2p r gam and p^2 r^2 both vanish
    p = 5
    R = r_gamma_ring(p)
    r, gam = R.gen("r"), R.gen("gam")
    tau = ring_map(R, {"gam": gam + p * r})
    assert tau(gam * gam) == gam * gam
    assert ((p * p) * (r * r)).is_zero()
    assert ((2 * p) * (r * gam)).is_zero()


def test_cyclic_ring_orders():
    R = cyclic_s_ring(3)
    s = R.gen("s")
    assert not (26 * (s * s)).is_zero()
    assert (27 * (s * s)).is_zero()


def test_identity_suite_flags_a_model_matrix_off_at_one_rho(monkeypatch):
    # rho(1,1,1,1) is no Aut(G) generator, so only the parameter sweep reaches it
    build = h4_models._model_matrix

    def off_by_one(family, params, p):
        mat = build(family, params, p)
        if family is Family.P2XP:
            mat[[np.array_equal(row, (1, 1, 1, 1)) for row in params], 1, 1] += 1  # the uv column
        return mat

    monkeypatch.setattr(h4_models, "_model_matrix", off_by_one)
    failed = [(c.name, c.detail) for c in verify_identity_suite(3) if not c.ok]
    assert failed == [("product_group.pullback.uv", "first failure at (i,j,k,l)=(1, 1, 1, 1)")]


def test_identity_suite_flags_a_z_image_that_is_not_beta_of_its_w_image(monkeypatch):
    # doubling z1's image keeps the map a ring map, but beta(w1) = z1 no longer pulls back
    images = h4_models._ring_images

    def doubled_z1(family, params, p):
        out = images(family, params, p)
        if family is Family.HEISENBERG:
            out["z1"] = 2 * out["z1"]
        return out

    monkeypatch.setattr(h4_models, "_ring_images", doubled_z1)
    failed = {c.name for c in verify_identity_suite(3) if not c.ok}
    assert "heisenberg.pullback.commutes_with_bockstein" in failed
    assert all(name.startswith("heisenberg.pullback.") for name in failed)


def test_identity_suite_names_are_unique():
    names = [c.name for c in verify_identity_suite(3)]
    assert len(names) == len(set(names))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        RingPresentation([Generator("a", 1, 3), Generator("a", 2, 3)], 3)


def test_identity_suite_builds_the_same_number_of_ring_maps_at_every_p(monkeypatch):
    # one batched ring map per parameter sweep: a return to one map per tuple
    # would make the count grow with p
    build = graded_ring.ring_map
    calls = []

    def counting(ring, images):
        calls.append(ring)
        return build(ring, images)

    monkeypatch.setattr(graded_ring, "ring_map", counting)
    counts = {}
    for p in (3, 5, 7):
        calls.clear()
        verify_identity_suite(p)
        counts[p] = len(calls)
    assert len(set(counts.values())) == 1, counts


def test_the_identity_suite_never_holds_a_whole_sweep(peak_rss_growth):
    # at p = 17 the Z/p^2 x Z/p sweep has 17**3 * 16**2 tuples, over 100 MiB as a
    # list, of which the stride sample keeps 3993
    growth = peak_rss_growth(
        "from pcubed.graded_ring import verify_identity_suite",
        "assert all(check.ok for check in verify_identity_suite(17))",
    )
    assert growth < 24 * 2**20, f"{growth / 2**20:.1f} MiB"


# -- batches: an element whose coefficients are arrays over B rows ------------


def _monomials_by_degree(R):
    """Sorted monomials of one to three labels, keyed by degree."""
    out = {}
    labels = [g.label for g in R.gens]
    for k in (1, 2, 3):
        for labs in itertools.combinations_with_replacement(labels, k):
            norm = R.sort_with_sign(labs)
            if norm is not None:
                out.setdefault(sum(R.degree(l) for l in labs), set()).add(norm[0])
    return {d: sorted(mons) for d, mons in out.items()}


def _row(el, r):
    """Row r of a batch element, as a scalar element."""
    return GradedElement(el.ring, {mon: int(c[r] if np.ndim(c) else c) for mon, c in el.terms.items()})


RINGS = [
    exterior_bockstein_ring(3, 3),
    exterior_bockstein_ring(3, 5),
    rank2_extension_ring(3, "w", "z", "t"),
    rank2_extension_ring(5, "x", "y", "y3"),
]


@st.composite
def _batch_elements(draw, R, B, degree=None):
    """A batch element of B rows: a few monomials (of one degree, if given)
    with independent coefficients per row, zero rows included."""
    by_degree = _monomials_by_degree(R)
    pool = by_degree[degree] if degree is not None else sorted(m for ms in by_degree.values() for m in ms)
    mons = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    coeff = st.lists(st.integers(-2 * R.p, 2 * R.p), min_size=B, max_size=B)
    return R.element({mon: np.array(draw(coeff), dtype=np.int64) for mon in mons})


@st.composite
def _ring_and_batches(draw, count):
    R = draw(st.sampled_from(RINGS))
    B = draw(st.integers(1, 4))
    return R, B, [draw(_batch_elements(R, B)) for _ in range(count)]


def _assert_rowwise(batch_result, scalar_results):
    for r, want in enumerate(scalar_results):
        assert _row(batch_result, r) == want
    assert batch_result.is_zero() == all(w.is_zero() for w in scalar_results)


@settings(max_examples=60, deadline=None)
@given(_ring_and_batches(2), st.data())
def test_batch_arithmetic_is_rowwise(drawn, data):
    R, B, (a, b) = drawn
    k = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=B, max_size=B)), dtype=np.int64)
    rows = range(B)
    _assert_rowwise(a + b, [_row(a, r) + _row(b, r) for r in rows])
    _assert_rowwise(a - b, [_row(a, r) - _row(b, r) for r in rows])
    _assert_rowwise(a * b, [_row(a, r) * _row(b, r) for r in rows])
    _assert_rowwise(3 * a, [3 * _row(a, r) for r in rows])
    _assert_rowwise(k * a, [int(k[r]) * _row(a, r) for r in rows])
    _assert_rowwise(a * 3, [_row(a, r) * 3 for r in rows])
    assert (a == b) == all(_row(a, r) == _row(b, r) for r in rows)


@settings(max_examples=40, deadline=None)
@given(_ring_and_batches(1), st.data())
def test_batch_derivations_are_rowwise(drawn, data):
    R, B, (a,) = drawn
    _assert_rowwise(bockstein(a), [bockstein(_row(a, r)) for r in range(B)])
    # a derivation whose images are batches: its row r is the derivation built from the images' rows r
    images = {g.label: data.draw(_batch_elements(R, B, g.degree + 1)) for g in R.gens}
    batch = derivation(R, images)
    _assert_rowwise(batch(a), [
        derivation(R, {l: _row(img, r) for l, img in images.items()})(_row(a, r)) for r in range(B)
    ])


@settings(max_examples=40, deadline=None)
@given(_ring_and_batches(2), st.data())
def test_batch_ring_maps_are_rowwise(drawn, data):
    R, B, (a, b) = drawn
    images = {g.label: data.draw(_batch_elements(R, B, g.degree)) for g in R.gens}
    batch = ring_map(R, images)
    rows = [ring_map(R, {l: _row(img, r) for l, img in images.items()}) for r in range(B)]
    _assert_rowwise(batch(a), [m(_row(a, r)) for r, m in enumerate(rows)])
    _assert_rowwise(batch(a * b), [m(_row(a, r) * _row(b, r)) for r, m in enumerate(rows)])


def test_batch_equality_and_zero_hold_on_every_row():
    R = exterior_bockstein_ring(3, 3)
    y1 = R.gen("y1")
    one_row = np.array([0, 1, 0], dtype=np.int64) * y1
    assert not one_row.is_zero()
    assert one_row != R.zero()
    assert one_row != y1
    assert (np.array([3, 6, -3], dtype=np.int64) * y1).is_zero()  # order 3 on every row
    assert np.array([1, 1, 1], dtype=np.int64) * y1 == y1  # a scalar is every row
    assert np.array([1, 4, -2], dtype=np.int64) * y1 == y1


def test_elements_do_not_hash():
    R = exterior_bockstein_ring(3, 3)
    with pytest.raises(TypeError):
        hash(R.gen("x1"))
