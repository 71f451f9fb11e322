import hashlib
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcubed import orbits, published, quadforms
from pcubed.groups import FAMILIES, Family
from pcubed.h4_models import action_generators, h4_model, scalar_action
from pcubed.modular import is_prime, primitive_root, radix_weights
from pcubed.orbits import enumerate_orbit_ids, enumerate_orbits, orbit_rows
from pcubed.quadforms import congruence_action, count_congruence_classes

from oracles import ORBIT_COUNTS, least_members


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_orbit_counts(fam, p, indices_for):
    index = indices_for(p)[fam]
    assert len(index.orbits) == ORBIT_COUNTS[fam](p)
    assert published.orbit_count(fam, p) == ORBIT_COUNTS[fam](p)


@pytest.mark.parametrize("p", [3, 5])
def test_partition_property(p, indices_for):
    for fam in FAMILIES:
        index = indices_for(p)[fam]
        assert sum(o.size for o in index.orbits) == index.model.total_order


def test_zero_class_is_fixed(indices_for):
    for fam in FAMILIES:
        index = indices_for(3)[fam]
        orbit = index.orbit_of(index.model.cls((0,) * len(index.model.basis)))
        assert orbit.size == 1
        assert not any(orbit.rep.coeffs)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_named_orbit_sizes(p, indices_for):
    p2 = indices_for(p)[Family.P2XP]
    uv = p2.model.cls((0, 1, 0))
    assert p2.orbit_of(uv).size == p * p * (p - 1)
    u2 = p2.model.cls((0, 0, 1))
    assert p2.orbit_of(u2).size == (p - 1) // 2
    gp = indices_for(p)[Family.GP]
    gamma2 = gp.model.cls((0, 1))
    assert gp.orbit_of(gamma2).size == 1
    assert gp.orbit_of(gamma2).rep == gamma2


def test_representative_stability(indices_for):
    for fam in FAMILIES:
        index = indices_for(3)[fam]
        for oid, orbit in enumerate(index.orbits):
            for matrix in action_generators(fam, 3):
                moved = np.array(matrix) @ orbit.rep.coeffs
                assert int(index.ids(index.model.encode(moved))) == oid


def test_canonical_representative_is_lex_min(indices_for):
    # exhaustive check at p=3: the representative is the smallest encoded member
    for fam in FAMILIES:
        index = indices_for(3)[fam]
        model = index.model
        firsts = {}
        for state, oid in enumerate(index.ids(np.arange(model.total_order)).tolist()):
            firsts.setdefault(oid, state)
        for oid, orbit in enumerate(index.orbits):
            assert model.encode(orbit.rep.coeffs) == firsts[oid]


def test_determinism():
    model = h4_model(Family.HEISENBERG, 3)
    a = enumerate_orbits(model)
    b = enumerate_orbits(model)
    states = np.arange(model.total_order)
    assert np.array_equal(a.ids(states), b.ids(states))
    assert [(o.rep.coeffs, o.size) for o in a.orbits] == [(o.rep.coeffs, o.size) for o in b.orbits]


# sha256 of every state's orbit id as int32 bytes, in state order; they pin the
# orbit numbering.  The rows to p = 7 were written by the engine that still
# stored one id per state, the p = 11 row by the one that held every state of
# the uint8 table, before the table ended at the last canonical state
ORBIT_ID_DIGESTS = {
    3: {
        Family.CYCLIC: "4b087a28e4067e5d54c09a0685b657c2cbea21523ca196d1d11af7910217be9f",
        Family.P2XP: "88f64c64d42224599d2eb54db01285658b4b166e1724bc41a0f9f88fcc59de98",
        Family.ELEM_ABELIAN: "0a445030fd89a6e8ad8640ad5e41d7a0aad1580093314fc772ea1822d30349a0",
        Family.HEISENBERG: "fe64aa10d68a9bd43842be83cb6fbd5b9cb678ed02ced8b392ddf818451f4f0a",
        Family.GP: "921c803abfa6ac88f44f7ab19198e5c137d1c7183e8e6912757a6263e8dee0a5",
    },
    5: {
        Family.CYCLIC: "984c3f65747141e946de3eb836c2fae3b90e04b796fc65a4587c5c0137924255",
        Family.P2XP: "623264572f602ec3c6ab119ba63c0b8ee5bdbb775816c99cea23d20509c29306",
        Family.ELEM_ABELIAN: "6c01eafda35673b21da5470db2c5e73ce2252c252ef5fe6005d7f8aa214038e9",
        Family.HEISENBERG: "346fa59cfb82b562b3e0b034ffec0d08e9ae453efd0424f81c2ea579907d9132",
        Family.GP: "ee7ef7a38e003ba38c17778e808969687f61d07ff040dfb3b2abc64ccd6e9541",
    },
    7: {
        Family.CYCLIC: "e3d095e84682921a2a4b79c6f4a2c53d3ef2711092a35458723840357f47f5f5",
        Family.P2XP: "5a58e05ed105f48aaf8539850b82481a8cef91743dd64211b87323cce726914e",
        Family.ELEM_ABELIAN: "c2d93dbfaad2f5cda808488df44b70fb00ef30d4d1f5f4a58042fe87e59e9585",
        Family.HEISENBERG: "260232c5fd3654099834ae4a3e8b32da2fcd9efec84f66e6f9971b1f0508b825",
        Family.GP: "ec67d1d6e39728bf8ea2578eee76c561ba722de8684f9ee32e8f09ae441d13da",
    },
    11: {
        Family.CYCLIC: "971de840b31ef876e175e5b37d714316f4a9cda009f4735ddea154ed68d24edb",
        Family.P2XP: "5550f0db77b45707ad750cb9cb3cfaa7cc4934c4a9b6e8e6bc47ddc009b8a809",
        Family.ELEM_ABELIAN: "1a0eaa04a3f00b6c1ee7c7adc535e1e54f656e0d0fc0d676a4d505f9214c1c13",
        Family.HEISENBERG: "058d4283134cd6c2744df2fd4d8535af8ea4750e274ab7b437b04cf793fbc5e0",
        Family.GP: "0c3a2aeb11b587d2d44804e38c9f41ae66f4b73b1316dab3d283f6dfa5f469a4",
    },
}


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_orbit_ids_are_pinned(fam, p, indices_for):
    # hashed in blocks of states, so the 11**7 (Z/11)^3 ids are never held at once
    index = indices_for(p)[fam]
    total, digest = index.model.total_order, hashlib.sha256()
    for start in range(0, total, 1 << 20):
        digest.update(index.ids(np.arange(start, min(start + (1 << 20), total))).astype(np.int32).tobytes())
    assert digest.hexdigest() == ORBIT_ID_DIGESTS[p][fam]


def test_ids_are_int32(indices_for):
    for fam in FAMILIES:
        index = indices_for(3)[fam]
        assert index.ids(np.arange(index.model.total_order)).dtype == np.int32, fam


def test_state_bound_enforced():
    model = h4_model(Family.ELEM_ABELIAN, 3)
    with pytest.raises(ValueError):
        enumerate_orbits(model, max_states=100)


def test_orbit_rows_shape(indices_for):
    rows = orbit_rows(indices_for(3)[Family.GP])
    assert len(rows) == 9
    assert rows[0]["rep_label"] == "0"
    assert {r["family"] for r in rows} == {"gp"}
    assert sum(r["size"] for r in rows) == 9


@pytest.mark.parametrize("moduli", [[46337, 46337], [65536, 32767]])
def test_images_at_the_state_bound_are_exact(moduli):
    # just below 2**31 states, the largest the state bound lets through: the
    # dot products and packed sums reach their widest, and must stay exact
    rng = np.random.default_rng(sum(moduli))
    k, total = len(moduli), math.prod(moduli)
    mats = np.stack([rng.integers(0, m, size=(3, k)) for m in moduli], axis=1)  # row i reduced mod moduli[i]
    states = np.concatenate([[0, total - 1], rng.integers(0, total, size=2000)])
    weights = radix_weights(moduli)
    expected = [[_apply(mat.tolist(), moduli, weights, s) for s in states.tolist()] for mat in mats]
    images = orbits._image_tables(np.array(moduli, dtype=np.int64), mats)
    assert images(states)[0].tolist() == expected


def test_state_spaces_above_the_bound_are_refused_first():
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError, match=re.escape(f"state space {2**54} above the bound 100000000")):
        enumerate_orbit_ids([2**27, 2**27], [eye])
    for m in (94906267, 94906266):
        with pytest.raises(ValueError, match=re.escape(f"state space {m} above the bound 1")):
            enumerate_orbit_ids([m], [[[1]]], max_states=1)


def test_rows_are_reduced_before_the_product():
    # entries near the int64 limit act as their residues: rows are reduced first
    moduli = [9, 3, 3]
    reduced = [[[2, 3, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 0], [1, 1, 0], [0, 0, 2]]]
    unreduced = [
        [[v + 10**18 * m for v in row] for row, m in zip(mat, moduli)] for mat in reduced
    ]
    negative = [[[v - 5 * m for v in row] for row, m in zip(mat, moduli)] for mat in reduced]
    states = np.arange(math.prod(moduli))
    ids, seeds, sizes = enumerate_orbit_ids(moduli, reduced)
    for mats in (unreduced, negative):
        ids2, seeds2, sizes2 = enumerate_orbit_ids(moduli, mats)
        assert np.array_equal(ids(states), ids2(states))
        assert (seeds, sizes) == (seeds2, sizes2)


def test_only_permutations_with_a_scalar_last_coordinate_split():
    split = orbits._splits_off
    moduli = np.array([9, 3, 5])
    ok = np.array([[[1, 3, 0], [1, 1, 0], [0, 0, 2]]])
    assert split(moduli, ok)
    for bad in (
        [[3, 0, 0], [0, 1, 0], [0, 0, 2]],  # x -> 3x is not onto Z/9
        [[1, 0, 0], [1, 0, 0], [0, 0, 2]],  # singular mod 3
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],  # the last coordinate is killed
        [[1, 0, 0], [0, 1, 0], [0, 1, 2]],  # the last coordinate is coupled
    ):
        assert not split(moduli, np.array([ok[0], bad])), bad
    assert not split(np.array([9, 3, 9]), ok)  # the last modulus is not prime
    assert not split(np.array([5]), np.array([[[2]]]))  # no block left


def test_a_state_space_past_int32_frontiers_is_refused():
    # 2**31 states pass a raised bound, but not the int32 frontiers; the
    # refusal comes before the image tables, the state table and the BFS
    eye = np.eye(2, dtype=np.int64)
    with patch.object(orbits, "_image_tables", side_effect=AssertionError("the tables were built")):
        with pytest.raises(ValueError, match="2\\^31"):
            enumerate_orbit_ids([2**16, 2**15], [eye], max_states=2**31)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_orbits(h4_model(Family.CYCLIC, 1000000007)),
        lambda: count_congruence_classes(1, 1000000000000000003),
    ],
    ids=["cyclic-model", "congruence-n1"],
)
def test_a_large_prime_is_refused_before_its_generators(call):
    # the generators need a primitive root of p**3 or p, found by trial division
    def built(*args, **kwargs):
        raise AssertionError("the generators were built before the state space was checked")

    with patch.object(orbits, "action_generators", built), patch.object(quadforms, "congruence_action", built):
        with pytest.raises(ValueError, match="above the bound 100000000"):
            call()


def test_the_congruence_closure_costs_under_four_bytes_per_state(peak_rss_growth):
    # an int32 id table alone would take 4 bytes for each of the 13**6 forms;
    # full image calls at half the old chunk and one-row fold tables keep the
    # growth under 4 MiB, under one byte per form (4.4 MiB without them)
    growth = peak_rss_growth(
        "from pcubed.quadforms import count_congruence_classes", "assert count_congruence_classes(3, 13) == 7"
    )
    assert growth < 4 * 2**20, f"{growth / 2**20:.2f} MiB"


def test_the_elem_abelian_p11_bfs_grows_peak_rss_under_3_5_mib(peak_rss_growth):
    # the (Z/11)^3 block BFS sets the morita-p11 peak: about 3.3 MiB with full
    # image calls and one-row fold tables, 3.9 MiB with neither
    growth = peak_rss_growth(
        "from pcubed.groups import Family\nfrom pcubed.h4_models import h4_model\n"
        "from pcubed.orbits import enumerate_orbits\nmodel = h4_model(Family.ELEM_ABELIAN, 11)",
        "assert len(enumerate_orbits(model).orbits) == 22",
    )
    assert growth < 3.5 * 2**20, f"{growth / 2**20:.2f} MiB"


def test_image_calls_are_filled_from_the_worklist(monkeypatch):
    # each call takes up to _CHUNK states across worklist entries: the n = 3
    # closure at p = 13 makes 266, against 527 at this chunk with one call per
    # entry, and 310 at twice the chunk
    calls = []
    call = orbits._Images.__call__
    monkeypatch.setattr(orbits._Images, "__call__", lambda self, states: calls.append(states.size) or call(self, states))
    assert count_congruence_classes(3, 13) == 7
    assert len(calls) <= 300 and max(calls) <= orbits._CHUNK, (len(calls), max(calls))


# --- the table kernel against the reference product ----------------------


def _kernel_cases():
    # the tables serve two coordinates or more; one coordinate multiplies directly
    for p in (3, 5):
        for fam in FAMILIES:
            if fam is not Family.CYCLIC:
                yield pytest.param(h4_model(fam, p).moduli, action_generators(fam, p), id=f"{fam.value}-p{p}")
    for n in (2, 3):
        yield pytest.param(*congruence_action(n, 3), id=f"congruence-n{n}-p3")
    rng = np.random.default_rng(0)
    for moduli in ([9, 3, 3], [2, 9, 5]):
        # any integer matrix: the tables never rely on the action being well defined
        mats = rng.integers(-50, 50, size=(3, len(moduli), len(moduli)))
        yield pytest.param(moduli, mats, id="mixed-" + "-".join(map(str, moduli)))


@pytest.mark.parametrize("moduli, matrices", _kernel_cases())
def test_table_images_equal_the_reference_product(moduli, matrices):
    moduli = np.array(moduli, dtype=np.int64)
    mats = np.stack([np.asarray(m, dtype=np.int64) for m in matrices]) % moduli[:, None]
    weights = np.array(radix_weights(moduli), dtype=np.int64)
    states = np.arange(math.prod(moduli.tolist()), dtype=np.int64)
    digits = states[:, None] // weights % moduli
    expected = (mats @ digits.T % moduli[:, None]).transpose(0, 2, 1) @ weights
    assert np.array_equal(orbits._image_tables(moduli, mats)(states)[0], expected)


def _padded(moduli, mats, count):
    """``moduli`` and ``mats`` with ``count`` trailing coordinates of modulus 1, acted on by the identity."""
    k = len(moduli)
    padded = np.zeros((len(mats), k + count, k + count), dtype=np.int64)
    padded[:, :k, :k] = mats
    padded[:, k:, k:] = np.eye(count, dtype=np.int64)
    return list(moduli) + [1] * count, padded


def _bounded_cases():
    # the models of two coordinates or more, the (Z/p)^6 block and the
    # congruence actions at p = 13, each whole: no coordinate is split off
    for fam in FAMILIES:
        if fam is not Family.CYCLIC:
            yield pytest.param(h4_model(fam, 13).moduli, np.stack(action_generators(fam, 13)), id=f"{fam.value}-p13")
    block = np.stack(action_generators(Family.ELEM_ABELIAN, 13))[:, :-1, :-1]
    yield pytest.param((13,) * 6, block, id="elem_abelian-block-p13")
    for n in (2, 3):
        moduli, mats = congruence_action(n, 13)
        yield pytest.param(moduli, np.stack(mats), id=f"congruence-n{n}-p13")
    block = np.stack(action_generators(Family.ELEM_ABELIAN, 17))[:, :-1, :-1]
    yield pytest.param((17,) * 6, block, id="elem_abelian-block-p17")
    heisenberg = np.stack(action_generators(Family.HEISENBERG, 13))
    yield pytest.param(*_padded(h4_model(Family.HEISENBERG, 13).moduli, heisenberg, 36), id="heisenberg-padded-p13")


@pytest.mark.parametrize("moduli, mats", _bounded_cases())
def test_image_tables_are_bounded(moduli, mats):
    # builds the tables only: no state table is allocated and no BFS runs
    moduli = np.array(moduli, dtype=np.int64)
    images = orbits._image_tables(moduli, mats % moduli[:, None])
    total, top = math.prod(moduli.tolist()), int(moduli.max())
    s = int((moduli > 1).sum())  # a modulus-1 digit packs at radix 1 and counts for nothing
    # the image tables split the states at the best digit boundary and the
    # fold tables the packed digits at the best cut between two of them: the
    # two sides' product is total (at most 2**s total for the fold tables),
    # and moving the cut one digit changes it by at most 2 top.  An even digit
    # count halves evenly, so its fold tables keep 4 sqrt(2**s total)
    fold_bound = 4 * math.isqrt(2**s * total) if s % 2 == 0 else math.isqrt(2**s * total * 2 * top)
    sizes = [images.hi[0].size, images.lo[0].size]
    assert max(sizes) <= math.isqrt(total * top), sizes
    assert max(images.fold_hi.size, images.fold_lo.size) <= fold_bound, (images.fold_hi.size, images.fold_lo.size)
    # a packed sum is below 2 prod(2 m_i - 1): int32 image tables exactly when that fits
    narrow = 2 * math.prod(2 * int(m) - 1 for m in moduli) < 2**31
    assert images.hi.dtype == images.lo.dtype == (np.int32 if narrow else np.int64)
    if moduli.tolist() == [17] * 6:  # 2 * 33**6 is 2.58G
        assert images.hi.dtype == np.int64
    quotient = orbits._scalar_quotient(moduli, mats % moduli[:, None])
    if quotient is not None:  # the congruence actions carry g I_n
        canonical = orbits._image_tables(moduli, mats % moduli[:, None], quotient[1])
        assert canonical.lead_hi.dtype.itemsize <= 2 and canonical.lead_lo.dtype.itemsize <= 2


@pytest.mark.parametrize("p", [3, 13, 457])
def test_split_places(p):
    # the image tables split the states at the fold cut, which halves each model's packed digits
    def place(moduli):
        moduli = np.array(moduli, dtype=np.int64)
        return orbits._image_tables(moduli, np.eye(len(moduli), dtype=np.int64)[None]).place

    if p < 457:  # the (Z/p)^6 tables hold p^3 entries per generator, 95M at p = 457
        assert place((p,) * 6) == p**3
    assert place(h4_model(Family.HEISENBERG, p).moduli) == place(h4_model(Family.P2XP, p).moduli) == p * p
    assert place(h4_model(Family.GP, p).moduli) == p


def test_modulus_one_padding_changes_nothing():
    # a modulus-1 coordinate packs at radix 1: many of them make one state and tiny tables
    for k in (62, 70):
        ids, seeds, sizes = enumerate_orbit_ids([1] * k, [np.eye(k, dtype=np.int64)])
        assert (seeds, sizes, ids(np.arange(1)).tolist()) == ([0], [1], [0])
    # the padding leaves every code as it was, so ids, seeds and sizes are the unpadded ones
    moduli, mats = h4_model(Family.HEISENBERG, 5).moduli, np.stack(action_generators(Family.HEISENBERG, 5))
    states = np.arange(math.prod(moduli))
    ids, seeds, sizes = enumerate_orbit_ids(moduli, mats)
    ids2, seeds2, sizes2 = enumerate_orbit_ids(*_padded(moduli, mats, 36))
    assert np.array_equal(ids(states), ids2(states))
    assert (seeds, sizes) == (seeds2, sizes2)
    with pytest.raises(ValueError, match=re.escape(f"state space {3**30} at or above 2^31")):
        enumerate_orbit_ids([3] * 30, [np.eye(30, dtype=np.int64)], max_states=3**30)


@pytest.mark.parametrize("moduli", [[0], [0, 3], [-3]])
def test_moduli_below_one_are_refused(moduli):
    with pytest.raises(ValueError, match=re.escape(f"moduli {moduli} must all be at least 1")):
        enumerate_orbit_ids(moduli, [np.eye(len(moduli), dtype=np.int64)])


# --- property tests against a plain-Python union-find reference -----------


def _apply(mat, moduli, weights, state):
    coords = [state // w % m for w, m in zip(weights, moduli)]
    image = [sum(a * c for a, c in zip(row, coords)) % m for row, m in zip(mat, moduli)]
    return sum(c * w for c, w in zip(image, weights))


def _union_find_orbits(moduli, mats):
    """Smallest state of each state's orbit, by union-find over generator edges."""
    weights = [math.prod(moduli[i + 1 :]) for i in range(len(moduli))]
    total = math.prod(moduli)
    return least_members(total, ((s, _apply(mat, moduli, weights, s)) for s in range(total) for mat in mats))


def _generator(draw, moduli):
    """A product of elementary moves on ``moduli``, so invertible and well defined.

    The moves are scaling a coordinate by a unit, swapping two coordinates
    with the same modulus, and a shear x_i += c * x_j with m_i dividing
    c * m_j (the condition for the move to be well defined on the mixed
    moduli); each move is invertible.
    """
    k = len(moduli)
    idx = st.integers(0, k - 1)
    mat = np.eye(k, dtype=np.int64)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(idx), draw(idx)
        move = np.eye(k, dtype=np.int64)
        kind = draw(st.sampled_from(["scale", "swap", "shear"]))
        if kind == "scale":
            move[i, i] = draw(st.sampled_from([u for u in range(1, moduli[i]) if math.gcd(u, moduli[i]) == 1]))
        elif kind == "swap" and moduli[i] == moduli[j]:
            move[[i, j]] = move[[j, i]]
        elif kind == "shear" and i != j:
            step = moduli[i] // math.gcd(moduli[i], moduli[j])
            move[i, j] = step * draw(st.integers(1, moduli[i]))
        mat = move @ mat
    return mat


def _with_repeats(draw, mats):
    k = len(mats[0])
    mats += mats[: draw(st.integers(0, len(mats)))]
    mats += [np.eye(k, dtype=np.int64)] * draw(st.integers(0, 2))
    return draw(st.permutations(mats))


@st.composite
def _actions(draw):
    """Moduli and invertible, well-defined generators, with repeats and identities."""
    moduli = draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 9]), min_size=1, max_size=3))
    mats = [_generator(draw, moduli) for _ in range(draw(st.integers(1, 3)))]
    return moduli, _with_repeats(draw, mats)


@st.composite
def _split_actions(draw):
    """Block-diagonal actions: ``_generator`` moves on the leading coordinates
    and a unit scalar g**e on a trailing prime coordinate q.

    The exponents e cover 0, the proper divisors of q - 1 and the units mod
    q - 1, so the stabiliser images have index q - 1, a proper divisor and 1.
    When ``coupled``, one leading coordinate has modulus q and one generator
    gets a shear between it and the trailing coordinate, so the trailing
    coordinate no longer splits off.
    """
    q = draw(st.sampled_from([3, 5, 7, 11, 13]))
    lead = draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 9]), min_size=1, max_size=2))
    coupled = draw(st.booleans())
    if coupled:
        lead[draw(st.integers(0, len(lead) - 1))] = q
    moduli = lead + [q]
    g = primitive_root(q)
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        mat = np.zeros((len(moduli), len(moduli)), dtype=np.int64)
        mat[:-1, :-1] = _generator(draw, lead)
        mat[-1, -1] = pow(g, draw(st.integers(0, q - 2)), q)
        mats.append(mat)
    if coupled:
        pos = lead.index(q)
        shear = np.eye(len(moduli), dtype=np.int64)
        i, j = draw(st.sampled_from([(-1, pos), (pos, -1)]))
        shear[i, j] = draw(st.integers(1, q - 1))
        mats[0] = shear @ mats[0]
    return moduli, _with_repeats(draw, mats), coupled


def _check_against_union_find(moduli, mats, chunk):
    # small chunks push frontiers and the seed scan across block boundaries;
    # every state's id is read, so a split action's ids are checked in full
    with patch.object(orbits, "_CHUNK", chunk):
        ids, seeds, sizes = enumerate_orbit_ids(moduli, mats)
    smallest = _union_find_orbits(moduli, [m.tolist() for m in mats])
    assert [seeds[o] for o in ids(np.arange(math.prod(moduli))).tolist()] == smallest
    assert seeds == sorted(set(smallest))
    assert sizes == [smallest.count(s) for s in seeds]
    assert sum(sizes) == math.prod(moduli)


@settings(max_examples=150, deadline=None)
@given(_actions(), st.sampled_from([1, 2, 5, 64, orbits._CHUNK]))
def test_engine_matches_union_find(action, chunk):
    _check_against_union_find(*action, chunk)


@settings(max_examples=150, deadline=None)
@given(_split_actions(), st.sampled_from([1, 2, 5, 64, orbits._CHUNK]))
def test_character_split_matches_union_find(action, chunk):
    moduli, mats, coupled = action
    reduced = np.stack(mats) % np.array(moduli)[:, None]
    assert orbits._splits_off(np.array(moduli), reduced) != coupled
    _check_against_union_find(moduli, mats, chunk)


@st.composite
def _scalar_actions(draw):
    """Moduli (p,) * k with ``_generator`` moves and one scalar f I, f any unit
    mod p, 1 and p - 1 included.  When ``split``, a trailing prime q is added
    on which every generator, the scalar too, acts by a random unit, so the
    block BFS quotients by f and carries the scalar's character."""
    p = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.sampled_from([2, 3]))
    f = draw(st.integers(1, p - 1))
    mats = [_generator(draw, [p] * k) for _ in range(draw(st.integers(1, 2)))] + [f * np.eye(k, dtype=np.int64)]
    split = draw(st.booleans())
    moduli = [p] * k
    if split:
        q = draw(st.sampled_from([3, 5, 7]))
        g = primitive_root(q)
        moduli.append(q)
        padded = []
        for mat in mats:
            full = np.zeros((k + 1, k + 1), dtype=np.int64)
            full[:k, :k] = mat
            full[k, k] = pow(g, draw(st.integers(0, q - 2)), q)
            padded.append(full)
        mats = padded
    return moduli, _with_repeats(draw, mats), f, split


@settings(max_examples=150, deadline=None)
@given(_scalar_actions(), st.sampled_from([1, 2, 5, 64, orbits._CHUNK]))
def test_scalar_quotient_matches_union_find(action, chunk):
    moduli, mats, f, split = action
    reduced = np.stack(mats) % np.array(moduli)[:, None]
    # diagonal generators may split the last coordinate off an unsplit shape too
    split_off = orbits._splits_off(np.array(moduli), reduced)
    assert split_off or not split
    n = len(moduli) - split_off  # the BFS coordinates; the quotient needs two or more
    if f != 1 and n >= 2:
        assert orbits._scalar_quotient(np.array(moduli[:n]), reduced[:, :n, :n]) is not None
    _check_against_union_find(moduli, mats, chunk)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_scalar_changes_only_speed(p):
    # the default (Z/p)^3 generators carry the scalar g I_3, the congruence
    # actions g I_n; without it the BFS expands every state, with the same result
    for fam in FAMILIES:
        model = h4_model(fam, p)
        quick, plain = enumerate_orbits(model), enumerate_orbits(model, generators=action_generators(fam, p))
        states = np.arange(model.total_order)
        assert np.array_equal(quick.ids(states), plain.ids(states))
        assert quick.orbits == plain.orbits
    for n in (1, 2, 3):
        moduli, mats = congruence_action(n, p)
        ids, seeds, sizes = enumerate_orbit_ids(moduli, mats)
        ids2, seeds2, sizes2 = enumerate_orbit_ids(moduli, mats[:-1])
        states = np.arange(math.prod(moduli))
        assert np.array_equal(ids(states), ids2(states))
        assert (seeds, sizes) == (seeds2, sizes2)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_canonical_ranges_hold_the_least_of_each_scalar_class(p, n):
    weights = np.array(radix_weights([p] * n))
    states = np.arange(p**n)
    digits = states[:, None] // weights % p
    for f in range(2, p):
        _, powers = orbits._scalar_quotient(np.array([p] * n), f * np.eye(n, dtype=np.int64)[None])
        assert sorted({pow(f, j, p) for j in range(p)}) == sorted(powers)
        least = np.min([(s * digits % p) @ weights for s in powers], axis=0)
        ranges = orbits._canonical_ranges(p, n, powers)
        assert [start for start, _ in ranges] == sorted(start for start, _ in ranges)
        canonical = np.concatenate([np.arange(start, stop) for start, stop in ranges])
        assert np.array_equal(canonical, np.flatnonzero(least == states)), f


def _squares_quotient_cases():
    # S = <g^2>, the squares, on p^6 states: the congruence closure's forms
    # and the (Z/p)^3 model's block, its character beta split off
    yield pytest.param(lambda: count_congruence_classes(3, 13), 13, id="congruence-n3-p13")
    for p in (3, 5, 7, 11):
        yield pytest.param(lambda p=p: enumerate_orbits(h4_model(Family.ELEM_ABELIAN, p)), p, id=f"elem_abelian-p{p}")


@pytest.mark.parametrize("call, p", _squares_quotient_cases())
def test_the_table_ends_at_the_last_canonical_state(monkeypatch, call, p):
    # every lookup is of a canonical state, so the id table and the split
    # labels stop at the last canonical range; at p = 3, g^2 = 1 and there is
    # no quotient, so they cover all p^6 states
    held = []
    bfs = orbits._bfs

    def recorded(images_of, orbit_id, ranges, scalars, character=None):
        held.append((orbit_id.size, None if character is None else character[0].size, images_of))
        return bfs(images_of, orbit_id, ranges, scalars, character)

    monkeypatch.setattr(orbits, "_bfs", recorded)
    call()
    [(table, labels, images)] = held
    squares = [pow(primitive_root(p), 2 * j, p) for j in range((p - 1) // 2)]
    expected = p**6 if p == 3 else orbits._canonical_ranges(p, 6, squares)[-1][1]
    assert table == expected
    assert labels in (None, expected)
    assert images.fold_hi.dtype == images.fold_lo.dtype == np.int32


def test_the_quotient_tables_stay_within_the_states():
    # the fold tables have one row and the lead and scale tables index digits
    # mod p, so every table is O(p^k) for k coordinates whatever |S| is: the
    # quotient is taken at every prime, within the ``_image_tables`` bound
    # on the fold, lead and scale tables together, for S the squares of the
    # congruence actions and for S all of F_p^*, the largest
    def held(moduli, mats, powers):
        images = orbits._image_tables(moduli, mats, powers)
        tables = [images.fold_hi, images.fold_lo, images.lead_hi, images.lead_lo, images.scale_hi, images.scale_lo]
        bound = max(3 * int(moduli[0]) ** len(moduli), orbits._CHUNK)
        assert sum(t.size for t in tables) <= bound, (moduli, len(powers))

    for n, p in [(2, 5), (2, 13), (2, 31), (2, 101), (3, 5), (3, 13), (3, 31), (3, 101)]:
        moduli, mats = congruence_action(n, p)
        moduli, mats = np.array(moduli), np.stack(mats) % p
        quotient = orbits._scalar_quotient(moduli, mats)
        assert quotient is not None, (n, p)
        if p ** len(moduli) < 10**9:  # the image tables of (3, 101) hold 10^6 entries per generator
            held(moduli, mats, quotient[1])
    for k in range(2, 7):
        for p in (3, 5, 7, 13, 31):
            g = primitive_root(p)
            _, powers = orbits._scalar_quotient(np.array([p] * k), g * np.eye(k, dtype=np.int64)[None])
            assert len(powers) == p - 1
            held(np.array([p] * k), g * np.eye(k, dtype=np.int64)[None], powers)


def _quotient_cases():
    for p in (5, 7):
        for n in (2, 3):
            yield pytest.param(*congruence_action(n, p), id=f"congruence-n{n}-p{p}")
        model = h4_model(Family.ELEM_ABELIAN, p)
        gens = np.stack(action_generators(Family.ELEM_ABELIAN, p) + (scalar_action(p),))
        yield pytest.param(model.moduli[:-1], gens[:, :-1, :-1], id=f"elem_abelian-block-p{p}")


@pytest.mark.parametrize("moduli, matrices", _quotient_cases())
def test_quotient_images_are_canonical(moduli, matrices):
    # each image is the least of its scalar class, and f**step times the plain image
    moduli = np.array(moduli, dtype=np.int64)
    p, mats = int(moduli[0]), np.stack(matrices) % moduli[:, None]
    _, powers = orbits._scalar_quotient(moduli, mats)
    states = np.arange(math.prod(moduli.tolist()))
    plain, no_steps = orbits._image_tables(moduli, mats)(states)
    images, steps = orbits._image_tables(moduli, mats, powers)(states)
    assert no_steps is None
    weights = np.array(radix_weights(moduli))
    digits = plain[..., None] // weights % p
    classes = np.stack([(s * digits % p) @ weights for s in powers])
    assert np.array_equal(images, classes.min(axis=0))
    assert np.array_equal(images, np.take_along_axis(classes, steps[None], axis=0)[0])


@pytest.mark.parametrize("states, widened", [(255, False), (256, True)])
def test_the_256th_orbit_widens_the_table(states, widened):
    # the identity on Z/n has n orbits; ids 0..254 fit below the uint8 mark 255
    identity = lambda frontier: (frontier[None], None)
    seeds, _, _, table = orbits._bfs(identity, np.full(states, 255, dtype=np.uint8), [(0, states)], 1)
    assert seeds == list(range(states))
    assert table.dtype == (np.int32 if widened else np.uint8)
    assert np.array_equal(table, np.arange(states))


@pytest.mark.parametrize("moduli, g", [([20, 20], 1), ([16, 16, 5], primitive_root(5))], ids=["plain", "split"])
@pytest.mark.parametrize("chunk", [5, orbits._CHUNK])
def test_more_than_255_orbits_match_union_find(moduli, g, chunk):
    # identity actions: 400 orbits, and 256 block orbits of (Z/16)^2 split by x -> g x
    mat = np.diag([1] * (len(moduli) - 1) + [g]).astype(np.int64)
    assert orbits._splits_off(np.array(moduli), mat[None]) == (g != 1)
    _check_against_union_find(moduli, [mat], chunk)
    ids, _, _ = enumerate_orbit_ids(moduli, [mat])
    assert ids(np.arange(math.prod(moduli))).dtype == np.int32


def test_one_coordinate_orbits_take_log_depth(monkeypatch):
    # the cyclic model at p = 11 has orbits of up to 605 states under one
    # multiplier; with its repeated squares as generators each orbit is at
    # most bit_length(11**3) levels deep; each image call takes every waiting
    # state of so small an orbit, so it makes at most one call per level
    calls = []
    bfs = orbits._bfs

    def counted(images_of, *args):
        return bfs(lambda states: calls.append(1) or images_of(states), *args)

    monkeypatch.setattr(orbits, "_bfs", counted)
    index = enumerate_orbits(h4_model(Family.CYCLIC, 11))
    assert len(index.orbits) == 7
    assert 7 <= len(calls) <= 7 * (11**3).bit_length()


@pytest.mark.parametrize(
    "call",
    [
        lambda: len(enumerate_orbits(h4_model(Family.CYCLIC, 11)).orbits) == 7,
        lambda: len(enumerate_orbits(h4_model(Family.GP, 11)).orbits) == 33,
        lambda: count_congruence_classes(1, 13) == 3,
    ],
    ids=["cyclic-p11", "gp-p11", "congruence-n1-p13"],
)
def test_a_one_coordinate_bfs_builds_no_tables(call):
    # the cyclic model, the G_p block once gamma**2 splits off and the n = 1
    # congruence action each multiply their one coordinate directly
    with patch.object(orbits, "_image_tables", side_effect=AssertionError("the tables were built")):
        assert call()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cyclic_orbits_match_union_find(p):
    model = h4_model(Family.CYCLIC, p)
    _check_against_union_find(list(model.moduli), [np.array(m) for m in action_generators(Family.CYCLIC, p)],
                              orbits._CHUNK)


@pytest.mark.parametrize("q", [127, 131, 257, 263])
def test_split_labels_hold_their_shifted_defects(q):
    # a label plus q - 1 runs up to 2 (q - 1) - 1, past 255 from q = 131: at
    # q = 131 the defect q - 5 of x -> g**(q - 5) x, shifted to 256, must not
    # wrap to 0 and pass as a multiple of every gcd
    g = primitive_root(q)
    mats = [np.diag([2, pow(g, (q - 1) // 2, q)]), np.diag([1, pow(g, q - 5, q)])]
    assert orbits._splits_off(np.array([3, q]), np.stack(mats))
    _check_against_union_find([3, q], mats, orbits._CHUNK)


def test_wide_scalar_steps_match_union_find():
    # a split (Z/19)^2 block quotiented by S = <2 I>, 18 scalars as 2 is a
    # primitive root mod 19, with chi_s = g**11 mod 23: a step j up to 17 times
    # log chi_s = 11 or q - 1 = 22 passes 127, so each narrow step must be
    # widened before it is multiplied
    g = primitive_root(23)
    shear, swap, scalar = np.eye(3, dtype=np.int64), np.eye(3, dtype=np.int64)[[1, 0, 2]], np.diag([2, 2, pow(g, 11, 23)])
    shear[0, 1] = 1
    moduli, mats = [19, 19, 23], [shear, swap, scalar]
    assert orbits._splits_off(np.array(moduli), np.stack(mats))
    _, powers = orbits._scalar_quotient(np.array(moduli[:2]), np.stack(mats)[:, :2, :2])
    assert len(powers) == 18
    _check_against_union_find(moduli, mats, orbits._CHUNK)


def test_lead_tables_widen_past_128_scalars():
    # S = F_257^*, 256 scalars: the steps run to 255 and need int16
    powers = [pow(3, j, 257) for j in range(256)]
    lead = orbits._lead_table([2 * 257 - 1], 257, powers, -1)
    assert lead.dtype == np.int16
    digits = np.arange(2 * 257 - 1) % 257
    expected = [-1 if d == 0 else min(range(256), key=lambda j: d * powers[j] % 257) for d in digits.tolist()]
    assert lead.tolist() == expected


def _logs_one_step_at_a_time(q):
    """The definition: log[g**i mod q] = i, walking the powers of g one multiplication at a time."""
    log, g, x = [0] * q, primitive_root(q), 1
    for i in range(q - 1):
        log[x] = i
        x = x * g % q
    return np.array(log, dtype=np.int32)


def test_discrete_logs_by_doubling_match_the_definition():
    for q in [q for q in range(3, 2000) if is_prime(q)] + [1_000_003]:
        logs = orbits._discrete_logs(q)
        assert logs.dtype == np.int32 and np.array_equal(logs, _logs_one_step_at_a_time(q)), q
