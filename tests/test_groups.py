import hashlib
import random
from itertools import combinations

import numpy as np
import pytest

from pcubed import published
from pcubed.groups import (
    FAMILIES,
    GROUP_TABLE_MAX_P,
    Family,
    build_group,
    _isomorphisms,
    center,
    enumerate_automorphisms,
    normal_abelian_subgroup_classes,
    normal_abelian_subgroups,
)

from pcubed.modular import is_prime

from oracles import are_isomorphic, least_generators, subgroup_orbit

AUT_ORDERS_P3 = {
    Family.CYCLIC: 18,
    Family.P2XP: 108,
    Family.ELEM_ABELIAN: 11232,
    Family.HEISENBERG: 432,
    Family.GP: 54,
}

# p^2 |GL(2,p)| for the exponent-p extraspecial group, p^3 (p-1)^2 and p^3 (p-1)
# for the groups with an order-p^2 element; digests as for p = 3
AUT_ROWS_P5 = {
    Family.CYCLIC: (100, "0c9a5a75f0f7589903799cd1db4311b69f0dc7c70d3809d2a24892bfbf36c383"),
    Family.P2XP: (2000, "da7ecb568ea65e3887eef528cb540d2806e06e0ad4afdf4e49fb3306df26846f"),
    Family.HEISENBERG: (12000, "6d029e27ed4e1ba6185c135fa12a2b12bce6b4313ddb40542d4ab9a5282df79d"),
    Family.GP: (500, "0e825676232ebc9a9868969309e59a10a001e38ee3249e067db98130571aa585"),
}

# (isomorphism type, number of members) of each Aut(G)-class of normal abelian subgroups at p = 5
SUBGROUP_SHAPES_P5 = {
    Family.CYCLIC: [((5,), 1), ((25,), 1)],
    Family.P2XP: [((5,), 5), ((5,), 1), ((5, 5), 1), ((25,), 5)],
    Family.HEISENBERG: [((5,), 1), ((5, 5), 6)],
    Family.GP: [((5,), 1), ((5, 5), 1), ((25,), 5)],
}


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("p", [3, 5])
def test_build_and_validate(fam, p):
    G = build_group(fam, p)  # build_group runs validate()
    assert G.order == p**3
    assert G.element_order(G.identity) == 1


def test_presented_relations_hold():
    H = build_group(Family.HEISENBERG, 3)
    a, b, c = (H.gen_names[x] for x in "ABC")
    aba_inv = H.multiply(H.multiply(a, b), H.inv[a])
    assert aba_inv == H.multiply(b, c)  # A B A^-1 = B C
    assert H.multiply(a, c) == H.multiply(c, a)
    G = build_group(Family.GP, 3)
    ga, gb = G.gen_names["a"], G.gen_names["b"]
    assert G.multiply(G.multiply(ga, gb), G.inv[ga]) == G.power(gb, 4)  # a b a^-1 = b^4


def test_invalid_primes_rejected():
    with pytest.raises(ValueError):
        build_group(Family.CYCLIC, 4)
    with pytest.raises(ValueError):
        build_group(Family.CYCLIC, 2)
    for p in (11, 17):  # past the group-table bound
        with pytest.raises(ValueError, match="group-table bound"):
            build_group(Family.CYCLIC, p)


def test_centers():
    H = build_group(Family.HEISENBERG, 3)
    assert center(H) == H.closure([H.gen_names["C"]])
    assert len(center(H)) == 3
    E = build_group(Family.ELEM_ABELIAN, 3)
    assert len(center(E)) == 27
    G = build_group(Family.GP, 3)
    b_cubed = G.power(G.gen_names["b"], 3)
    assert center(G) == G.closure([b_cubed])
    assert len(center(G)) == 3


def _rows_digest(auts):
    """sha256 of the automorphism rows as int32 bytes, which pins their order."""
    return hashlib.sha256(auts.astype(np.int32).tobytes()).hexdigest()


AUT_DIGESTS_P3 = {
    Family.CYCLIC: "6dd70472575aa776d10327d473f9fc2b945f35b096ee2cf33b596946b3b55a17",
    Family.P2XP: "61bf73656b135f8e365a8d6b8355329afdd2b1fbeb2eeabca4bf5d584233fa59",
    Family.ELEM_ABELIAN: "c12e8ae435950ffce28c5120ac78cb54276e7ed09ab198e46eb44c406a32a85e",
    Family.HEISENBERG: "590b1c5f01dc34c001287d9349943d38ae51df5ae34825a0d473dd0d54886511",
    Family.GP: "f0c7b97ae5d2c58cffc3f1a0050266e9bc2de5f932e4c6065dfe3e7df285dd7c",
}


@pytest.mark.parametrize("fam", FAMILIES)
def test_automorphism_counts_p3(fam):
    G = build_group(fam, 3)
    auts = enumerate_automorphisms(G)
    assert auts.shape == (AUT_ORDERS_P3[fam], G.order)
    assert _rows_digest(auts) == AUT_DIGESTS_P3[fam]


@pytest.mark.parametrize("fam", FAMILIES)
def test_automorphisms_are_bijective_homomorphisms(fam):
    G = build_group(fam, 3)
    for a in enumerate_automorphisms(G):
        assert np.array_equal(np.sort(a), np.arange(G.order))
        assert np.array_equal(G.mul[a][:, a], a[G.mul])


def test_automorphism_set_closed_under_composition_and_inverse():
    G = build_group(Family.HEISENBERG, 3)
    auts = enumerate_automorphisms(G)
    keys = {a.tobytes() for a in auts}
    assert len(keys) == len(auts)
    rng = random.Random(3)
    sample = rng.sample(list(auts), 24)
    for sigma in sample:
        assert np.argsort(sigma).astype(sigma.dtype).tobytes() in keys
        for tau in sample[:8]:
            assert sigma[tau].tobytes() in keys


def test_gp_automorphism_shape():
    # every automorphism is b -> b^i a^j with i a unit, a -> b^(3m) a
    G = build_group(Family.GP, 3)
    for sigma in enumerate_automorphisms(G):
        bi, bj = G.exps[sigma[G.gen_names["b"]]]
        ai, aj = G.exps[sigma[G.gen_names["a"]]]
        assert bi % 3 != 0
        assert ai % 3 == 0 and aj == 1


def test_cyclic_automorphisms_are_units():
    G = build_group(Family.CYCLIC, 3)
    images = sorted(enumerate_automorphisms(G)[:, G.gen_names["x"]].tolist())
    assert images == [k for k in range(27) if k % 3 != 0]


def test_automorphism_counts_p5():
    for fam, (count, digest) in AUT_ROWS_P5.items():
        auts = enumerate_automorphisms(build_group(fam, 5))
        assert len(auts) == count
        assert _rows_digest(auts) == digest


def test_subgroup_class_shapes_p5():
    for fam, want in SUBGROUP_SHAPES_P5.items():
        classes = normal_abelian_subgroup_classes(build_group(fam, 5))
        got = sorted((c.isomorphism_type, len(c.members)) for c in classes)
        assert got == sorted(want)


def test_published_aut_orders_and_subgroup_class_counts_match_the_pins():
    # arithmetic only: the published formulas against the enumerated counts pinned above
    for fam in FAMILIES:
        assert published.aut_order(fam, 3) == AUT_ORDERS_P3[fam]
    for fam, (count, _) in AUT_ROWS_P5.items():
        assert published.aut_order(fam, 5) == count
    for fam, shapes in SUBGROUP_SHAPES_P5.items():
        assert published.subgroup_class_count(fam) == len(shapes)


@pytest.mark.parametrize(
    "fam, p", [(fam, 3) for fam in FAMILIES] + [(fam, 5) for fam in FAMILIES if fam is not Family.ELEM_ABELIAN]
)
def test_subgroup_class_members_are_the_images_of_the_representative(fam, p):
    # the classes read each orbit off the generator images; the reference maps every
    # member of the representative and collects the image sets ((Z/5)^3 has 1,488,000 rows)
    G = build_group(fam, p)
    auts = enumerate_automorphisms(G)
    classes = normal_abelian_subgroup_classes(G, automorphisms=auts)
    for c in classes:
        assert set(c.members) == subgroup_orbit(auts, c.representative)
        assert len(set(c.members)) == len(c.members)
    assert sum(len(c.members) for c in classes) == len(normal_abelian_subgroups(G))


@pytest.mark.parametrize("p", [p for p in range(3, GROUP_TABLE_MAX_P + 1) if is_prime(p)])
def test_group_tables_and_automorphism_rows_hold_int16_indices(p):
    # every element index is below p^3 <= 343; the rows are enumerated where Aut(G) is small
    # at every p (at p = 7 the other three families have 12,348 to 33,784,128 automorphisms)
    for fam in FAMILIES:
        G = build_group(fam, p)
        assert G.mul.dtype == G.inv.dtype == np.int16
        if fam in (Family.CYCLIC, Family.GP) or p == 3:
            assert enumerate_automorphisms(G).dtype == np.int16


def test_the_p3_group_oracles_grow_peak_rss_under_3_5_mib(peak_rss_growth):
    # int32 rows, and every automorphism's image set of a subgroup held at once, grew it 3.9 MiB
    growth = peak_rss_growth("from pcubed import cli", "assert all(check.ok for check in cli._group_oracles(3))")
    assert growth < 3.5 * 2**20, f"{growth / 2**20:.1f} MiB"


# sha256 of repr([sorted(S) for S in normal_abelian_subgroups(G)]), written
# when every pair of small elements was closed; they pin the list itself
NORMAL_ABELIAN_DIGESTS = {
    3: {
        Family.CYCLIC: "cb77446f1fa76d025143479a4444f4deef5b4bf375f773ec54807baceab5ee6d",
        Family.P2XP: "1b3fc81f09821f3e09aaa6ab2e6142b56e0b862602bb059b7649fb8bb721fa63",
        Family.ELEM_ABELIAN: "6d34556b30a023e53df0bb5e6d58a2f513052e2a6dfbb15d526970a0bf104f6f",
        Family.HEISENBERG: "2f61cc9279ffdcff48064b8d8142738fb5012c61cb46d8045f882ca3ae9334bb",
        Family.GP: "912a146011b614e9b0d002c6d13f98239d4c6253ccbae1dc5684c5352fc88908",
    },
    5: {
        Family.CYCLIC: "c8449113dbb32be81d8af9c3395cacf068d7cab2c5e84b72760b7f04e14e3cbd",
        Family.P2XP: "04a3ad12565ed517ac6cf74c6de4c8142cf1a3ff31e2aadc652495225abbb69f",
        Family.ELEM_ABELIAN: "5b4a59dd90785fb469045bd431dac072713c509da06be334378071fed39a65ec",
        Family.HEISENBERG: "0b59877c10063490d42e143fd9f697aa272bad70a8342e17b0d2f518a5552325",
        Family.GP: "fae08fcb81257d4bc2205680071a38d319a0dd639924b0150c964476187054b3",
    },
    7: {
        Family.CYCLIC: "51227f20958957bcb108c616518deecaa2214a9869cb463a0202ec6d3b8c0e9a",
        Family.P2XP: "1a8f7f5680531176d492b0bb3fbaac3aa0f1b94bbe4f8857503c30e3819c4498",
        Family.ELEM_ABELIAN: "08a96cbf39bcc6d84955c8c868be3cf561af6ca937c5060ddb0efbc3dc4b51a0",
        Family.HEISENBERG: "bdede63f300edc49881f23798dede4082b9da625ca8c30515fe1f02a94dc44ff",
        Family.GP: "5a86e8458a91de6db022484d4784bcabc61f9e5ebc48fa03a8c1fd489e554da2",
    },
}


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("p", [3, 5, 7])
def test_normal_abelian_subgroups_are_pinned(fam, p):
    subgroups = normal_abelian_subgroups(build_group(fam, p))
    digest = hashlib.sha256(repr([sorted(S) for S in subgroups]).encode()).hexdigest()
    assert digest == NORMAL_ABELIAN_DIGESTS[p][fam]


@pytest.mark.parametrize("fam", FAMILIES)
@pytest.mark.parametrize("p", [3, 5])
def test_each_normal_subgroup_keeps_its_least_generators(fam, p):
    # the search records the first generators that reach a subgroup; they must be
    # the least ones, one exactly when the subgroup is cyclic, and the subgroup abelian
    G = build_group(fam, p)
    for S, gens in normal_abelian_subgroups(G).items():
        assert gens == least_generators(G, S)
        assert (len(gens) == 1) == (max(G.element_order(s) for s in S) == len(S))
        mem = np.fromiter(S, dtype=np.int64)
        products = G.mul[np.ix_(mem, mem)]
        assert np.array_equal(products, products.T)


@pytest.mark.parametrize("p", [3, 5])
def test_families_pairwise_nonisomorphic(p):
    groups = {fam: build_group(fam, p) for fam in FAMILIES}
    for f1, f2 in combinations(FAMILIES, 2):
        assert not are_isomorphic(groups[f1], groups[f2])
    for fam in FAMILIES:
        assert are_isomorphic(groups[fam], groups[fam])


def test_search_alone_rejects_same_element_orders():
    # (Z/3)^3 and H_3 agree in order and element orders; only the centre check
    # in are_isomorphic or the generator-image search can tell them apart
    E, H = build_group(Family.ELEM_ABELIAN, 3), build_group(Family.HEISENBERG, 3)
    assert sorted(E.element_orders.tolist()) == sorted(H.element_orders.tolist())
    assert next(_isomorphisms(E, H), None) is None
    assert next(_isomorphisms(H, E), None) is None
    assert next(_isomorphisms(H, H), None) is not None
    # at p = 5: H_5 -> (Z/5)^3 (the reverse direction, 124^3 candidates, is
    # left out), and G_5 <-> Z/25 x Z/5, which also share their element orders
    E5, H5 = build_group(Family.ELEM_ABELIAN, 5), build_group(Family.HEISENBERG, 5)
    assert next(_isomorphisms(H5, E5), None) is None
    G5, P5 = build_group(Family.GP, 5), build_group(Family.P2XP, 5)
    assert sorted(G5.element_orders.tolist()) == sorted(P5.element_orders.tolist())
    assert next(_isomorphisms(G5, P5), None) is None
    assert next(_isomorphisms(P5, G5), None) is None
    assert np.array_equal(next(_isomorphisms(H5, H5))[0], enumerate_automorphisms(H5)[0])


def test_subgroup_classes_cyclic():
    G = build_group(Family.CYCLIC, 3)
    classes = normal_abelian_subgroup_classes(G)
    assert [c.isomorphism_type for c in classes] == [(3,), (9,)]
    assert classes[0].representative == G.closure([9])
    assert classes[1].representative == G.closure([3])


def test_subgroup_classes_heisenberg():
    G = build_group(Family.HEISENBERG, 3)
    classes = normal_abelian_subgroup_classes(G)
    assert [c.isomorphism_type for c in classes] == [(3,), (3, 3)]
    assert classes[0].members == (center(G),)
    # the four subgroups of order p^2 all contain the center and form one class
    assert len(classes[1].members) == 4
    bc = G.closure([G.gen_names["B"], G.gen_names["C"]])
    assert bc in classes[1].members


def test_subgroup_classes_gp():
    G = build_group(Family.GP, 3)
    classes = normal_abelian_subgroup_classes(G)
    assert [c.isomorphism_type for c in classes] == [(3,), (3, 3), (9,)]
    b = G.gen_names["b"]
    a = G.gen_names["a"]
    assert classes[0].representative == G.closure([G.power(b, 3)])
    assert classes[1].representative == G.closure([a, G.power(b, 3)])
    # the cyclic order-9 subgroups <b a^l> form a single class of size p
    assert len(classes[2].members) == 3
    assert G.closure([b]) in classes[2].members


def test_subgroup_classes_p2xp():
    G = build_group(Family.P2XP, 3)
    classes = normal_abelian_subgroup_classes(G)
    types = [c.isomorphism_type for c in classes]
    assert types == [(3,), (3,), (3, 3), (9,)]
    sizes = sorted(len(c.members) for c in classes)
    assert sizes == [1, 1, 3, 3]
    # <x^p> is Aut-invariant; the other order-p class collects the p diagonal ones
    xp = G.closure([G.power(G.gen_names["x"], 3)])
    invariant = [c for c in classes if c.members == (xp,)]
    assert len(invariant) == 1


def test_subgroup_classes_elem_abelian():
    G = build_group(Family.ELEM_ABELIAN, 3)
    classes = normal_abelian_subgroup_classes(G)
    assert [c.isomorphism_type for c in classes] == [(3,), (3, 3)]
    assert len(classes[0].members) == 13
    assert len(classes[1].members) == 13


def test_class_partition_stable_under_automorphisms():
    G = build_group(Family.GP, 3)
    auts = enumerate_automorphisms(G)
    classes = normal_abelian_subgroup_classes(G, automorphisms=auts)
    rng = random.Random(11)
    for cls in classes:
        member_set = set(cls.members)
        for sigma in rng.sample(list(auts), 12):
            for S in cls.members:
                image = frozenset(sigma[np.fromiter(S, dtype=np.int64)].tolist())
                assert image in member_set


def test_word_rendering():
    G = build_group(Family.HEISENBERG, 3)
    assert G.word(G.identity) == "e"
    ab2 = G.multiply(G.gen_names["A"], G.power(G.gen_names["B"], 2))
    assert G.word(ab2) == "A*B^2"
