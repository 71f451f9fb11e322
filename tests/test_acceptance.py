"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values are the published classification counts and tables; orbit
representatives inside a table row may differ from the printed ones, so rows
are compared after canonicalization through the orbit indices.
"""

import random
import time
from itertools import combinations, product

import numpy as np
import pytest

from pcubed.cli import _TWISTS, _congruence_counts, _corrupt_generators, _orbit_checks
from pcubed.graded_ring import verify_identity_suite
from pcubed.groups import (
    FAMILIES,
    Family,
    build_group,
    center,
    enumerate_automorphisms,
    normal_abelian_subgroup_classes,
)
from pcubed.h4_models import (
    action_generators,
    h4_model,
    push_automorphism,
)
from pcubed.lhs_morita import (
    consistency_checks,
    morita_components,
    verify_pages,
)
from pcubed.orbits import enumerate_orbits
from pcubed.quadforms import (
    QuadForm,
    are_congruent,
    select_h,
)

from oracles import AUT_ORDERS, ORBIT_COUNTS, are_isomorphic, matrix_group_closure


def test_criterion_1_orbit_counts(indices_for):
    t0 = time.time()
    for p in (3, 5, 7, 11):
        indices = indices_for(p)
        counts = {fam: len(indices[fam].orbits) for fam in FAMILIES}
        for fam, n in counts.items():
            assert n == ORBIT_COUNTS[fam](p), (fam, p, n)
        assert sum(counts.values()) == 6 * p + 43
    print(f"PASS criterion 1: per-family orbit counts and 6p+43 totals for p in (3,5,7,11) "
          f"[{time.time() - t0:.1f}s]")


def test_criterion_2_morita_component_counts(graph_for):
    for p in (3, 5, 7):
        graph = graph_for(p)
        assert len(graph.components) == 5 * p + 32
        hist = graph.size_histogram()
        assert len(graph.nontrivial()) == p + 10
        assert hist.get(2, 0) == p + 9
        assert hist.get(3, 0) == 1
    print("PASS criterion 2: 5p+32 Morita classes with p+9 pairs and one triple for p in (3,5,7)")


# published merged tables, with orbit labels written as model coefficient
# vectors; the third-column entries of the two product-group rows are stated
# as rank-3 forms per the case analysis (the printed rank-2 labels would
# collide with the y1y2 row's orbit)
def _paper_table(p):
    g = 2  # least nonsquare for p = 3, 5
    h = select_h(p)
    C, P2, E, H, G = (h4_model(f, p) for f in FAMILIES)
    rows = [
        [(C, (0,)), (P2, (0, 1, 0))],
        [(C, (p * p,)), (P2, (1, 1, 0))],
        [(C, (g * p * p,)), (P2, (g, 1, 0))],
        [(P2, (0, 0, 0)), (E, (0, 0, 0, 1, 0, 0, 0))],
        [(P2, (0, 0, 1)), (E, (0, 0, 1, 1, 0, 0, 0))],
        [(P2, (0, 0, g)), (E, (0, 0, g, 1, 0, 0, 0))],
        [(E, (0, 0, 0, 0, 0, 0, 1)), (H, (0, 0, 0, 0))],
        [(E, (1, 0, 0, 0, 0, 0, 1)), (H, (0, 1, 0, 0))],
        [(E, (g, 0, 0, 0, 0, 0, 1)), (H, (0, g, 0, 0))],
        [(E, (h, 1, 0, 0, 0, 0, 1)), (H, (0, h, 1, 0))],
        [(E, (0, 0, 0, 0, 0, 1, 1)), (H, (0, 0, 0, 1)), (G, (0, 0))],
    ]
    for k in range(1, p):
        rows.append([(E, (k, 0, 0, 0, 0, 1, 1)), (G, (0, k))])
    return rows


@pytest.mark.parametrize("p", [3, 5])
def test_criterion_3_merged_tables_match(p, graph_for):
    graph = graph_for(p)
    computed = {
        frozenset((fam, rep.coeffs) for fam, rep in comp) for comp in graph.nontrivial()
    }
    expected = set()
    for row in _paper_table(p):
        members = frozenset(
            (model.family, graph.indices[model.family].orbit_of(model.cls(coeffs)).rep.coeffs)
            for model, coeffs in row
        )
        expected.add(members)
    assert len(expected) == p + 10  # the rows canonicalize to distinct components
    assert computed == expected
    # and the emitted rows are exactly these components
    emitted = {
        frozenset((fam, rep.coeffs) for fam, rep in row.items())
        for row in (dict(comp) for comp in graph.nontrivial())
    }
    assert emitted == expected
    print(f"PASS criterion 3: p={p} merged table matches row-for-row after canonicalization")


def test_criterion_4_p2xp_orbit_size_multiset(indices_for):
    for p in (3, 5, 7):
        sizes = sorted(o.size for o in indices_for(p)[Family.P2XP].orbits)
        expected = sorted(
            [p * (p * p - p) * (p - 1) // 4] * 4
            + [(p - 1) // 2] * 4
            + [p * (p * p - p) // 2] * 2
            + [(p - 1) ** 2 // 4] * 4
            + [p * p * (p - 1), 1]
        )
        assert sizes == expected
        assert sum(sizes) == p**4
    print("PASS criterion 4: product-group orbit-size multisets for p in (3,5,7)")


def test_criterion_5_quadratic_forms(class_count_for, congruence_ids_for):
    for p in (3, 5, 7, 11, 13):
        # verify reads the counts off the twist-zero orbits of the models; the
        # closure of all forms under GL(n, p) must agree with them
        twisted = {fam: enumerate_orbits(h4_model(fam, p)) for fam, _ in _TWISTS.values()}
        from_models = _congruence_counts(twisted)
        del twisted
        for n in (1, 2, 3):
            assert from_models[n] == class_count_for(n, p) == 2 * n + 1
    for p in (3, 5):
        ids = congruence_ids_for(2, p)
        forms = list(ids)
        for m1, m2 in product(forms, forms):
            assert are_congruent(QuadForm(p, m1), QuadForm(p, m2)) == (ids[m1] == ids[m2])
    rng = random.Random(20240818)
    for p in (3, 5, 7):
        ids = congruence_ids_for(3, p)
        forms = list(ids)
        for _ in range(1000):
            m1, m2 = rng.choice(forms), rng.choice(forms)
            assert are_congruent(QuadForm(p, m1), QuadForm(p, m2)) == (ids[m1] == ids[m2])
    assert select_h(3) == 1
    assert select_h(5) == 2
    print("PASS criterion 5: 2n+1 classes (n<=3, p<=13), oracle agreement, h(3)=1, h(5)=2")


def test_criterion_6_identity_suite_and_pages():
    for p in (3, 5):
        checks = verify_identity_suite(p)
        assert len(checks) >= 12
        bad = [c for c in checks if not c.ok]
        assert not bad, "\n".join(c.line() for c in bad)
        pages = verify_pages(p)
        bad = [c for c in pages if not c.ok]
        assert not bad, "\n".join(c.line() for c in bad)
    print(f"PASS criterion 6: {len(verify_identity_suite(3))} symbolic identities and "
          f"{len(verify_pages(3))} page checks re-derive exactly (p=3,5)")


def test_criterion_7_group_oracles():
    t0 = time.time()
    p = 3
    groups = {fam: build_group(fam, p) for fam in FAMILIES}
    for fam, G in groups.items():
        assert len(enumerate_automorphisms(G)) == AUT_ORDERS[(fam, p)]
    for f1, f2 in combinations(FAMILIES, 2):
        assert not are_isomorphic(groups[f1], groups[f2])
    H = groups[Family.HEISENBERG]
    assert center(H) == H.closure([H.gen_names["C"]])

    # the normal-abelian-subgroup class table
    def classes(fam):
        return normal_abelian_subgroup_classes(groups[fam])

    cyc = classes(Family.CYCLIC)
    assert [c.isomorphism_type for c in cyc] == [(3,), (9,)]
    p2 = classes(Family.P2XP)
    assert [c.isomorphism_type for c in p2] == [(3,), (3,), (3, 3), (9,)]
    assert sorted(len(c.members) for c in p2) == [1, 1, 3, 3]
    elem = classes(Family.ELEM_ABELIAN)
    assert [c.isomorphism_type for c in elem] == [(3,), (3, 3)]
    assert [len(c.members) for c in elem] == [13, 13]
    heis = classes(Family.HEISENBERG)
    assert [c.isomorphism_type for c in heis] == [(3,), (3, 3)]
    assert heis[0].members == (center(H),)
    assert len(heis[1].members) == 4
    gp = classes(Family.GP)
    assert [c.isomorphism_type for c in gp] == [(3,), (3, 3), (9,)]
    assert [len(c.members) for c in gp] == [1, 1, 3]
    G = groups[Family.GP]
    assert G.closure([G.gen_names["b"]]) in gp[2].members
    print(f"PASS criterion 7: p=3 brute-force group oracles (Aut orders, non-isomorphism, "
          f"center, subgroup table) [{time.time() - t0:.1f}s]")


def test_criterion_8_pushed_automorphisms_match_generators():
    for fam in (Family.HEISENBERG, Family.GP):
        model = h4_model(fam, 3)
        G = build_group(fam, 3)
        pushed = {push_automorphism(s, model) for s in enumerate_automorphisms(G)}
        generated = matrix_group_closure(action_generators(fam, 3), model.moduli)
        assert pushed == generated  # containment in both directions
    print("PASS criterion 8: brute-force automorphisms and action generators span the same "
          "matrix groups (Heisenberg, extraspecial p^2) at p=3")


def _signals(indices):
    graph = morita_components(indices)
    counts = {fam: len(indices[fam].orbits) for fam in FAMILIES}
    rows = {
        frozenset((fam, rep.coeffs) for fam, rep in comp) for comp in graph.nontrivial()
    }
    return counts, len(graph.components), rows


def test_criterion_9_negative_controls(indices_for):
    p = 3
    baseline = dict(indices_for(p))
    base_sig = _signals(baseline)
    corruptions = [
        (Family.CYCLIC, 0, 0),
        (Family.P2XP, 1, 1),
        (Family.ELEM_ABELIAN, 0, 0),
        (Family.ELEM_ABELIAN, 0, 1),  # inside the quadratic block: the det split still applies
        (Family.ELEM_ABELIAN, 6, 0),  # couples beta to the block: the split must not apply
        (Family.HEISENBERG, 1, 3),
        (Family.GP, 0, 0),
    ]
    for fam, row, col in corruptions:
        corrupted = dict(baseline)
        corrupted[fam] = enumerate_orbits(h4_model(fam, p), _corrupt_generators(fam, p, row, col))
        sig = _signals(corrupted)
        assert sig != base_sig, f"corrupting {fam.value}[{row}][{col}] went undetected"
        counts, n_comp, rows = sig
        assert (
            counts[fam] != ORBIT_COUNTS[fam](p)
            or n_comp != 5 * p + 32
            or rows != base_sig[2]
        )
    print("PASS criterion 9: single-entry corruption of each family's action matrix is detected")


# single-entry corruptions at p = 5 that the orbit-side checks let through
UNCHANGED_AT_P5 = {"p2xp:1:1", "elem_abelian:6:6", "heisenberg:3:3"}  # one primitive root for another: same partition
UNDETECTED_AT_P5 = {
    "gp:1:0": "(delta, gamma) -> (4 delta, delta + gamma) moves the partition, but no representative, size, count "
    "or Morita component; only a partition-level check would see it",
}


@pytest.mark.parametrize("p", [3, 5])
def test_every_single_entry_corruption_fails_an_orbit_check(p, indices_for):
    # each --corrupt spec, run through the orbit-side checks of verify
    baseline = indices_for(p)
    specs = 0
    unchanged, survivors = set(), set()
    for fam in FAMILIES:
        k = len(h4_model(fam, p).basis)
        for row, col in product(range(k), repeat=2):
            specs += 1
            indices = dict(baseline)
            indices[fam] = enumerate_orbits(h4_model(fam, p), _corrupt_generators(fam, p, row, col))
            if all(c.ok for c in _orbit_checks(indices)):
                states = np.arange(h4_model(fam, p).total_order)
                same = np.array_equal(indices[fam].ids(states), baseline[fam].ids(states))
                (unchanged if same else survivors).add(f"{fam.value}:{row}:{col}")
    assert specs == 79
    assert unchanged == (set() if p == 3 else UNCHANGED_AT_P5)
    assert survivors == (set() if p == 3 else set(UNDETECTED_AT_P5))


def test_consistency_checks_pass(graph_for):
    for p in (3, 5):
        bad = [c for c in consistency_checks(graph_for(p)) if not c.ok]
        assert not bad, "\n".join(c.line() for c in bad)
