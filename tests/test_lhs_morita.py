import csv
import hashlib
import io
import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcubed import lhs_morita, published
from pcubed.groups import FAMILIES, Family
from pcubed.h4_models import h4_model
from pcubed.lhs_morita import (
    CASES,
    all_edges,
    consistency_checks,
    emit_table,
    morita_components,
    omega,
    verify_pages,
)

from oracles import least_members

CASE_IDS = (
    "A=Zp2.K=Zp.trivial",
    "A=Zp2.K=Zp.twisted",
    "A=Zp.K=Zp2.trivial",
    "A=ZpZp.K=Zp.trivial",
    "A=Zp.K=ZpZp.trivial",
    "A=ZpZp.K=Zp.twisted",
)


def test_cases_and_realized_families():
    assert [c.case_id for c in CASES] == list(CASE_IDS)
    realized = {c.case_id: {r.family for r in c.realized} for c in CASES}
    assert realized[CASE_IDS[0]] == {Family.CYCLIC, Family.P2XP}
    assert realized[CASE_IDS[1]] == {Family.GP}
    assert realized[CASE_IDS[2]] == {Family.CYCLIC, Family.P2XP}
    assert realized[CASE_IDS[3]] == {Family.ELEM_ABELIAN, Family.P2XP}
    assert realized[CASE_IDS[4]] == {
        Family.ELEM_ABELIAN,
        Family.P2XP,
        Family.HEISENBERG,
        Family.GP,
    }
    assert realized[CASE_IDS[5]] == {Family.HEISENBERG, Family.GP}


def test_case_k_invariants():
    case5 = CASES[4]
    kinv = {r.family: r.k_invariant for r in case5.realized}
    assert kinv[Family.ELEM_ABELIAN] == "0"
    assert kinv[Family.P2XP] == "y1"
    assert kinv[Family.HEISENBERG] == "x1x2"
    assert kinv[Family.GP] == "y2+x1x2"


@pytest.mark.parametrize("p", [3, 5])
def test_omega_orders(p):
    # zero span for the twisted (Z/p)^2 extension of the order-p^2 group
    om = omega(CASES[5], Family.GP, p)
    assert om.order == 1
    assert om.contains_codes(om.model.encode((0,) * len(om.model.basis)))
    # order p, quotient side only
    om = omega(CASES[0], Family.CYCLIC, p)
    assert om.order == p and om.sub_order == 1 and om.quot_order == p
    # order p^2 with bases p^2 s^2 and p s^2
    om = omega(CASES[2], Family.CYCLIC, p)
    assert om.order == p * p
    assert om.sub_basis == (("s^2", p * p),) and om.quot_basis == (("s^2", p),)
    cyc = h4_model(Family.CYCLIC, p)
    assert om.contains_codes(cyc.encode(cyc.cls((p,)).coeffs))
    assert not om.contains_codes(cyc.encode(cyc.cls((1,)).coeffs))
    # the central-extension span is the whole Heisenberg model
    om = omega(CASES[4], Family.HEISENBERG, p)
    assert om.order == p**4
    # and the (Z/p)^3 span misses exactly the y3^2 coordinate
    om = omega(CASES[4], Family.ELEM_ABELIAN, p)
    assert om.order == p**6
    E = h4_model(Family.ELEM_ABELIAN, p)
    assert not om.contains_codes(E.encode(E.cls((0, 0, 1, 0, 0, 0, 0)).coeffs))


def test_omega_unrealized_family_rejected():
    with pytest.raises(ValueError):
        omega(CASES[1], Family.HEISENBERG, 3)


@pytest.mark.parametrize("p", [3, 5])
def test_omega_order_factors(p):
    for case in CASES:
        for realized in case.realized:
            om = omega(case, realized.family, p)
            assert om.order == om.sub_order * om.quot_order


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_pages(p):
    checks = verify_pages(p)
    failures = [c for c in checks if not c.ok]
    assert not failures, "\n".join(c.line() for c in failures)


def test_swapped_k_invariants_fail_their_own_pages(monkeypatch):
    # the rank-2 page walker reads each member's kappa from its k_invariant label
    kinv = {Family.P2XP: "y2+x1x2", Family.GP: "y1"}
    case = CASES[4]
    swapped = replace(case, realized=tuple(
        replace(r, k_invariant=kinv.get(r.family, r.k_invariant)) for r in case.realized
    ))
    monkeypatch.setattr(lhs_morita, "CASES", CASES[:4] + (swapped,) + CASES[5:])
    failed = {c.name for c in verify_pages(3) if not c.ok}
    prefix = f"pages.{case.case_id}."
    assert any(n.startswith(prefix + "p2xp.") for n in failed)
    assert any(n.startswith(prefix + "gp.") for n in failed)
    assert all(n.startswith((prefix + "p2xp.", prefix + "gp.")) for n in failed), sorted(failed)


def test_split_rank1_member_k_invariant_drives_its_pages(monkeypatch):
    # the (Z/p)^3 member of CASES[3] builds its d2 from its own k_invariant label
    case = CASES[3]
    relabeled = replace(case, realized=tuple(
        replace(r, k_invariant="y1") if r.family is Family.ELEM_ABELIAN else r for r in case.realized
    ))
    monkeypatch.setattr(lhs_morita, "CASES", CASES[:3] + (relabeled,) + CASES[4:])
    failed = {c.name for c in verify_pages(3) if not c.ok}
    prefix = f"pages.{case.case_id}.elem_abelian."
    assert failed == {prefix + f"cell{cell}" for cell in ((0, 3), (1, 3), (2, 2), (3, 2))}


def test_product_rank1_member_k_invariant_drives_its_page3(monkeypatch):
    # with kappa = 0 the Z/p^2 x Z/p member's d2 vanishes: (0, 3) and (1, 3) survive,
    # and their images no longer arrive in (2, 2) and (3, 2)
    case = CASES[3]
    relabeled = replace(case, realized=tuple(
        replace(r, k_invariant="0") if r.family is Family.P2XP else r for r in case.realized
    ))
    monkeypatch.setattr(lhs_morita, "CASES", CASES[:3] + (relabeled,) + CASES[4:])
    failed = {c.name for c in verify_pages(3) if not c.ok}
    prefix = f"pages.{case.case_id}.p2xp.page3."
    assert failed == {prefix + f"cell{cell}" for cell in ((0, 3), (1, 3), (2, 2), (3, 2))}


def _case_rows(case, p):
    """The rows of every edge family of one case, ``(0, 4)`` for a case without edges."""
    return np.concatenate([np.empty((0, 4), dtype=np.int64), *(edge.rows(p) for edge in case.edges)])


def _decoded(rows, p):
    """(family, coefficients, family, coefficients) of each edge row."""
    return [
        (FAMILIES[lf], h4_model(FAMILIES[lf], p).decode(lc), FAMILIES[rf], h4_model(FAMILIES[rf], p).decode(rc))
        for lf, lc, rf, rc in rows.tolist()
    ]


def test_edge_examples():
    p = 3
    [edge] = _decoded(_case_rows(CASES[0], p), p)
    assert edge == (Family.CYCLIC, (0,), Family.P2XP, (0, 1, 0))

    e6 = _decoded(_case_rows(CASES[5], p), p)
    assert len(e6) == p
    left_family, left, _, right = e6[0]
    assert left_family is Family.GP and left == (0, 0)
    assert right == (0, 0, 0, 1)  # z1z2

    e5 = _decoded(_case_rows(CASES[4], p), p)
    gp_k1 = [right for fam, left, _, right in e5 if fam is Family.GP and left == (0, 1)]
    assert gp_k1 == [(1, 0, 0, 0, 0, 1, p - 1)]

    assert _case_rows(CASES[1], p).shape == (0, 4)


@pytest.mark.parametrize("p", [3, 5])
def test_edges_lie_in_omega_spans(p):
    for case in CASES:
        for left_family, left, right_family, right in _decoded(_case_rows(case, p), p):
            for fam, coeffs in (left_family, left), (right_family, right):
                assert omega(case, fam, p).contains_codes(h4_model(fam, p).encode(coeffs))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_edge_count(p):
    edges = all_edges(p)
    assert edges.dtype == np.int64 and edges.shape == (p**3 + 4 * p + 2, 4)


# sha256 of the sorted (family, coefficients, family, coefficients) edge rows,
# written from the edge lists built as class pairs, one pair per edge
EDGE_DIGESTS = {
    3: "79bf7b35ab352af35160cec4ac53a87a0996964d11b8b27cf5dea976bc3cfe34",
    5: "800044b3a97998fce9563a74c2bdc7b447cc7428558eec0b7ef84619d51ae8e7",
    7: "6a8e4ad94d9daf9d889676fb852a17f4d26beb8785adee439d0d13e51b4d2a21",
}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_edge_rows_are_pinned(p):
    rows = sorted((lf.value, left, rf.value, right) for lf, left, rf, right in _decoded(all_edges(p), p))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == EDGE_DIGESTS[p]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_component_counts(p, graph_for):
    graph = graph_for(p)
    assert len(graph.components) == sum(published.morita_histogram(p).values()) == 5 * p + 32
    hist = graph.size_histogram()
    assert hist.get(2, 0) == p + 9
    assert hist.get(3, 0) == 1
    assert max(hist) == 3
    assert len(graph.nontrivial()) == p + 10


@pytest.mark.parametrize("p", [3, 5])
def test_triple_component_contents(p, graph_for):
    graph = graph_for(p)
    triple = next(c for c in graph.components if len(c) == 3)
    families = [fam for fam, _ in triple]
    assert families == [Family.ELEM_ABELIAN, Family.HEISENBERG, Family.GP]
    by_fam = dict(triple)
    assert not any(by_fam[Family.GP].coeffs)
    E = h4_model(Family.ELEM_ABELIAN, p)
    H = h4_model(Family.HEISENBERG, p)
    assert graph.indices[Family.ELEM_ABELIAN].orbit_of(
        E.cls((0, 0, 0, 0, 0, 1, 1))
    ).rep == by_fam[Family.ELEM_ABELIAN]
    assert graph.indices[Family.HEISENBERG].orbit_of(H.cls((0, 0, 0, 1))).rep == by_fam[Family.HEISENBERG]


def test_edges_in_omega_failure_names_its_case_and_family(graph_for, monkeypatch):
    # y3² lies outside the (Z/p)^3 span of the central extension over a rank-2 base
    case = CASES[4]
    moved = replace(case.edges[0], coeffs=lambda p, k: ((0, 0, k), (0, k, 1, 0, 1, 0, 0)))
    patched = replace(case, edges=(moved, *case.edges[1:]))
    monkeypatch.setattr(lhs_morita, "CASES", CASES[:4] + (patched,) + CASES[5:])
    [check] = [c for c in consistency_checks(graph_for(3)) if c.name == "consistency.edges_in_omega"]
    assert not check.ok
    assert case.case_id in check.detail and Family.ELEM_ABELIAN.value in check.detail, check.detail


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6 * 5 + 42), min_size=1, max_size=12), max_size=8))
def test_components_match_union_find(indices_for, chains):
    # chains of random orbit representatives at p = 5: the real edge graphs have
    # components of at most 3 nodes, these have paths long enough to need many rounds
    p = 5
    indices = indices_for(p)
    nodes = [(fam, orbit.rep) for fam in FAMILIES for orbit in indices[fam].orbits]
    assert len(nodes) == 6 * p + 43
    pairs = [(a, b) for chain in chains for a, b in zip(chain, chain[1:])]

    def end(i):
        fam, rep = nodes[i]
        return [FAMILIES.index(fam), rep.model.encode(rep.coeffs)]

    rows = np.array([end(a) + end(b) for a, b in pairs], dtype=np.int64).reshape(-1, 4)
    least = least_members(len(nodes), pairs)
    expected = {frozenset(nodes[i] for i in range(len(nodes)) if least[i] == root) for root in set(least)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lhs_morita, "all_edges", lambda q: rows)
        graph = morita_components(p, indices=indices)
    assert {frozenset(comp) for comp in graph.components} == expected


def test_duplicate_edges_are_harmless(graph_for, monkeypatch):
    p = 3
    graph = graph_for(p)
    doubled = np.concatenate([all_edges(p), all_edges(p)])
    monkeypatch.setattr(lhs_morita, "all_edges", lambda q: doubled)
    again = morita_components(p, indices=graph.indices)
    assert len(again.components) == len(graph.components)


def test_emit_markdown(graph_for):
    text = emit_table(graph_for(3), fmt="md")
    lines = [l for l in text.splitlines() if l.startswith("|")]
    assert len(lines) == 2 + 13  # header, separator, p+10 rows
    assert "nontrivial Morita classes: 13" in text
    assert "(h = 1)" in text


def test_emit_csv(graph_for):
    text = emit_table(graph_for(5), fmt="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 1 + 15
    assert rows[0][0] == "Z/125"


def test_emit_json_round_trip(graph_for):
    blob = json.loads(emit_table(graph_for(3), fmt="json"))
    assert blob["p"] == 3
    assert blob["h"] == 1
    assert len(blob["components"]) == 47
    sizes = sorted(len(c["members"]) for c in blob["components"])
    assert sizes.count(1) == 34 and sizes.count(2) == 12 and sizes.count(3) == 1


def test_nontrivial_rows_block_structure(graph_for):
    rows = [dict(comp) for comp in graph_for(3).nontrivial()]
    blocks = [tuple(sorted(f.value for f in row)) for row in rows]
    # three cyclic/product rows, then product/elementary, then the mixed blocks
    assert blocks[:3] == [("cyclic", "p2xp")] * 3
    assert blocks[3:6] == [("elem_abelian", "p2xp")] * 3
    assert blocks[6:10] == [("elem_abelian", "heisenberg")] * 4
    assert blocks[10] == ("elem_abelian", "gp", "heisenberg")
    assert blocks[11:] == [("elem_abelian", "gp")] * 2


@pytest.mark.parametrize("p", [3, 5])
def test_components_do_not_depend_on_edge_order(p, indices_for, graph_for, monkeypatch):
    expected = graph_for(p).components  # built before all_edges is patched
    edges = all_edges(p)
    for seed in range(5):
        order = list(range(len(edges)))
        random.Random(seed).shuffle(order)
        shuffled = edges[order]
        monkeypatch.setattr(lhs_morita, "all_edges", lambda q: shuffled)
        graph = morita_components(p, indices=indices_for(p))
        assert graph.components == expected, seed
