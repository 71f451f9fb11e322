import math
import random
from itertools import product

import numpy as np
import pytest

from pcubed import quadforms
from pcubed.modular import gl_generator_pair
from pcubed.orbits import enumerate_orbit_ids
from pcubed.quadforms import (
    NONSQUARE,
    SQUARE,
    QuadForm,
    are_congruent,
    congruence_action,
    congruence_invariant,
    count_congruence_classes,
    representatives,
    select_h,
)

from oracles import congruent_by_search, matrix_group_closure


def test_polarization_of_cross_term():
    q = QuadForm.from_poly(2, 3, {(0, 1): 1})
    assert q.matrix == ((0, 2), (2, 0))  # 1/2 = 2 mod 3


def test_invariant_examples():
    z1z2 = QuadForm.from_poly(2, 3, {(0, 1): 1})
    inv = congruence_invariant(z1z2)
    assert inv.rank == 2 and inv.disc_class == NONSQUARE
    # hence congruent to g*z1^2 + z2^2 and not to z1^2 + z2^2 at p = 3
    assert are_congruent(z1z2, QuadForm.diagonal([2, 1], 3))
    assert not are_congruent(z1z2, QuadForm.diagonal([1, 1], 3))

    assert congruence_invariant(QuadForm.diagonal([0, 0, 0], 5)).rank == 0
    inv = congruence_invariant(QuadForm.diagonal([2, 1, 1], 5))
    assert inv.rank == 3 and inv.disc_class == NONSQUARE


def test_congruence_examples_p5():
    z1z2 = QuadForm.from_poly(2, 5, {(0, 1): 1})
    assert not are_congruent(z1z2, QuadForm.diagonal([2, 1], 5))
    assert are_congruent(z1z2, z1z2)
    # disc(z1z2) = -1/4, a square mod 5
    assert are_congruent(QuadForm.diagonal([1, 1], 5), z1z2)
    assert congruent_by_search(QuadForm.diagonal([1, 1], 5), z1z2)


def test_zero_diagonal_needs_pivot_fix():
    # no nonzero diagonal entry, yet rank 2 from the off-diagonal terms
    q = QuadForm.from_poly(3, 7, {(0, 1): 1, (1, 2): 3})
    inv = congruence_invariant(q)
    assert inv.rank == 2


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 5), (3, 7)])
def test_representative_counts(n, expected):
    for p in (3, 5, 11):
        reps = representatives(n, p)
        assert len(reps) == expected
        invs = [congruence_invariant(q) for q in reps]
        assert len(set(invs)) == expected


def test_representatives_pairwise_noncongruent_by_literal_search():
    reps = representatives(2, 3)
    for i, q1 in enumerate(reps):
        for q2 in reps[i + 1 :]:
            assert not congruent_by_search(q1, q2)
            assert not are_congruent(q1, q2)


@pytest.mark.parametrize("p,h", [(3, 1), (5, 2), (7, 1), (11, 1), (13, 2)])
def test_select_h(p, h):
    assert select_h(p) == h
    # defining property: h z1^2 + z2^2 avoids the z1 z2 class
    z1z2 = QuadForm.from_poly(2, p, {(0, 1): 1})
    assert not are_congruent(QuadForm.diagonal([h, 1], p), z1z2)


def test_invariant_constant_on_congruence_orbits():
    rng = random.Random(20240817)
    for p in (3, 5, 7):
        for _ in range(60):
            n = rng.choice([2, 3])
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    mat[i][j] = mat[j][i] = rng.randrange(p)
            q = QuadForm.from_matrix(mat, p)
            while True:
                a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
                if round(np.linalg.det(a)) % p:
                    break
            moved = QuadForm.from_matrix((a.T @ np.array(q.matrix) @ a) % p, p)
            assert congruence_invariant(q) == congruence_invariant(moved)


def test_class_count_at_p17():
    # 17**6 = 24.1M forms, the first class count past p = 13
    assert count_congruence_classes(3, 17) == 7


@pytest.mark.parametrize("n,p,order", [(2, 3, 48), (2, 5, 480), (2, 7, 2016), (3, 3, 11232)])
def test_the_generator_pair_generates_gl(n, p, order):
    # |GL(n, p)| = prod (p^n - p^i)
    assert order == math.prod(p**n - p**i for i in range(n))
    assert len(matrix_group_closure(gl_generator_pair(n, p), [p] * n)) == order


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_pair_closure_ids_equal_the_three_generator_oracle(congruence_ids_for, n, p):
    # the library closes the forms under the generator pair, the oracle under
    # modular.gl_generators; both number orbits by their least code, the
    # library's read off the polynomial coefficients row by row, in which an
    # off-diagonal matrix entry counts twice
    ids, _, _ = enumerate_orbit_ids(*congruence_action(n, p))
    oracle = congruence_ids_for(n, p)
    rows, cols = np.triu_indices(n)
    upper = np.array(list(oracle))[:, rows, cols]
    codes = np.where(rows == cols, 1, 2) * upper % p @ p ** np.arange(len(rows) - 1, -1, -1)
    assert ids(codes).tolist() == list(oracle.values())


def test_invariants_agree_with_closure_oracle_all_pairs_n2(congruence_ids_for):
    for p in (3, 5):
        ids = congruence_ids_for(2, p)
        forms = list(ids)
        for m1, m2 in product(forms, forms):
            q1, q2 = QuadForm(p, m1), QuadForm(p, m2)
            assert are_congruent(q1, q2) == (ids[m1] == ids[m2])


def test_invariants_agree_with_closure_oracle_sampled_n3(congruence_ids_for):
    rng = random.Random(99)
    for p in (3, 5, 7):
        ids = congruence_ids_for(3, p)
        forms = list(ids)
        for _ in range(1000):
            m1, m2 = rng.choice(forms), rng.choice(forms)
            q1, q2 = QuadForm(p, m1), QuadForm(p, m2)
            assert are_congruent(q1, q2) == (ids[m1] == ids[m2])


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_invariant_partition_equals_closure_oracle_partition(congruence_ids_for, n, p):
    # every symmetric form, grouped once by its invariant and once by its
    # closure orbit: the two partitions of the whole space must coincide
    ids = congruence_ids_for(n, p)
    by_invariant, by_orbit = {}, {}
    for m, oid in ids.items():
        by_invariant.setdefault(congruence_invariant(QuadForm(p, m)), set()).add(m)
        by_orbit.setdefault(oid, set()).add(m)
    assert len(ids) == p ** (n * (n + 1) // 2)
    assert len(by_orbit) == 2 * n + 1
    assert set(map(frozenset, by_invariant.values())) == set(map(frozenset, by_orbit.values()))


def test_even_characteristic_rejected():
    with pytest.raises(ValueError):
        QuadForm.diagonal([1], 2)


@pytest.mark.parametrize("p", [1, 9, 15])
def test_non_prime_modulus_rejected(p):
    # at p = 9 the closure used to count 13 classes instead of failing
    with pytest.raises(ValueError, match="odd prime"):
        count_congruence_classes(2, p)
    with pytest.raises(ValueError):
        QuadForm.diagonal([1, 1], p)
    with pytest.raises(ValueError):
        representatives(2, p)
    with pytest.raises(ValueError):
        select_h(p)


def _no_generators(*args, **kwargs):
    raise AssertionError("the GL(n, p) generators were built")


@pytest.mark.parametrize("n", [0, -1])
def test_count_refuses_a_dimension_below_one(n, monkeypatch):
    monkeypatch.setattr(quadforms, "gl_generator_pair", _no_generators)
    with pytest.raises(ValueError, match=f"dimension {n} must be at least 1"):
        count_congruence_classes(n, 3)


@pytest.mark.parametrize("n", [0, -1])
def test_congruence_action_refuses_a_dimension_below_one(n, monkeypatch):
    monkeypatch.setattr(quadforms, "gl_generator_pair", _no_generators)
    with pytest.raises(ValueError, match=f"dimension {n} must be at least 1"):
        congruence_action(n, 3)


@pytest.mark.parametrize("n", [0, -1, 4])
def test_representatives_refuse_a_dimension_outside_one_to_three(n):
    with pytest.raises(ValueError, match=f"dimension {n} outside 1..3"):
        representatives(n, 3)
