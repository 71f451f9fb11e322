import random
import time
from itertools import permutations
from math import gcd, isqrt, prod

import numpy as np
import pytest

from pcubed import modular
from pcubed.modular import (
    is_prime, least_nonsquare, primitive_root, quadratic_substitution_matrix, rank_and_det_mod, units,
)


def _brute_force_root(m):
    """The definition: the smallest unit whose powers run through every unit."""
    n = len(units(m))
    for g in range(2, m):
        if gcd(g, m) != 1:
            continue
        x, order = g, 1
        while x != 1:
            x = x * g % m
            order += 1
        if order == n:
            return g
    return None


def test_is_prime_matches_trial_division_below_10_5():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if by_trial_division(n)]


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to the nine prime bases 2..23
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


ODD_PRIME_POWERS = sorted(
    p**e for p in range(3, 2001) if is_prime(p) for e in range(1, 8) if p**e <= 2000
)


def test_primitive_root_matches_the_definition():
    for m in ODD_PRIME_POWERS:
        assert primitive_root(m) == _brute_force_root(m), m


@pytest.mark.parametrize("m", [1, 2, 8, 15, 21])
def test_no_primitive_root_is_a_value_error(m):
    with pytest.raises(ValueError, match="no primitive root"):
        primitive_root(m)


def test_primitive_root_of_a_large_prime_cube_is_immediate():
    # listing the 9.5e7 units mod 457**3 and walking powers took over a minute
    start = time.perf_counter()
    g = primitive_root.__wrapped__(457**3)
    assert time.perf_counter() - start < 1.0
    # 13 is the least primitive root mod 457 and it lifts, as 13**456 != 1 mod 457**2
    assert g == 13
    phi = 457**2 * 456
    assert all(pow(g, phi // r, 457**3) != 1 for r in (2, 3, 19, 457))


def _span_size(rows, p):
    span = {(0,) * len(rows[0])}
    for row in rows:
        span = {tuple((x + c * r) % p for x, r in zip(v, row)) for v in span for c in range(p)}
    return len(span)


def _leibniz_det(a, p):
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total % p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_and_det_mod_match_brute_force(p):
    # p = 2 is needed: the orbit engine eliminates mod every prime dividing a modulus
    rng = random.Random(p)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randrange(-p, 2 * p) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            a[-1] = [rng.randrange(p) * x for x in a[0]]
        rank, det = rank_and_det_mod(a, p)
        assert p**rank == _span_size(a, p), a
        assert det == (_leibniz_det(a, p) if rows == cols else None), a


def _least_nonsquare_by_squares(m):
    """The definition: the smallest unit mod m that is not the square of a unit."""
    squares = {u * u % m for u in units(m)}
    return next(a for a in units(m) if a not in squares)


def test_least_nonsquare_matches_the_definition_mod_p_and_p_squared():
    # consistency_checks uses the value mod p as the least nonsquare unit mod p^2
    for p in (p for p in range(3, 50) if is_prime(p)):
        assert least_nonsquare(p) == _least_nonsquare_by_squares(p) == _least_nonsquare_by_squares(p * p), p


def test_least_nonsquare_of_a_large_prime_is_immediate(monkeypatch):
    # listing the units mod 1000000007 to square them took over 20 s and grew without bound
    def listed(m):
        raise AssertionError(f"listed the units mod {m}")

    monkeypatch.setattr(modular, "units", listed)
    start = time.perf_counter()
    assert least_nonsquare(1000000007) == 5
    assert time.perf_counter() - start < 1.0


def _substitution_by_outer_products(sub, pairs, p):
    """Column by column: the coefficients of y_i y_j's image, from the outer
    product of the substituted rows i and j."""
    k, l = np.array(pairs).T
    m = np.empty((len(pairs), len(pairs)), dtype=np.int64)
    for col, (i, j) in enumerate(pairs):
        coeff = np.outer(sub[i], sub[j])
        m[:, col] = coeff[k, l] + np.where(k != l, coeff[l, k], 0)
    return m % p


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_substitution_matrix_of_a_stack_is_each_matrix_in_turn(n):
    p = 7
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    subs = np.random.default_rng(n).integers(0, p, size=(2, 5, n, n))
    stack = quadratic_substitution_matrix(subs, pairs, p)
    assert stack.shape == (2, 5, len(pairs), len(pairs))
    for sub, got in zip(subs.reshape(-1, n, n), stack.reshape(-1, len(pairs), len(pairs))):
        want = _substitution_by_outer_products(sub, pairs, p)
        assert (got == want).all()
        assert (quadratic_substitution_matrix(sub.tolist(), pairs, p) == want).all()
