import time
from math import gcd

import pytest

from pcubed.modular import is_prime, primitive_root, units


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
