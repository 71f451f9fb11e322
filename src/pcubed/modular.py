"""Small exact-arithmetic helpers for Z/m with m an odd prime power."""

from functools import lru_cache
from math import gcd


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def inverse_mod(a: int, m: int) -> int:
    a, m = int(a), int(m)
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    return pow(a, -1, m)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p: 0, 1 or -1."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def units(m: int) -> list[int]:
    return [a for a in range(1, m) if gcd(a, m) == 1]


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return factors + [n] if n > 1 else factors


@lru_cache(maxsize=None)
def primitive_root(m: int) -> int:
    """Smallest positive primitive root mod m (m an odd prime power).

    g is a primitive root when its order is the whole of phi(m), i.e. when
    ``g**(phi(m) // r) != 1`` for every prime r dividing phi(m).
    """
    phi = m
    for r in prime_factors(m):
        phi = phi // r * (r - 1)
    tests = [phi // r for r in prime_factors(phi)]
    for g in range(2, m):
        if gcd(g, m) == 1 and all(pow(g, e, m) != 1 for e in tests):
            return g
    raise ValueError(f"no primitive root mod {m}")


def least_nonsquare(m: int) -> int:
    """Smallest unit mod m that is not a square of a unit (m odd prime power)."""
    squares = {u * u % m for u in units(m)}
    for a in units(m):
        if a not in squares:
            return a
    raise ValueError(f"all units mod {m} are squares")
