"""Small exact-arithmetic helpers: Z/m, elimination mod a prime, the
permutation test for matrices on mixed moduli, quadratic substitutions,
mixed radix."""

from functools import lru_cache
from math import gcd

import numpy as np


def is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases 2..41, which is exact for n below
    3.3 * 10**24 (no composite there is a strong pseudoprime to all of them)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")


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


def least_nonsquare(p: int) -> int:
    """Smallest nonsquare mod an odd prime p."""
    for a in range(2, p):
        if legendre(a, p) == -1:
            return a
    raise ValueError(f"all units mod {p} are squares")


def rank_and_det_mod(mat, p: int) -> tuple[int, int | None]:
    """Rank of an integer matrix mod a prime p (2 included) and, when the
    matrix is square, its determinant mod p (``None`` otherwise)."""
    a = [[int(x) % p for x in row] for row in mat]
    rows, cols = len(a), len(a[0]) if a else 0
    rank, det = 0, 1
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det = det * a[rank][col] % p
        inv = pow(a[rank][col], -1, p)
        for r in range(rank + 1, rows):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank, (det % p if rows == cols else None)


def is_automorphism(mat, moduli) -> bool:
    """Whether ``mat`` permutes the states mod ``moduli``.

    By Burnside's basis theorem an endomorphism of a finite abelian r-group is
    onto exactly when it is onto mod r, so ``mat`` is a bijection exactly when,
    for each prime r, its rows and columns with r dividing the modulus form a
    matrix that is invertible mod r.
    """
    for r in {r for m in moduli for r in prime_factors(int(m))}:
        idx = [i for i, m in enumerate(moduli) if m % r == 0]
        if rank_and_det_mod(np.asarray(mat)[np.ix_(idx, idx)], r)[1] == 0:
            return False
    return True


def quadratic_substitution_matrix(sub: np.ndarray, pairs, p: int) -> np.ndarray:
    """Action mod p on the coefficients of the quadratic monomials y_i y_j,
    (i, j) in ``pairs``, under the substitution y_i -> sum_j sub[i, j] y_j:
    column c holds the coefficients of the image of monomial ``pairs[c]``.
    Leading axes of ``sub`` are a stack of substitutions, giving a stack of
    matrices."""
    sub = np.asarray(sub, dtype=np.int64)
    k, l = np.array(pairs).T
    # coeff[..., c, a, b]: coefficient of y_a y_b in the image of y_i y_j, (i, j) = pairs[c]
    coeff = sub[..., k, :, None] * sub[..., l, None, :]
    m = coeff[..., k, l] + np.where(k != l, coeff[..., l, k], 0)
    return np.swapaxes(m, -1, -2) % p


def radix_weights(moduli) -> tuple[int, ...]:
    """Place values of big-endian mixed-radix numbers whose digit i runs mod ``moduli[i]``."""
    weights = [1]
    for m in moduli[:0:-1]:
        weights.append(weights[-1] * int(m))
    return tuple(weights[::-1])


def radix_digits(codes, radix) -> np.ndarray:
    """Big-endian mixed-radix digits of int64 ``codes``, one column per place."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes[..., None] // np.array(radix_weights(radix), dtype=np.int64) % np.asarray(radix, dtype=np.int64)


def gl_generators(n: int, p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Generators of GL(n, p): diag(g, 1, ..., 1) for the primitive root g,
    then, for n > 1, the n-cycle with 1 at (i, i + 1 mod n) and the shear
    with 1 at (0, 1)."""
    if n < 1:
        raise ValueError(f"dimension {n} must be at least 1")
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    diag = [row[:] for row in eye]
    diag[0][0] = primitive_root(p)
    mats = [diag]
    if n > 1:
        shear = [row[:] for row in eye]
        shear[0][1] = 1
        mats += [[eye[(i + 1) % n] for i in range(n)], shear]
    return tuple(tuple(map(tuple, m)) for m in mats)


def gl_generator_pair(n: int, p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Two generators of GL(n, p) (W. C. Waterhouse, "Two generators for the
    general linear groups over finite fields", Linear and Multilinear Algebra
    24, 1989): A = diag(g, 1, ..., 1), the first of ``gl_generators``, then,
    for n > 1, B with first row (-1, 0, ..., 0, 1) and -1 on the subdiagonal.
    At n = 1 that first row degenerates, and A alone generates GL(1, p)."""
    diag = gl_generators(n, p)[0]
    if n == 1:
        return (diag,)
    b = [[-int(j == i - 1) for j in range(n)] for i in range(n)]
    b[0][0], b[0][n - 1] = -1, 1
    return diag, tuple(map(tuple, b))
