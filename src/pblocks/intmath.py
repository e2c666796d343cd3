"""Exact integer arithmetic shared by every layer of the pipeline.

The integer test for inputs, primality, factorization, p-adic valuations
and exact logarithms, the multiplicative order of a residue, and the
determinant of an integer matrix.  All inputs are small (group orders,
field sizes, Cartan matrices), so plain trial division and fraction-free
elimination suffice.
"""

from __future__ import annotations

import math

import numpy as np


def is_int(x) -> bool:
    """Tell whether x is an exact integer: an int or numpy integer, not a bool, float or string."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_prime(n: int) -> bool:
    """Test primality by trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorint(n: int) -> dict:
    """Return the prime factorization of n as a prime -> exponent dict, primes ascending."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def p_valuation(n: int, p: int) -> int:
    """Return the exponent of the prime p in the nonzero integer n."""
    if p < 2:
        raise ValueError(f"valuation base {p} is not a prime")
    if n == 0:
        raise ValueError("zero has no finite p-adic valuation")
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def is_p_power(n: int, p: int) -> bool:
    """Test whether n is a power of p, counting 1 as the zeroth power."""
    if p < 2:
        raise ValueError(f"power base {p} is not a prime")
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def int_log(n: int, p: int) -> int:
    """Return log base p of an exact power of p."""
    if not is_p_power(n, p):
        raise ValueError(f"{n} is not a power of {p}")
    return p_valuation(n, p)


def multiplicative_order(a: int, n: int) -> int:
    """Return the multiplicative order of a modulo n, for a coprime to n."""
    if n == 1:
        return 1
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible modulo {n}")
    cur = a % n
    order = 1
    while cur != 1:
        cur = (cur * a) % n
        order += 1
    return order


def int_det(rows) -> int:
    """Return the exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
