"""Exact arithmetic in cyclotomic fields.

A value is stored as exact rational coordinates over the power basis
1, z, ..., z^(phi(n)-1) of the n-th cyclotomic field, where z is a fixed
primitive n-th root of unity and n is the value's conductor.  Products
reduce through precomputed integer tables of the basis relation given by
the n-th cyclotomic polynomial; values with different conductors lift to
the least common multiple before combining.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


# -- cyclotomic polynomials -------------------------------------------------------

def _divisors(n: int) -> list:
    """Return the sorted divisors of n."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _z_div_exact(num: list, den: tuple) -> list:
    """Divide integer polynomials exactly (den monic), constant term first."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        if c == 0:
            continue
        k = i - (len(den) - 1)
        out[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise ArithmeticError("division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Return the integer coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("conductor must be positive")
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in _divisors(n)[:-1]:
        num = _z_div_exact(num, cyclotomic_poly(d))
    return tuple(num)


def euler_phi(n: int) -> int:
    """Return Euler's totient of n."""
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple:
    """Return integer basis coordinates of z^j for j up to max(n, 2*phi(n)-1)."""
    phi = euler_phi(n)
    reduction = tuple(-c for c in cyclotomic_poly(n)[:phi])
    length = max(n, 2 * phi - 1)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(length):
        rows.append(tuple(cur))
        spill = cur[phi - 1]
        cur = [0] + cur[:-1]
        if spill:
            for i in range(phi):
                cur[i] += spill * reduction[i]
    return tuple(rows)


# -- values -----------------------------------------------------------------------

class Cyc:
    """Exact cyclotomic value over the power basis of its conductor."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int, coords):
        phi = euler_phi(conductor)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != phi:
            raise ValueError(f"expected {phi} coordinates for conductor {conductor}")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("cyclotomic values are immutable")

    # -- construction helpers

    @staticmethod
    def zero(conductor: int = 1) -> "Cyc":
        """Return zero at the given conductor."""
        return Cyc(conductor, [0] * euler_phi(conductor))

    @staticmethod
    def rational(q, conductor: int = 1) -> "Cyc":
        """Return a rational number as a cyclotomic value."""
        coords = [Fraction(q)] + [Fraction(0)] * (euler_phi(conductor) - 1)
        return Cyc(conductor, coords)

    @staticmethod
    def root(conductor: int, k: int = 1) -> "Cyc":
        """Return the k-th power of the fixed primitive conductor-th root."""
        row = _power_table(conductor)[k % conductor]
        return Cyc(conductor, row)

    # -- structure

    def lift(self, conductor: int) -> "Cyc":
        """Rewrite the value at a larger conductor (a multiple of the current one)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("can only lift to a multiple of the conductor")
        return self._substitute(conductor, conductor // self.conductor)

    def _substitute(self, conductor: int, s: int) -> "Cyc":
        """Send basis power z^i to the (i s)-th power of the conductor-th root."""
        table = _power_table(conductor)
        out = [Fraction(0)] * euler_phi(conductor)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, c in enumerate(table[(i * s) % conductor]):
                if c:
                    out[j] += a * c
        return Cyc(conductor, out)

    def is_zero(self) -> bool:
        """Test whether the value is zero."""
        return all(c == 0 for c in self.coords)

    def as_rational(self):
        """Return the value as a Fraction when it is rational, else None."""
        if any(self.coords[1:]):
            return None
        return self.coords[0]

    def as_int(self):
        """Return the value as an int when it is a rational integer, else None."""
        q = self.as_rational()
        if q is None or q.denominator != 1:
            return None
        return int(q)

    def galois(self, k: int) -> "Cyc":
        """Apply the Galois automorphism sending the conductor root to its k-th power."""
        if gcd(k, self.conductor) != 1:
            raise ValueError("Galois exponent must be invertible mod the conductor")
        return self._substitute(self.conductor, k)

    def conj(self) -> "Cyc":
        """Return the complex conjugate."""
        if self.conductor <= 2:
            return self
        return self.galois(self.conductor - 1)

    def sort_key(self, conductor: int | None = None) -> tuple:
        """Return a deterministic comparison key at a common conductor."""
        v = self.lift(conductor) if conductor else self
        return v.coords

    # -- arithmetic

    def _pair(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.rational(other)
        if self.conductor == other.conductor:
            return self, other
        n = lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyc(a.conductor, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.conductor, [-x for x in self.coords])

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyc(a.conductor, [x - y for x, y in zip(a.coords, b.coords)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(self.conductor, [c * Fraction(other) for c in self.coords])
        a, b = self._pair(other)
        n = a.conductor
        phi = euler_phi(n)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, x in enumerate(a.coords):
            if x == 0:
                continue
            for j, y in enumerate(b.coords):
                if y:
                    conv[i + j] += x * y
        table = _power_table(n)
        out = [Fraction(0)] * phi
        for k, c in enumerate(conv):
            if c == 0:
                continue
            row = table[k]
            for j in range(phi):
                if row[j]:
                    out[j] += c * row[j]
        return Cyc(n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._pair(other)
        return a.coords == b.coords

    def __repr__(self):
        return f"Cyc({self.conductor}, {list(self.coords)!r})"

    def __str__(self):
        q = self.as_rational()
        if q is not None:
            return str(q)
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                power = f"z{self.conductor}" if i == 1 else f"z{self.conductor}^{i}"
                terms.append(f"{head}{power}")
        return " + ".join(terms).replace("+ -", "- ")


# -- finite field images ---------------------------------------------------------------

def rational_to_field(q, F) -> int:
    """Map a rational with denominator prime to char(F) into the prime subfield."""
    q = Fraction(q)
    num = q.numerator % F.p
    den = q.denominator % F.p
    if den == 0:
        raise ZeroDivisionError("denominator vanishes in the field")
    return F.mul(num, F.inv(den))


def cyc_to_field(value: Cyc, F, zeta: int, exponent: int) -> int:
    """Map a cyclotomic value into F by the ring map sending z_exponent to zeta.

    zeta must satisfy zeta^exponent = 1 in F, and the value's conductor must
    divide exponent; basis power i of the value then maps to
    zeta^(i * exponent / conductor).
    """
    if exponent % value.conductor:
        raise ValueError("value conductor does not divide the exponent")
    step = exponent // value.conductor
    acc = 0
    for i, a in enumerate(value.coords):
        if a == 0:
            continue
        root = F.pow(zeta, (i * step) % exponent)
        acc = F.add(acc, F.mul(rational_to_field(a, F), root))
    return acc
