"""Exact arithmetic in cyclotomic fields.

A value is stored over the power basis 1, z, ..., z^(phi(n)-1) of the n-th
cyclotomic field, where z is a fixed primitive n-th root of unity and n is
the value's conductor, as integer numerators over one positive common
denominator in lowest terms.  The power basis is an integral basis, so an
algebraic integer (every ordinary or Brauer character value) has
denominator 1 and its arithmetic runs on plain Python ints.  Products
reduce through precomputed integer tables of the basis relation given by
the n-th cyclotomic polynomial; values with different conductors lift to
the least common multiple before combining.  The same tables, as integer
matrices (power_rows) and as root sums (root_sum), serve callers that
work on whole coordinate arrays instead of one value at a time.  Table rows
sort by sort_keys, which reads only the powers its values need, not a
whole table at the common conductor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Rational

import numpy as np

from .intmath import factorint


# -- cyclotomic polynomials -------------------------------------------------------

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
    """Return the integer coefficients of the n-th cyclotomic polynomial.

    With q the largest prime factor of n and m = n / q, Phi_n(x) is
    Phi_m(x^q) when q divides m and Phi_m(x^q) / Phi_m(x) otherwise.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    q = max(factorint(n))
    m = n // q
    base = cyclotomic_poly(m)
    spread = [0] * ((len(base) - 1) * q + 1)
    spread[::q] = base
    if m % q == 0:
        return tuple(spread)
    return tuple(_z_div_exact(spread, base))


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


@lru_cache(maxsize=None)
def _power_array(n: int) -> np.ndarray:
    """Return ``_power_table(n)`` as one read-only int64 array."""
    table = np.array(_power_table(n), dtype=np.int64)
    table.flags.writeable = False
    return table


def power_rows(n: int, exponents) -> np.ndarray:
    """Return the int64 matrix whose rows are the basis coordinates of z_n^e.

    One row per given exponent e, any integer (it is read mod n).  A row
    vector of coefficients c_e times this matrix is the coordinate vector
    of sum c_e z_n^e, so basis reductions and Galois substitutions become
    one integer product.
    """
    return _power_array(n)[np.asarray(exponents, dtype=np.int64) % n]


def _reduced_powers(n: int, exponents) -> np.ndarray:
    """Return the rows of power_rows(n, exponents), for n > 1 and 0 <= e < n, without the table.

    For e >= phi(n), x^e = Q Phi_n + R with R the wanted row.  Phi_n is
    palindromic, so Q read from the top is the power series 1/Phi_n, and
    the low phi(n) coefficients of Q Phi_n are -R.  The series is the
    product of (x^d - 1)^(-mu(n/d)) over the divisors d of n (Moebius
    inversion of x^n - 1 = prod Phi_d): one shift per factor it multiplies
    by, then one strided cumulative sum per factor it divides by.  So each
    partial result is the series times the factors still to divide by, and
    its coefficients stay small.
    """
    poly = np.array(cyclotomic_poly(n), dtype=np.int64)
    phi = len(poly) - 1
    size = max(exponents, default=0) - phi + 1
    series = np.zeros(max(size, 1), dtype=np.int64)
    series[0] = 1
    divisors = [(n, 1)]
    for q in factorint(n):
        divisors += [(d // q, -mu) for d, mu in divisors]
    for d, mu in sorted(divisors, key=lambda t: t[1]):
        if mu < 0:
            # times x^d - 1
            series = np.concatenate([np.zeros(d, dtype=np.int64), series])[: len(series)] - series
        else:
            # over x^d - 1, as -(1 + x^d + x^2d + ...)
            padded = np.zeros(-(-len(series) // d) * d, dtype=np.int64)
            padded[: len(series)] = series
            series = -padded.reshape(-1, d).cumsum(axis=0).ravel()[: len(series)]
    rows = np.zeros((len(exponents), phi), dtype=np.int64)
    for i, e in enumerate(exponents):
        if e < phi:
            rows[i, e] = 1
        else:
            rows[i] = -np.convolve(series[e - phi :: -1][:phi], poly[:phi])[:phi]
    return rows


# -- values -----------------------------------------------------------------------

def _make(conductor: int, num, den: int) -> "Cyc":
    """Build a value from integer numerators over a positive denominator, in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [x // g for x in num]
    value = object.__new__(Cyc)
    object.__setattr__(value, "conductor", conductor)
    object.__setattr__(value, "_num", tuple(num))
    object.__setattr__(value, "_den", den)
    return value


class Cyc:
    """Exact cyclotomic value over the power basis of its conductor.

    ``Cyc(conductor, coords)`` takes one rational coordinate per basis power
    (ints, Fractions or any other ``numbers.Rational``); anything inexact,
    such as a float or a string, raises TypeError.  The value is kept as
    integer numerators over one positive denominator in lowest terms, so a
    value has one representation per conductor.  ``coords`` reads the
    coordinates back: ints when the denominator is 1, Fractions otherwise.
    """

    __slots__ = ("conductor", "_num", "_den")

    def __init__(self, conductor: int, coords):
        phi = euler_phi(conductor)
        coords = tuple(coords)
        if len(coords) != phi:
            raise ValueError(f"expected {phi} coordinates for conductor {conductor}")
        if all(type(c) is int for c in coords):
            num, den = coords, 1
        else:
            for c in coords:
                if not isinstance(c, Rational):
                    raise TypeError(f"coordinate {c!r} is not a rational number")
            # each coordinate is in lowest terms, so over the lcm of the
            # denominators the numerators share no factor with it
            den = lcm(*(int(c.denominator) for c in coords))
            num = tuple(int(c.numerator) * (den // int(c.denominator)) for c in coords)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("cyclotomic values are immutable")

    def __reduce__(self):
        return (_make, (self.conductor, self._num, self._den))

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates: ints when the denominator is 1, else Fractions."""
        if self._den == 1:
            return self._num
        return tuple(Fraction(x, self._den) for x in self._num)

    # -- construction helpers

    @staticmethod
    def zero(conductor: int = 1) -> "Cyc":
        """Return zero at the given conductor."""
        return _make(conductor, (0,) * euler_phi(conductor), 1)

    @staticmethod
    def rational(q, conductor: int = 1) -> "Cyc":
        """Return a rational number as a cyclotomic value."""
        return Cyc(conductor, (q,) + (0,) * (euler_phi(conductor) - 1))

    @staticmethod
    def root(conductor: int, k: int = 1) -> "Cyc":
        """Return the k-th power of the fixed primitive conductor-th root."""
        return _make(conductor, _power_table(conductor)[k % conductor], 1)

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
        out = [0] * euler_phi(conductor)
        for i, a in enumerate(self._num):
            if a:
                for j, c in enumerate(table[(i * s) % conductor]):
                    if c:
                        out[j] += a * c
        return _make(conductor, out, self._den)

    def as_rational(self):
        """Return the value as a Fraction when it is rational, else None."""
        if any(self._num[1:]):
            return None
        return Fraction(self._num[0], self._den)

    def as_int(self):
        """Return the value as an int when it is a rational integer, else None."""
        if self._den != 1 or any(self._num[1:]):
            return None
        return self._num[0]

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

    # -- arithmetic

    def _pair(self, other):
        """Return both operands at a common conductor, or None for a non-rational scalar."""
        if not isinstance(other, Cyc):
            if not isinstance(other, Rational):
                return None
            return self, Cyc.rational(other, self.conductor)
        if self.conductor == other.conductor:
            return self, other
        n = lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        ad, bd = a._den, b._den
        if ad == bd:
            return _make(a.conductor, [x + y for x, y in zip(a._num, b._num)], ad)
        return _make(a.conductor, [x * bd + y * ad for x, y in zip(a._num, b._num)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, [-x for x in self._num], self._den)

    def __sub__(self, other):
        if not isinstance(other, (Cyc, Rational)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            if not isinstance(other, Rational):
                return NotImplemented
            k, d = int(other.numerator), int(other.denominator)
            return _make(self.conductor, [x * k for x in self._num], self._den * d)
        a, b = self._pair(other)
        n = a.conductor
        phi = euler_phi(n)
        conv = [0] * (2 * phi - 1)
        bnum = b._num
        for i, x in enumerate(a._num):
            if x:
                for j, y in enumerate(bnum):
                    if y:
                        conv[i + j] += x * y
        # basis powers below phi are their own coordinates; only the rest reduce
        out = conv[:phi]
        table = _power_table(n)
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                for j, t in enumerate(table[k]):
                    if t:
                        out[j] += c * t
        return _make(n, out, a._den * b._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._den == b._den and a._num == b._num

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


def root_sum(n: int, mults) -> Cyc:
    """Return sum_s mults[s] z_n^s, s = 0 .. n-1, as a value at conductor n.

    ``mults`` holds n integers (an int64 or object array, or any
    sequence); the coordinates are one integer product with the first n
    rows of the power table and come back as Python ints, the value that
    adding ``Cyc.root(n, s) * mults[s]`` one term at a time gives.
    """
    return Cyc(n, (np.asarray(mults) @ _power_array(n)[:n]).tolist())


def sort_keys(rows, conductor: int) -> list:
    """Return one comparison key per row of values: their coordinates at one conductor.

    conductor is a multiple of every value's conductor, and a row's key is
    the tuple of its values' coordinates after a lift to it, so a sort by
    these keys is deterministic.  A rational value q keys as (q, 0, ..., 0)
    with no lift.  Each distinct irrational value is lifted once, by one
    product with the rows of z^j for just the exponents j that its own
    conductor m reaches, j = (conductor / m) i for i < phi(m).
    """
    zeros = (0,) * (euler_phi(conductor) - 1)
    distinct = {(v.conductor, v._num, v._den) for row in rows for v in row if any(v._num[1:])}
    lifted = {}
    for m in {key[0] for key in distinct}:
        keys = [key for key in distinct if key[0] == m]
        lift = _reduced_powers(conductor, (conductor // m) * np.arange(euler_phi(m)))
        nums = np.array([key[1] for key in keys], dtype=object) @ lift
        for key, num in zip(keys, nums.tolist()):
            lifted[key] = _make(conductor, num, key[2]).coords
    return [
        tuple(
            lifted[(v.conductor, v._num, v._den)] if any(v._num[1:]) else (v.coords[0],) + zeros
            for v in row
        )
        for row in rows
    ]


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
    zeta^(i * exponent / conductor).  The numerators map first and the sum
    is scaled once by the inverse of the denominator, which raises
    ZeroDivisionError when char(F) divides it.
    """
    if exponent % value.conductor:
        raise ValueError("value conductor does not divide the exponent")
    step = exponent // value.conductor
    acc = 0
    for i, a in enumerate(value._num):
        a %= F.p
        if a:
            acc = F.add(acc, F.mul(a, F.pow(zeta, (i * step) % exponent)))
    if value._den != 1:
        acc = F.mul(acc, rational_to_field(Fraction(1, value._den), F))
    return acc
