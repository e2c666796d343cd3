"""Exact arithmetic in cyclotomic fields.

A value is stored over the power basis 1, z, ..., z^(phi(n)-1) of the n-th
cyclotomic field, where z is a fixed primitive n-th root of unity and n is
the value's conductor, as integer numerators over one positive common
denominator in lowest terms.  The power basis is an integral basis, so an
algebraic integer (every ordinary or Brauer character value) has
denominator 1 and its arithmetic runs on plain Python ints.

Every basis coordinate of a power z_n^e comes from one algorithm: the
power series 1/Phi_n, a Moebius product of binomials x^d - 1, read as the
quotient of x^e by Phi_n (the same product gives Phi_n itself).  Two caches
hold its rows: z_n^0 .. z_n^(n-1) per conductor, which root_sum,
power_rows and the products of values read, and the lift rows
z_n^((n/m) i), i < phi(m), per pair of conductors.  coordinates is the one
lift of many values to a common conductor, as integer numerators over one
denominator, and sort_keys, the Gram matrices of chartab and the exact
check of integral expansions in blocks all read it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from numbers import Rational

import numpy as np

from .intmath import factorint


# -- cyclotomic polynomials -------------------------------------------------------

def _moebius_product(n: int, length: int, sign: int) -> np.ndarray:
    """Return the first length coefficients of the power series Phi_n^sign, sign = 1 or -1.

    Phi_n is the product of (x^d - 1)^mu(n/d) over the divisors d of n
    (Moebius inversion of x^n - 1 = prod Phi_d).  Every factor the series
    multiplies by comes first, as one shift each, then every factor it
    divides by, as one strided cumulative sum each.  So each partial result
    is the series times the factors still to divide by, and its
    coefficients stay small.
    """
    series = np.zeros(length, dtype=np.int64)
    series[0] = 1
    divisors = [(n, 1)]
    for q in factorint(n):
        divisors += [(d // q, -mu) for d, mu in divisors]
    for d, mu in sorted(divisors, key=lambda t: -sign * t[1]):
        if sign * mu > 0:
            # times x^d - 1
            series = np.concatenate([np.zeros(d, dtype=np.int64), series])[:length] - series
        else:
            # over x^d - 1, as -(1 + x^d + x^2d + ...)
            padded = np.zeros(-(-length // d) * d, dtype=np.int64)
            padded[:length] = series
            series = -padded.reshape(-1, d).cumsum(axis=0).ravel()[:length]
    return series


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Return the integer coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("conductor must be positive")
    phi = n
    for q in factorint(n):
        phi -= phi // q
    return tuple(_moebius_product(n, phi + 1, 1).tolist())


def euler_phi(n: int) -> int:
    """Return Euler's totient of n."""
    return len(cyclotomic_poly(n)) - 1


def _powers(n: int, exponents) -> np.ndarray:
    """Return the int64 rows of basis coordinates of z_n^e, one per exponent 0 <= e < n.

    A row with e < phi(n) is the basis vector e.  Otherwise x^e = Q Phi_n + R
    with R the wanted row.  For n > 1, Phi_n is palindromic, so Q read from
    the top is the power series 1/Phi_n, and the low phi(n) coefficients of
    Q Phi_n are -R.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    if n == 1:
        return np.ones((len(exponents), 1), dtype=np.int64)
    poly = np.array(cyclotomic_poly(n), dtype=np.int64)
    phi = len(poly) - 1
    series = _moebius_product(n, max(int(exponents.max(initial=0)) - phi + 1, 1), -1)
    rows = np.zeros((len(exponents), phi), dtype=np.int64)
    for i, e in enumerate(exponents.tolist()):
        if e < phi:
            rows[i, e] = 1
        else:
            rows[i] = -np.convolve(series[e - phi :: -1][:phi], poly[:phi])[:phi]
    return rows


@lru_cache(maxsize=None)
def _power_array(n: int) -> np.ndarray:
    """Return the read-only rows of z_n^0 .. z_n^(n-1)."""
    table = _powers(n, np.arange(n))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _lift_rows(m: int, n: int) -> np.ndarray:
    """Return the read-only rows of z_n^((n/m) i), i < phi(m): the lift from conductor m to n.

    Only these phi(m) rows are computed, never the whole table at n.
    """
    if n % m:
        raise ValueError("can only lift to a multiple of the conductor")
    rows = _powers(n, (n // m) * np.arange(euler_phi(m)))
    rows.flags.writeable = False
    return rows


def power_rows(n: int, exponents) -> np.ndarray:
    """Return the int64 matrix whose rows are the basis coordinates of z_n^e.

    One row per given exponent e, any integer (it is read mod n).  A row
    vector of coefficients c_e times this matrix is the coordinate vector
    of sum c_e z_n^e, so basis reductions and Galois substitutions become
    one integer product.
    """
    return _power_array(n)[np.asarray(exponents, dtype=np.int64) % n]


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
    def rational(q, conductor: int = 1) -> "Cyc":
        """Return a rational number as a cyclotomic value."""
        return Cyc(conductor, (q,) + (0,) * (euler_phi(conductor) - 1))

    @staticmethod
    def root(conductor: int, k: int = 1) -> "Cyc":
        """Return the k-th power of the fixed primitive conductor-th root."""
        return _make(conductor, _power_array(conductor)[k % conductor].tolist(), 1)

    # -- structure

    def lift(self, conductor: int) -> "Cyc":
        """Rewrite the value at a larger conductor (a multiple of the current one)."""
        if conductor == self.conductor:
            return self
        num = np.array(self._num, dtype=object) @ _lift_rows(self.conductor, conductor)
        return _make(conductor, num.tolist(), self._den)

    def as_rational(self):
        """Return the value as a Fraction when it is rational, else None."""
        if any(self._num[1:]):
            return None
        return Fraction(self._num[0], self._den)

    def galois(self, k: int) -> "Cyc":
        """Apply the Galois automorphism sending the conductor root to its k-th power."""
        n = self.conductor
        if gcd(k, n) != 1:
            raise ValueError("Galois exponent must be invertible mod the conductor")
        num = np.array(self._num, dtype=object) @ power_rows(n, k * np.arange(len(self._num)))
        return _make(n, num.tolist(), self._den)

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
        conv = np.convolve(np.array(a._num, dtype=object), np.array(b._num, dtype=object))
        out = conv @ power_rows(a.conductor, np.arange(len(conv)))
        return _make(a.conductor, out.tolist(), a._den * b._den)

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
    sequence); the coordinates are one integer product with the rows of
    z_n^0 .. z_n^(n-1) and come back as Python ints, the value that adding
    ``Cyc.root(n, s) * mults[s]`` one term at a time gives.
    """
    return Cyc(n, (np.asarray(mults) @ _power_array(n)).tolist())


def coordinates(values, conductor: int) -> tuple:
    """Return values at one conductor as (nums, den): integer numerators over one denominator.

    nums is an object array of Python ints with one row of phi(conductor)
    numerators per value, and den > 0 is the lcm of the values'
    denominators.  A rational value goes into column 0 with no lift, so
    only the irrational values' conductors must divide conductor; one that
    does not raises ValueError, as Cyc.lift does.  Each distinct irrational
    value is lifted once, by one integer product with the rows of z^j for
    just the exponents j that its own conductor m reaches,
    j = (conductor / m) i for i < phi(m); a value already at conductor
    keeps its numerators, only scaled to den.
    """
    values = list(values)
    den = lcm(*(v._den for v in values))
    nums = np.zeros((len(values), euler_phi(conductor)), dtype=object)
    irrational = {}
    for i, v in enumerate(values):
        if any(v._num[1:]):
            irrational.setdefault((v.conductor, v._num, v._den), []).append(i)
        else:
            nums[i, 0] = v._num[0] * (den // v._den)
    for (m, num, d), rows in irrational.items():
        scaled = np.array(num, dtype=object) * (den // d)
        nums[rows] = scaled if m == conductor else scaled @ _lift_rows(m, conductor)
    return nums, den


def sort_keys(rows, conductor: int) -> list:
    """Return one comparison key per row of values: their coordinates at one conductor.

    A row's key is the tuple of its values' coordinates from
    ``coordinates(values, conductor)``, ints when every value has
    denominator 1 and Fractions otherwise, so a sort by these keys is
    deterministic.
    """
    nums, den = coordinates([v for row in rows for v in row], conductor)
    if den != 1:
        nums = nums * Fraction(1, den)
    keys = map(tuple, nums.tolist())
    return [tuple(islice(keys, len(row))) for row in rows]


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
