"""Tests for exact cyclotomic arithmetic."""

import cmath
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np
import pytest

from pblocks import cyclotomic
from pblocks.cyclotomic import (
    Cyc,
    coordinates,
    cyc_to_field,
    cyclotomic_poly,
    euler_phi,
    power_rows,
    rational_to_field,
    root_sum,
    sort_keys,
)
from pblocks.chartab import character_table, lifting_prime
from pblocks.corpus import (
    alternating_group,
    cyclic_group,
    mathieu_group_11,
    projective_special_linear_2_7,
)
from pblocks.ffield import field_create
from pblocks.modrep import ReductionContext, brauer_table


def cyc_zero(conductor: int = 1) -> Cyc:
    """Return zero at a conductor, as a start for sums of values there."""
    return Cyc.rational(0, conductor)


def numeric(v: Cyc) -> complex:
    """Evaluate a cyclotomic value as a complex float."""
    z = cmath.exp(2j * cmath.pi / v.conductor)
    return sum(float(c) * z ** i for i, c in enumerate(v.coords))


def random_value(rng: random.Random, conductor: int) -> Cyc:
    """Draw a small random value at the given conductor."""
    phi = euler_phi(conductor)
    coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)]
    return Cyc(conductor, coords)


class TestCyclotomicPoly:
    def test_known_small(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6,
                 10: 4, 11: 10, 12: 4, 30: 8, 36: 12, 63: 36, 126: 36}
        for n, phi in known.items():
            assert euler_phi(n) == phi

    def test_coefficient_minus_two_at_105(self):
        assert cyclotomic_poly(105)[7] == -2

    def test_product_over_divisors(self):
        # multiplying Phi_d over all divisors d of n gives x^n - 1
        for n in range(1, 400):
            prod = [1]
            for d in range(1, n + 1):
                if n % d:
                    continue
                f = cyclotomic_poly(d)
                out = [0] * (len(prod) + len(f) - 1)
                for j, b in enumerate(f):
                    if b:
                        for i, a in enumerate(prod):
                            out[i + j] += a * b
                prod = out
            expected = [0] * (n + 1)
            expected[0] = -1
            expected[n] = 1
            assert prod == expected


class TestRootIdentities:
    def test_root_power_wraps(self):
        z = Cyc.root(12)
        acc = Cyc.rational(1, 12)
        for k in range(1, 25):
            acc = acc * z
            assert acc == Cyc.root(12, k)
        assert Cyc.root(12, 12) == 1

    def test_geometric_sum_vanishes(self):
        for n in (2, 3, 4, 5, 6, 8, 9, 12):
            total = cyc_zero(n)
            for k in range(n):
                total = total + Cyc.root(n, k)
            assert total == 0

    def test_fourth_root_squares_to_minus_one(self):
        assert Cyc.root(4) * Cyc.root(4) == -1

    def test_mixed_conductor_identity(self):
        # the primitive sixth root equals minus the square of the cube root
        assert Cyc.root(6) == -(Cyc.root(3, 2))

    def test_root_satisfies_its_polynomial(self):
        for n in (5, 8, 9, 12, 15):
            z = Cyc.root(n)
            acc = cyc_zero(n)
            for i, c in enumerate(cyclotomic_poly(n)):
                if c:
                    acc = acc + Cyc.root(n, i) * c
            assert acc == 0
            assert z != 0


class TestRootSums:
    def test_root_sum_matches_term_by_term_sums(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 4, 8, 11, 12, 15):
            mults = [rng.randint(0, 9) for _ in range(n)]
            expected = cyc_zero(n)
            for s, mult in enumerate(mults):
                expected = expected + Cyc.root(n, s) * mult
            for given in (mults, np.array(mults, dtype=np.int64)):
                value = root_sum(n, given)
                assert value == expected and value.conductor == n
                assert value.coords == expected.coords
                assert all(type(c) is int for c in value.coords)

    def test_power_rows_are_root_coordinates(self):
        for n in (1, 2, 7, 8, 12, 88):
            exponents = [0, 1, -1, n + 3, 2 * euler_phi(n) - 2]
            rows = power_rows(n, exponents)
            assert rows.shape == (5, euler_phi(n)) and rows.dtype == np.int64
            for e, row in zip(exponents, rows.tolist()):
                expected = _oracle_reduce([0] * (e % n) + [1], n)
                assert row == expected
                assert list(Cyc.root(n, e).coords) == expected

    def test_power_rows_conjugate_and_lift(self):
        rng = random.Random(8)
        n, big = 8, 88
        value = random_value(rng, n)
        phi = euler_phi(n)
        conj = np.array(value.coords, dtype=object) @ power_rows(n, -np.arange(phi))
        assert Cyc(n, conj.tolist()) == value.conj()
        lifted = np.array(value.coords, dtype=object) @ power_rows(big, 11 * np.arange(phi))
        assert Cyc(big, lifted.tolist()) == value.lift(big)


class TestArithmetic:
    def test_numeric_oracle_mul(self):
        rng = random.Random(11)
        for n in (3, 4, 5, 8, 9, 12):
            for _ in range(6):
                a = random_value(rng, n)
                b = random_value(rng, n)
                exact = numeric(a * b)
                approx = numeric(a) * numeric(b)
                assert abs(exact - approx) < 1e-8

    def test_numeric_oracle_mixed_conductors(self):
        rng = random.Random(12)
        pairs = [(3, 4), (4, 6), (8, 12), (5, 6), (9, 6)]
        for na, nb in pairs:
            a = random_value(rng, na)
            b = random_value(rng, nb)
            assert abs(numeric(a + b) - (numeric(a) + numeric(b))) < 1e-8
            assert abs(numeric(a * b) - (numeric(a) * numeric(b))) < 1e-8

    def test_ring_axioms_sampled(self):
        rng = random.Random(13)
        for _ in range(8):
            n = rng.choice([4, 6, 8, 9, 12])
            a, b, c = (random_value(rng, n) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a * b == b * a
            assert a + (-a) == 0

    def test_scalar_operations(self):
        a = Cyc.root(5) + Cyc.rational(Fraction(1, 2), 5)
        assert a * 2 == 2 * a
        assert a - a == 0
        assert (a * Fraction(3, 7)) * Fraction(7, 3) == a

    def test_lift_preserves_value(self):
        rng = random.Random(14)
        for n, m in [(3, 12), (4, 8), (6, 36), (1, 5)]:
            a = random_value(rng, n)
            lifted = a.lift(m)
            assert lifted.conductor == m
            assert lifted == a
            assert abs(numeric(lifted) - numeric(a)) < 1e-8

    def test_lift_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            Cyc.root(4).lift(6)


class TestGalois:
    def test_automorphism_is_multiplicative(self):
        rng = random.Random(15)
        for n, k in [(5, 2), (8, 3), (12, 5), (9, 2)]:
            a = random_value(rng, n)
            b = random_value(rng, n)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)

    def test_galois_permutes_roots(self):
        assert Cyc.root(8).galois(3) == Cyc.root(8, 3)
        assert Cyc.root(12, 2).galois(5) == Cyc.root(12, 10)

    def test_galois_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Cyc.root(8).galois(2)

    def test_conjugation(self):
        for n in (3, 4, 5, 8, 12):
            z = Cyc.root(n)
            assert z * z.conj() == 1
            assert abs(numeric(z.conj()) - numeric(z).conjugate()) < 1e-10
        a = Cyc.root(5) + Cyc.root(5, 4)
        assert a.conj() == a

    def test_norm_is_positive_rational(self):
        rng = random.Random(16)
        for n in (5, 8, 12):
            a = random_value(rng, n)
            norm = a * a.conj()
            val = numeric(norm)
            assert abs(val.imag) < 1e-9
            assert val.real >= -1e-9


class TestInterface:
    def test_rational_detection(self):
        assert Cyc.rational(Fraction(3, 2), 8).as_rational() == Fraction(3, 2)
        assert Cyc.root(8).as_rational() is None
        assert (Cyc.root(5) * 0).as_rational() == 0
        assert Cyc.rational(7, 12).as_rational() == 7
        assert type(Cyc.rational(7, 12).coords[0]) is int
        assert Cyc.rational(Fraction(1, 2)).as_rational() == Fraction(1, 2)

    def test_equality_across_conductors(self):
        assert Cyc.rational(2, 3) == Cyc.rational(2, 8)
        assert Cyc.rational(2, 3) == 2
        assert Cyc.root(3) != Cyc.root(4)

    def test_sort_key_total_order(self):
        vals = [Cyc.root(12, k) for k in range(12)]
        keys = sort_keys([[v] for v in vals], 12)
        assert len(set(keys)) == 12
        assert sorted(keys) == sorted(keys, key=tuple)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 105, 420, 1320])
    def test_reduced_powers_match_the_power_table(self, n):
        # power_rows against x^e mod Phi_n by the test's own long division and against
        # the complex value z_n^e, for every e below 2n + 4 and three negative ones
        expected = _oracle_power_rows(n, 2 * n + 4)
        exponents = list(range(2 * n + 4)) + [-1, -euler_phi(n), -n - 2]
        rows = power_rows(n, exponents)
        assert rows.tolist() == [expected[e if e >= 0 else e % n] for e in exponents]
        values = rows @ np.exp(2j * np.pi * np.arange(euler_phi(n)) / n)
        assert np.abs(values - np.exp(2j * np.pi * np.array(exponents) / n)).max() < 1e-6

    @pytest.mark.parametrize("conductor", [24, 264, 1320])
    def test_sort_keys_are_the_lifted_coordinates(self, conductor):
        rng = random.Random(conductor)
        divisors = [m for m in (1, 2, 3, 4, 8, 11, 12) if conductor % m == 0]
        rows = [[random_value(rng, rng.choice(divisors)) for _ in range(5)] for _ in range(6)]
        rows.append([Cyc.rational(Fraction(-5, 3), 3), Cyc.rational(7), Cyc(3, [-1, 0])] * 2)
        rows.append(rows[0])
        lifted = [tuple(v.lift(conductor).coords for v in row) for row in rows]
        assert sort_keys(rows, conductor) == lifted

    def test_lift_to_a_non_multiple_raises(self):
        with pytest.raises(ValueError):
            sort_keys([[Cyc.root(5)]], 12)
        with pytest.raises(ValueError):
            coordinates([Cyc.root(4)], 6)

    def test_coordinates_share_one_denominator(self):
        # a rational value needs no lift, so its conductor need not divide the target
        values = [Cyc.rational(Fraction(3, 2), 5), Cyc.root(3) * Fraction(1, 3), Cyc.root(12, 3)]
        nums, den = coordinates(values, 12)
        assert den == 6
        assert nums.tolist() == [[9, 0, 0, 0], [-2, 0, 2, 0], [0, 0, 0, 6]]
        for value, line in zip(values, nums.tolist()):
            assert Cyc(12, [Fraction(x, den) for x in line]) == value

    def test_a_value_at_the_target_conductor_keeps_its_numerators(self, monkeypatch):
        lifts = []
        lift_rows = cyclotomic._lift_rows

        def recording_lift(m, n):
            lifts.append((m, n))
            return lift_rows(m, n)

        monkeypatch.setattr(cyclotomic, "_lift_rows", recording_lift)
        values = [Cyc.root(12, 5) * Fraction(2, 3), Cyc.root(12) + Cyc.root(12, 2), Cyc.root(4)]
        nums, den = coordinates(values, 12)
        assert lifts == [(4, 12)]
        assert den == 3
        for value, line in zip(values[:2], nums.tolist()):
            assert line == [int(c * den) for c in value.coords]
        assert Cyc(12, [Fraction(x, den) for x in nums[2]]) == values[2]

    def test_immutability(self):
        z = Cyc.root(5)
        with pytest.raises(AttributeError):
            z.coords = ()

    def test_str_forms(self):
        assert str(Cyc.rational(Fraction(5, 2), 4)) == "5/2"
        assert "z8" in str(Cyc.root(8) + 1)


@lru_cache(maxsize=None)
def _oracle_cyclotomic(n: int) -> tuple:
    """Phi_n, constant term first: x^n - 1 divided exactly by Phi_d for each proper divisor d.

    The oracles below reduce by this polynomial, so they share no code with
    the power series that gives cyclotomic_poly and power_rows.
    """
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _oracle_cyclotomic(d)
            quot = [0] * (len(num) - len(den) + 1)
            for k in range(len(quot) - 1, -1, -1):
                c = quot[k] = num[k + len(den) - 1]
                for j, m in enumerate(den):
                    num[k + j] -= c * m
            assert not any(num)
            num = quot
    return tuple(num)


def _oracle_reduce(coeffs: list, n: int) -> list:
    """Reduce a Fraction polynomial modulo Phi_n by long division; return phi(n) coordinates."""
    modulus = _oracle_cyclotomic(n)
    deg = len(modulus) - 1
    rem = list(coeffs) + [Fraction(0)] * max(0, deg - len(coeffs))
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if c:
            for j, m in enumerate(modulus):
                rem[top - deg + j] -= c * m
    return rem[:deg]


def _oracle_power(n: int, k: int) -> list:
    """Coordinates of z_n^k, as x^k modulo Phi_n."""
    return _oracle_reduce([Fraction(0)] * k + [Fraction(1)], n)


def _oracle_power_rows(n: int, count: int) -> list:
    """Coordinates of x^e modulo Phi_n for e < count, each one long-division step from the last."""
    modulus = _oracle_cyclotomic(n)
    rem = [1] + [0] * (len(modulus) - 2)
    rows = []
    for _ in range(count):
        rows.append(rem)
        # x * rem: the top coefficient reaches x^phi, which Phi_n (monic) removes
        rem = [r - rem[-1] * m for r, m in zip([0] + rem[:-1], modulus)]
    return rows


def _oracle_mul(a: list, b: list, n: int) -> list:
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _oracle_reduce(prod, n)


def _oracle_substitute(a: list, n: int, m: int, s: int) -> list:
    """Send x^i at conductor n to the (i s)-th power of z_m."""
    out = [Fraction(0)] * (len(cyclotomic_poly(m)) - 1)
    for i, x in enumerate(a):
        for j, c in enumerate(_oracle_power(m, (i * s) % m)):
            out[j] += x * c
    return out


def _oracle_value(rng: random.Random, n: int) -> list:
    """Random Fraction coordinates with mixed denominators, some zero."""
    return [
        Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6, 9])) if rng.random() < 0.8
        else Fraction(0)
        for _ in range(len(cyclotomic_poly(n)) - 1)
    ]


def _assert_matches(value: Cyc, n: int, expected: list):
    assert value.conductor == n
    assert list(value.coords) == expected
    assert value == Cyc(n, expected)


class TestFractionOracle:
    """Compare Cyc with Fraction polynomials reduced modulo Phi_n, sharing no code with Cyc."""

    def test_ring_operations_at_each_conductor(self):
        rng = random.Random(21)
        for n in range(1, 25):
            for _ in range(3):
                a, b = _oracle_value(rng, n), _oracle_value(rng, n)
                x, y = Cyc(n, a), Cyc(n, b)
                _assert_matches(x + y, n, [u + v for u, v in zip(a, b)])
                _assert_matches(x - y, n, [u - v for u, v in zip(a, b)])
                _assert_matches(-x, n, [-u for u in a])
                _assert_matches(x * y, n, _oracle_mul(a, b, n))
                q = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                _assert_matches(x * q, n, [u * q for u in a])
                _assert_matches(x * 3, n, [u * 3 for u in a])

    def test_galois_and_lift(self):
        rng = random.Random(22)
        for n in range(1, 25):
            a = _oracle_value(rng, n)
            x = Cyc(n, a)
            for k in range(1, n + 1):
                if gcd(k, n) == 1:
                    _assert_matches(x.galois(k), n, _oracle_substitute(a, n, n, k))
            for m in (2 * n, 3 * n):
                _assert_matches(x.lift(m), m, _oracle_substitute(a, n, m, m // n))

    def test_mixed_conductors(self):
        rng = random.Random(23)
        for _ in range(30):
            n, m = rng.randint(1, 24), rng.randint(1, 24)
            a, b = _oracle_value(rng, n), _oracle_value(rng, m)
            top = n * m // gcd(n, m)
            la = _oracle_substitute(a, n, top, top // n)
            lb = _oracle_substitute(b, m, top, top // m)
            x, y = Cyc(n, a), Cyc(m, b)
            _assert_matches(x + y, top, [u + v for u, v in zip(la, lb)])
            _assert_matches(x - y, top, [u - v for u, v in zip(la, lb)])
            _assert_matches(x * y, top, _oracle_mul(la, lb, top))


class TestRepresentation:
    def test_lowest_terms(self):
        assert Cyc(4, [Fraction(2, 4), 1]) == Cyc(4, [Fraction(1, 2), 1])
        half = Cyc.rational(Fraction(1, 2)) * 2
        assert half.coords == (1,) and type(half.coords[0]) is int
        # (1 + i)/2 * (1 - i)/2 = 1/2
        i = Cyc.root(4)
        prod = ((1 + i) * Fraction(1, 2)) * ((1 - i) * Fraction(1, 2))
        assert prod.coords == (Fraction(1, 2), 0)
        assert prod.as_rational() == Fraction(1, 2)
        cancel = (i * Fraction(1, 3) + Fraction(2, 3)) - (i * Fraction(1, 3) + Fraction(-1, 3))
        assert cancel.coords == (1, 0)
        assert all(type(c) is int for c in cancel.coords)

    def test_rejects_inexact_coordinates(self):
        with pytest.raises(TypeError):
            Cyc(4, [0.1, 0])
        with pytest.raises(TypeError):
            Cyc(4, ["1/2", 0])
        with pytest.raises(TypeError):
            Cyc.rational(0.5)
        with pytest.raises(TypeError):
            Cyc.root(4) * 0.5

    def test_accepts_numpy_integers(self):
        v = Cyc(4, [np.int64(3), np.int32(-2)])
        assert v.coords == (3, -2)
        assert all(type(c) is int for c in v.coords)
        big = Cyc.root(4) * np.int64(2 ** 40) * np.int64(2 ** 40)
        assert big.coords == (0, 2 ** 80)

    def test_table_values_are_int_coordinates(self):
        a5 = alternating_group(5)
        tables = [
            character_table(group, seed=0).rows
            for group in (a5, projective_special_linear_2_7(), mathieu_group_11())
        ]
        tables.append(brauer_table(a5, 2, seed=0).rows)
        for rows in tables:
            for row in rows:
                for value in row:
                    assert all(type(c) is int for c in value.coords), value


class TestFieldImage:
    def test_rational_to_field(self):
        F = field_create(7)
        assert rational_to_field(Fraction(1, 2), F) == 4
        assert rational_to_field(-1, F) == 6
        with pytest.raises(ZeroDivisionError):
            rational_to_field(Fraction(1, 7), F)

    def test_cube_root_into_gf4(self):
        F = field_create(2, 2)
        w = F.root_of_unity(3)
        total = Cyc.root(3) + Cyc.root(3, 2) + 1
        assert cyc_to_field(total, F, w, 3) == 0
        assert cyc_to_field(Cyc.root(3), F, w, 3) == w

    def test_eighth_root_into_gf9(self):
        F = field_create(3, 2)
        z = F.root_of_unity(8)
        minus_one = Cyc.root(8, 4)
        assert cyc_to_field(minus_one, F, z, 8) == F.neg(1)
        val = Cyc.root(8) * 2 + Fraction(1, 2)
        expected = F.add(F.mul(2, z), rational_to_field(Fraction(1, 2), F))
        assert cyc_to_field(val, F, z, 8) == expected

    def test_denominator_divisible_by_p(self):
        F = field_create(2, 2)
        w = F.root_of_unity(3)
        with pytest.raises(ZeroDivisionError):
            cyc_to_field((Cyc.root(3) + 1) * Fraction(1, 2), F, w, 3)
        G = field_create(7)
        u = G.root_of_unity(3)
        value = (Cyc.root(3) + 1) * Fraction(1, 6)
        assert cyc_to_field(value, G, u, 3) == G.mul(G.add(u, 1), G.inv(6))


def _sample_values(exponent: int) -> list:
    """A few cyclotomic values of mixed conductors dividing the exponent."""
    rng = random.Random(exponent)
    divisors = [d for d in range(1, exponent + 1) if exponent % d == 0]
    out = [cyc_zero(), Cyc.rational(1), Cyc.rational(Fraction(-2, 7))]
    for _ in range(6):
        n = rng.choice(divisors)
        val = cyc_zero(n)
        for k in range(n):
            if rng.random() < 0.5:
                val = val + Cyc.root(n, k) * Fraction(rng.randint(-3, 3), rng.choice([1, 7]))
        out.append(val)
    return out


_GROUPS = {"A5": lambda: alternating_group(5), "C12": lambda: cyclic_group(12)}


@pytest.mark.parametrize(
    "name, p", [("A5", 2), ("A5", 5), ("A5", None), ("C12", 3), ("C12", None)]
)
def test_field_image_is_ring_homomorphism(name, p):
    # p=None embeds at the lifting prime instead of a prime dividing the order
    group = _GROUPS[name]()
    e = group.exponent()
    if p is None:
        F = field_create(lifting_prime(group.order(), e))
        image = lambda v: cyc_to_field(v, F, F.root_of_unity(e), e)
    else:
        ctx = ReductionContext(group, p)
        F = ctx.field
        image = ctx.reduce
    values = _sample_values(e)
    for a in values:
        for b in values:
            assert image(a * b) == F.mul(image(a), image(b))
            assert image(a + b) == F.add(image(a), image(b))
