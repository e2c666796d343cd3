"""Tests for exact cyclotomic arithmetic."""

import cmath
import random
from fractions import Fraction

import pytest

from pblocks.cyclotomic import (
    Cyc,
    cyc_to_field,
    cyclotomic_poly,
    euler_phi,
    rational_to_field,
)
from pblocks.chartab import lifting_prime
from pblocks.corpus import alternating_group, cyclic_group
from pblocks.ffield import field_create
from pblocks.modrep import ReductionContext


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
        for n in (6, 12, 18, 20):
            prod = [1]
            for d in range(1, n + 1):
                if n % d:
                    continue
                f = cyclotomic_poly(d)
                out = [0] * (len(prod) + len(f) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(f):
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
            total = Cyc.zero(n)
            for k in range(n):
                total = total + Cyc.root(n, k)
            assert total.is_zero()

    def test_fourth_root_squares_to_minus_one(self):
        assert Cyc.root(4) * Cyc.root(4) == -1

    def test_mixed_conductor_identity(self):
        # the primitive sixth root equals minus the square of the cube root
        assert Cyc.root(6) == -(Cyc.root(3, 2))

    def test_root_satisfies_its_polynomial(self):
        for n in (5, 8, 9, 12, 15):
            z = Cyc.root(n)
            acc = Cyc.zero(n)
            for i, c in enumerate(cyclotomic_poly(n)):
                if c:
                    acc = acc + Cyc.root(n, i) * c
            assert acc.is_zero()
            assert not z.is_zero()


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
        assert Cyc.rational(7, 12).as_int() == 7
        assert Cyc.rational(Fraction(1, 2)).as_int() is None

    def test_equality_across_conductors(self):
        assert Cyc.rational(2, 3) == Cyc.rational(2, 8)
        assert Cyc.rational(2, 3) == 2
        assert Cyc.root(3) != Cyc.root(4)

    def test_sort_key_total_order(self):
        vals = [Cyc.root(12, k) for k in range(12)]
        keys = [v.sort_key(12) for v in vals]
        assert len(set(keys)) == 12
        assert sorted(keys) == sorted(keys, key=tuple)

    def test_immutability(self):
        z = Cyc.root(5)
        with pytest.raises(AttributeError):
            z.coords = ()

    def test_str_forms(self):
        assert str(Cyc.rational(Fraction(5, 2), 4)) == "5/2"
        assert "z8" in str(Cyc.root(8) + 1)


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


def _sample_values(exponent: int) -> list:
    """A few cyclotomic values of mixed conductors dividing the exponent."""
    rng = random.Random(exponent)
    divisors = [d for d in range(1, exponent + 1) if exponent % d == 0]
    out = [Cyc.zero(), Cyc.rational(1), Cyc.rational(Fraction(-2, 7))]
    for _ in range(6):
        n = rng.choice(divisors)
        val = Cyc.zero(n)
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
