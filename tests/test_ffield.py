"""Tests for exact finite field arithmetic and polynomial factorization."""

import random

import numpy as np
import pytest

from pblocks.errors import BudgetExceeded, CompositeCharacteristic
from pblocks.ffield import (
    _TableField,
    field_create,
    poly_add,
    poly_divmod,
    poly_factor,
    poly_gcd,
    poly_is_irreducible,
    poly_mul,
    poly_roots,
    poly_scale,
    poly_trim,
)


# -- construction ------------------------------------------------------------

def test_backend_selection():
    assert field_create(5).kind == "prime"
    assert field_create(65537).kind == "prime"
    assert field_create(2, 8).kind == "table"
    assert field_create(2, 16).kind == "table"
    assert field_create(2, 17).kind == "generic"
    assert field_create(3, 11).kind == "generic"


def test_composite_characteristic_rejected():
    for bad in (1, 4, 6, 9, 15):
        with pytest.raises(CompositeCharacteristic):
            field_create(bad, 2)


def test_field_size_cap():
    with pytest.raises(BudgetExceeded):
        field_create(2, 25)
    with pytest.raises(BudgetExceeded):
        field_create(3, 16)


def test_deterministic_modulus():
    assert field_create(2, 2).modulus == (1, 1, 1)
    assert field_create(2, 3).modulus == (1, 1, 0, 1)
    assert field_create(3, 2).modulus == (1, 0, 1)
    assert field_create(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)


def test_moduli_are_irreducible():
    for p, m in [(2, 5), (3, 4), (5, 3), (7, 2), (2, 17), (3, 11)]:
        F = field_create(p, m)
        base = field_create(p)
        assert len(F.modulus) == m + 1
        assert F.modulus[-1] == 1
        assert poly_is_irreducible(base, list(F.modulus))


def test_primitive_elements():
    assert field_create(2).primitive == 1
    assert field_create(3).primitive == 2
    assert field_create(5).primitive == 2
    assert field_create(7).primitive == 3
    assert field_create(2, 2).primitive == 2
    assert field_create(3, 2).primitive == 4
    assert field_create(3, 10).primitive == 34
    assert field_create(2, 16).primitive == 3


def _to_coeffs(F, a) -> tuple:
    """Return the base-p digits of an element code, lowest first: its polynomial coefficients."""
    a = int(a)
    out = []
    for _ in range(F.m):
        out.append(a % F.p)
        a //= F.p
    return tuple(out)


def _from_coeffs(F, coeffs) -> int:
    """Return the element code whose base-p digits are the given coefficients mod p."""
    code = 0
    for c in reversed(list(coeffs)):
        code = code * F.p + int(c) % F.p
    return code


def test_coeff_roundtrip():
    F = field_create(3, 4)
    for a in range(F.q):
        assert _from_coeffs(F, _to_coeffs(F, a)) == a


# -- field axioms ------------------------------------------------------------

def test_field_axioms_exhaustive_tiny():
    # every triple, for fields with at most 9 elements
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        F = field_create(p, m)
        els = range(F.q)
        for a in els:
            for b in els:
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_field_axioms_sampled():
    for p, m in [(13, 1), (5, 2), (3, 3), (2, 6), (3, 6), (2, 17), (3, 11), (2, 20)]:
        F = field_create(p, m)
        rng = random.Random(11)
        for _ in range(200):
            a = rng.randrange(F.q)
            b = rng.randrange(F.q)
            c = rng.randrange(F.q)
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)


def test_identities_and_inverses():
    for p, m in [(2, 1), (3, 2), (2, 4), (5, 2), (2, 17), (3, 11)]:
        F = field_create(p, m)
        sample = range(F.q) if F.q <= 1024 else random.Random(7).sample(range(F.q), 512)
        for a in sample:
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.mul(a, 0) == 0
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


def test_frobenius_is_additive():
    for p, m in [(2, 4), (3, 3), (5, 2), (2, 20)]:
        F = field_create(p, m)
        rng = random.Random(5)
        for _ in range(200):
            a = rng.randrange(F.q)
            b = rng.randrange(F.q)
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))
            assert F.pow(F.mul(a, b), p) == F.mul(F.pow(a, p), F.pow(b, p))


# -- multiplicative structure ---------------------------------------------------

def test_unit_group_exponent():
    for p, m in [(3, 2), (2, 4), (13, 1)]:
        F = field_create(p, m)
        for a in range(1, F.q):
            assert F.pow(a, F.q - 1) == 1


def _unit_order(F, a) -> int:
    """Return the multiplicative order of a unit: q - 1 divided by each prime while a's power is 1."""
    order = F.q - 1
    primes = [d for d in range(2, order + 1) if order % d == 0 and all(d % e for e in range(2, d))]
    for ell in primes:
        while order % ell == 0 and F.pow(a, order // ell) == 1:
            order //= ell
    return order


def test_ninth_field_unit_orders():
    F = field_create(3, 2)
    for a in range(1, 9):
        assert F.pow(a, 8) == 1
    w = F.root_of_unity(8)
    assert w == F.primitive
    assert F.pow(w, 4) == 2
    assert _unit_order(F, w) == 8
    with pytest.raises(ValueError):
        F.root_of_unity(5)


def test_root_of_unity_orders():
    F = field_create(2, 6)
    for n in (1, 3, 7, 9, 21, 63):
        assert _unit_order(F, F.root_of_unity(n)) == n


def test_negative_powers():
    F = field_create(3, 2)
    rng = random.Random(3)
    for _ in range(100):
        a = rng.randrange(1, F.q)
        assert F.mul(F.pow(a, -3), F.pow(a, 3)) == 1
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


# -- vectorized operations ---------------------------------------------------------

VEC_FIELDS = [
    (2, 1), (3, 1), (65537, 1),
    (2, 2), (3, 2), (2, 6), (3, 6), (2, 16),
    (2, 17), (3, 11), (2, 20),
    (7, 3), (5, 6), (3, 10),
]


def test_vector_ops_match_scalar():
    for p, m in VEC_FIELDS:
        F = field_create(p, m)
        rng = random.Random(97)
        A = np.array([rng.randrange(F.q) for _ in range(64)], dtype=np.int64)
        B = np.array([rng.randrange(F.q) for _ in range(64)], dtype=np.int64)
        vs = F.vadd(A, B)
        vd = F.vsub(A, B)
        vm = F.vmul(A, B)
        vn = F.vneg(A)
        for i in range(64):
            a, b = int(A[i]), int(B[i])
            assert int(vs[i]) == F.add(a, b)
            assert int(vd[i]) == F.sub(a, b)
            assert int(vm[i]) == F.mul(a, b)
            assert int(vn[i]) == F.neg(a)


def _ones(rows, cols):
    """A matrix of the field's one: a product with it sums rows or columns."""
    return np.ones((rows, cols), dtype=np.int64)


def test_vector_sum_matches_scalar():
    for p, m in VEC_FIELDS:
        F = field_create(p, m)
        rng = random.Random(41)
        M = np.array([rng.randrange(F.q) for _ in range(48)], dtype=np.int64).reshape(6, 8)
        total = 0
        for v in M.ravel():
            total = F.add(total, int(v))
        assert int(F.vdot(M.reshape(1, -1), _ones(48, 1))[0, 0]) == total
        rows = F.vdot(M, _ones(8, 1))[:, 0]
        cols = F.vdot(_ones(1, 6), M)[0]
        for i in range(6):
            acc = 0
            for j in range(8):
                acc = F.add(acc, int(M[i, j]))
            assert int(rows[i]) == acc
        for j in range(8):
            acc = 0
            for i in range(6):
                acc = F.add(acc, int(M[i, j]))
            assert int(cols[j]) == acc


def test_vector_ops_broadcast():
    F = field_create(3, 11)
    rng = random.Random(13)
    col = np.array([[rng.randrange(F.q)] for _ in range(5)], dtype=np.int64)
    row = np.array([[rng.randrange(F.q) for _ in range(4)]], dtype=np.int64)
    outer = F.vmul(col, row)
    assert outer.shape == (5, 4)
    for i in range(5):
        for j in range(4):
            assert int(outer[i, j]) == F.mul(int(col[i, 0]), int(row[0, j]))


# -- packed digits of odd table fields ---------------------------------------------

PACKED_FIELDS = [(3, 2), (3, 6), (7, 3), (5, 6), (3, 10)]


@pytest.mark.parametrize("p, m", PACKED_FIELDS)
def test_packed_table_round_trips_every_code(p, m):
    F = field_create(p, m)
    assert F.kind == "table"
    codes = np.arange(F.q, dtype=np.int64)
    assert F._unpack(F._packed).tolist() == codes.tolist()
    # digit i of a code sits at bit offset w i, w = 63 // m
    w = 63 // m
    for a in (0, 1, p - 1, p, F.q // 2, F.q - 1):
        assert int(F._packed[a]) == sum(c << (w * i) for i, c in enumerate(_to_coeffs(F, a)))


@pytest.mark.parametrize("p, m", PACKED_FIELDS)
def test_a_packed_sum_of_R_top_codes_neither_carries_nor_turns_negative(p, m):
    # q - 1 has every digit p - 1, the largest a sum can meet
    F = field_create(p, m)
    R = F._carry_free
    assert R >= 31
    total = R * int(F._packed[F.q - 1])
    assert total < 2 ** 63
    digits = [(total >> int(shift)) & F._mask for shift in F._shifts]
    assert digits == [R * (p - 1)] * m


@pytest.mark.parametrize("p, m", [(5, 6), (3, 10)])
def test_sums_along_an_axis_longer_than_the_carry_bound(p, m):
    F = field_create(p, m)
    n = 3 * F._carry_free + 7
    rng = random.Random(p * m)
    M = np.array([[rng.randrange(F.q) for _ in range(3)] for _ in range(n)], dtype=np.int64)
    M[:, 0] = F.q - 1

    def fold(values):
        acc = 0
        for v in values:
            acc = F.add(acc, int(v))
        return acc

    want = [fold(M[:, j]) for j in range(3)]
    assert F.vdot(_ones(1, n), M)[0].tolist() == want
    assert F.vdot(M.T, _ones(n, 1))[:, 0].tolist() == want
    assert F.vdot(_ones(2, n), M).tolist() == [want, want]
    assert F.vdot(M.reshape(1, -1), _ones(3 * n, 1))[0, 0] == fold(M.ravel())
    assert F.vdot(M[None, :, 0], _ones(n, 1))[0, 0] == _from_coeffs(F, [n * (p - 1)] * m)


def test_renormalised_sum_counts_as_one_term_in_short_blocks():
    # a 128 x 128 output makes blocks of 2^14 / 128^2 = 1 inner index, so each
    # renormalised sum is followed by R more top digits, which must not carry
    F = field_create(3, 10)
    assert F._carry_free == 31
    top = F.q - 1
    out = F.vdot(_ones(128, 64), np.full((64, 128), top, dtype=np.int64))
    assert (out == top).all()


# -- additive ops against a coefficient oracle -----------------------------------

def _coeff_combo(F, terms):
    """Return the code of sum(sign * a) over (sign, a) terms, coefficient-wise mod p."""
    acc = [0] * F.m
    for sign, a in terms:
        acc = [(x + sign * y) % F.p for x, y in zip(acc, _to_coeffs(F, a))]
    return _from_coeffs(F, acc)


def _oracle_pairs(F, rng, exhaustive):
    """Every pair, or a sample always holding zero operands and pairs b = -a."""
    if exhaustive:
        return [(a, b) for a in range(F.q) for b in range(F.q)]
    pairs = [(0, 0)]
    for _ in range(300):
        a = rng.randrange(1, F.q)
        minus_a = _coeff_combo(F, [(-1, a)])
        pairs += [(a, rng.randrange(F.q)), (a, minus_a), (minus_a, a), (a, 0), (0, a)]
    return pairs


def _check_additive_ops(F, exhaustive):
    """Check add, sub, neg, their vector forms and sums through vdot against the oracle."""
    rng = random.Random(F.p * 100 + F.m)
    pairs = _oracle_pairs(F, rng, exhaustive)
    want_add = [_coeff_combo(F, [(1, a), (1, b)]) for a, b in pairs]
    want_sub = [_coeff_combo(F, [(1, a), (-1, b)]) for a, b in pairs]
    want_neg = [_coeff_combo(F, [(-1, a)]) for a, _ in pairs]
    assert [F.add(a, b) for a, b in pairs] == want_add
    assert [F.sub(a, b) for a, b in pairs] == want_sub
    assert [F.neg(a) for a, _ in pairs] == want_neg
    A = np.array([a for a, _ in pairs], dtype=np.int64)
    B = np.array([b for _, b in pairs], dtype=np.int64)
    assert F.vadd(A, B).tolist() == want_add
    assert F.vsub(A, B).tolist() == want_sub
    assert F.vneg(A).tolist() == want_neg
    # broadcasting an 8 x 1 column against a 1 x 8 row
    col, row = A[:8, None], B[None, :8]
    for op, sign in ((F.vadd, 1), (F.vsub, -1)):
        want = [[_coeff_combo(F, [(1, a), (sign, b)]) for b in row[0]] for a in col[:, 0]]
        assert op(col, row).tolist() == want
    # rows of the form a, b, -a, 0 keep the sums on zero and near it
    M = np.stack([A[:40], B[:40], F.vneg(A[:40]), np.zeros(40, np.int64)], axis=1)
    assert int(F.vdot(M.reshape(1, -1), _ones(M.size, 1))[0, 0]) == _coeff_combo(
        F, [(1, int(c)) for c in M.ravel()])
    assert F.vdot(M, _ones(M.shape[1], 1))[:, 0].tolist() == [
        _coeff_combo(F, [(1, int(c)) for c in r]) for r in M]
    assert F.vdot(_ones(1, M.shape[0]), M)[0].tolist() == [
        _coeff_combo(F, [(1, int(c)) for c in M[:, j]]) for j in range(M.shape[1])]


@pytest.mark.parametrize("p,m,exhaustive", [
    (3, 2, True), (5, 2, True), (7, 2, True), (3, 4, True),
    (7, 3, False), (3, 6, False), (3, 10, False), (5, 6, False), (2, 8, False),
])
def test_table_additive_ops_match_coefficient_oracle(p, m, exhaustive):
    F = field_create(p, m)
    assert F.kind == "table"
    _check_additive_ops(F, exhaustive)


@pytest.mark.parametrize("p,m", [(3, 11), (5, 7)])
def test_generic_additive_ops_match_coefficient_oracle(p, m):
    # the scalar add and neg of an odd generic field are its vector ops, so
    # test_vector_ops_match_scalar no longer checks them independently
    F = field_create(p, m)
    assert F.kind == "generic"
    _check_additive_ops(F, exhaustive=False)


def test_table_construction_rejects_a_misplaced_zech_sentinel():
    F = field_create(3, 4)
    fresh = _TableField(3, 4, F.modulus)
    assert fresh.add(1, 2) == 0
    # exp shifted by one step puts -1 off index (q - 1) / 2
    shifted = np.roll(F._exp_np[:F.q - 1], 1)
    with pytest.raises(RuntimeError, match="sentinel"):
        fresh._build_additive_tables(shifted)


def _long_division_mul(F, a, b):
    """Multiply two codes by convolving digits and reducing by long division."""
    p, m = F.p, F.m
    ad = _to_coeffs(F, a)
    bd = _to_coeffs(F, b)
    conv = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            conv[i + j] += ad[i] * bd[j]
    mod = list(F.modulus)
    for k in range(2 * m - 2, m - 1, -1):
        c = conv[k] % p
        if c:
            for j in range(m + 1):
                conv[k - m + j] = (conv[k - m + j] - c * mod[j]) % p
    code = 0
    for i in range(m - 1, -1, -1):
        code = code * p + conv[i] % p
    return code


def test_extension_product_against_long_division():
    for p, m in [(3, 2), (2, 4), (2, 6), (3, 6), (5, 2), (3, 10), (2, 16), (2, 17),
                 (3, 11), (2, 20)]:
        F = field_create(p, m)
        if F.q <= 16:
            pairs = [(a, b) for a in range(F.q) for b in range(F.q)]
        else:
            rng = random.Random(23)
            pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(200)]
            b = rng.randrange(1, F.q)
            pairs += [(0, b), (b, 0), (0, 0)]
        want = [_long_division_mul(F, a, b) for a, b in pairs]
        assert [F.mul(a, b) for a, b in pairs] == want
        A = np.array([a for a, _ in pairs], dtype=np.int64)
        B = np.array([b for _, b in pairs], dtype=np.int64)
        assert F.vmul(A, B).tolist() == want


# -- polynomial arithmetic -----------------------------------------------------------

def _poly_eval(F, f, a):
    """Evaluate a polynomial at a field element by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = F.add(F.mul(v, a), c)
    return v


def test_poly_divmod_roundtrip():
    for p, m in [(2, 1), (5, 1), (2, 3), (3, 2)]:
        F = field_create(p, m)
        rng = random.Random(31)
        for _ in range(150):
            f = poly_trim([rng.randrange(F.q) for _ in range(rng.randrange(1, 10))])
            g = poly_trim([rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])
            if not g:
                continue
            quot, rem = poly_divmod(F, f, g)
            assert len(rem) < len(g)
            assert poly_add(F, poly_mul(F, quot, g), rem) == f


def test_poly_gcd_divides_common_multiples():
    F = field_create(3)
    rng = random.Random(17)
    for _ in range(100):
        f = poly_trim([rng.randrange(3) for _ in range(4)])
        g = poly_trim([rng.randrange(3) for _ in range(4)])
        h = poly_trim([rng.randrange(3) for _ in range(4)])
        if not f or not g or not h:
            continue
        d = poly_gcd(F, poly_mul(F, f, g), poly_mul(F, f, h))
        assert poly_divmod(F, d, poly_scale(F, f, F.inv(f[-1])))[1] == []


def test_irreducible_counts():
    # the number of monic irreducibles of degree n over GF(q) is known
    expected = {
        (2, 1): 2, (2, 2): 1, (2, 3): 2, (2, 4): 3,
        (3, 1): 3, (3, 2): 3, (4, 2): 6,
    }
    fields = {2: field_create(2), 3: field_create(3), 4: field_create(2, 2)}
    for (q, n), want in expected.items():
        F = fields[q]
        count = 0
        for k in range(q ** n):
            coeffs = []
            kk = k
            for _ in range(n):
                coeffs.append(kk % q)
                kk //= q
            if poly_is_irreducible(F, coeffs + [1]):
                count += 1
        assert count == want, (q, n)


def test_factor_known_cases():
    F2 = field_create(2)
    assert poly_factor(F2, [1, 0, 1, 0, 1]) == [((1, 1, 1), 2)]
    assert poly_factor(F2, [1, 1, 0, 0, 1]) == [((1, 1, 0, 0, 1), 1)]
    F5 = field_create(5)
    assert poly_factor(F5, [1, 0, 1]) == [((2, 1), 1), ((3, 1), 1)]
    F3 = field_create(3)
    assert poly_factor(F3, [1, 0, 1]) == [((1, 0, 1), 1)]
    # (x + 1)^9 over GF(3) exercises the p-th power branch
    cube = [1, 1]
    for _ in range(8):
        cube = poly_mul(F3, cube, [1, 1])
    assert poly_factor(F3, cube) == [((1, 1), 9)]
    # x^2 + x + 1 splits over GF(4)
    F4 = field_create(2, 2)
    assert poly_factor(F4, [1, 1, 1]) == [((2, 1), 1), ((3, 1), 1)]


def test_factor_reconstructs_random_polynomials():
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)]:
        F = field_create(p, m)
        rng = random.Random(1009)
        for _ in range(60):
            f = poly_trim([rng.randrange(F.q) for _ in range(rng.randrange(2, 12))])
            if len(f) < 2:
                continue
            factors = poly_factor(F, f)
            rebuilt = [f[-1]]
            for coeffs, mult in factors:
                assert coeffs[-1] == 1
                assert poly_is_irreducible(F, list(coeffs))
                for _ in range(mult):
                    rebuilt = poly_mul(F, rebuilt, list(coeffs))
            assert rebuilt == f


def test_factor_output_is_seed_independent():
    F = field_create(3, 2)
    rng = random.Random(2024)
    f = poly_trim([rng.randrange(9) for _ in range(13)] + [1])
    assert poly_factor(F, f, seed=0) == poly_factor(F, f, seed=12345)


def test_factor_large_field_paths():
    # linear factors over a field big enough to skip the root scan
    F = field_create(2, 17)
    f = poly_mul(F, [5, 1], [9, 1])
    assert poly_factor(F, f) == [((5, 1), 1), ((9, 1), 1)]
    assert poly_roots(F, f) == [5, 9]


@pytest.mark.parametrize("p,m,quadratic", [(2, 17, [1, 1, 1]), (3, 11, [1, 0, 1])])
def test_poly_roots_above_scan_cap(p, m, quadratic):
    # x^2 + x + 1 has no root in GF(2^17) since 17 is odd, and x^2 + 1 has
    # none in GF(3^11) since 3^11 = 3 mod 4
    F = field_create(p, m)
    rng = random.Random(p ** m)
    roots = sorted(set(rng.randrange(F.q) for _ in range(5)))
    f = [rng.randrange(1, F.q)]
    for r, k in zip(roots, [1, 3, 1, 2, 1]):
        for _ in range(k):
            f = poly_mul(F, f, [F.neg(r), 1])
    assert poly_roots(F, f) == roots
    assert poly_roots(F, poly_mul(F, f, quadratic)) == roots
    assert poly_roots(F, quadratic) == []
    assert poly_roots(F, [rng.randrange(1, F.q)]) == []


def test_poly_roots_small_field():
    F = field_create(7)
    f = poly_mul(F, [6, 1], poly_mul(F, [4, 1], [4, 1]))
    assert poly_roots(F, f) == [1, 3]
    for r in poly_roots(F, f):
        assert _poly_eval(F, f, r) == 0


def test_factor_rejects_zero():
    F = field_create(5)
    with pytest.raises(ValueError):
        poly_factor(F, [])
    assert poly_factor(F, [3]) == []
