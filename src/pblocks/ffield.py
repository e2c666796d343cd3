"""Exact finite field arithmetic with integer element codes.

Elements of GF(p^m) are encoded as the integers 0..p^m-1 by reading the
coefficients of the residue polynomial in base p, constant term least
significant.  The degree-m modulus is chosen deterministically: it is the
first irreducible monic polynomial found when the non-leading coefficients
are enumerated as ascending base-p integers.

Three backends cover the supported size range.  Prime fields use native
modular arithmetic.  Extension fields up to the hard cap of 2^24 elements
have a generic backend: carry-less arithmetic in characteristic 2 and
base-p digit arithmetic otherwise; it is the only one that splits codes
into digits.  In odd characteristic its scalar add and neg are its vector
operations on one element, and its scalar mul is a digit loop, which the
table construction calls.  Extension fields with at most 2^16 elements are
table fields built from it: its arithmetic finds the primitive element and
fills, once, exp/log tables to multiply by, where zero has the logarithm
2(q - 1), and, in odd characteristic, Zech logarithms to add by, indexed
by log b - log a + 2(q - 1); in characteristic 2 they add by XOR.

Sums of many products use packed digits in odd characteristic table
fields (Dumas, Gautier and Pernet, ISSAC 2002; Dumas, Fousse and Salvy,
J. Symbolic Comput. 46, 2011): the base-p digits of a code sit in one
int64 at bit offsets w i, with w = 63 // m, so adding packed codes adds
all their digits at once.  A digit of a sum of at most
R = (2^w - 1) // (p - 1) packed codes is at most 2^w - 1, so no digit
carries into the next and the top one stays below bit 63; longer sums
are reduced mod p every R terms or fewer, and each output entry is
unpacked once at the end.

Scalar operations take and return plain ints.  Vectorized operations
(vadd, vsub, vneg, vmul) take and return numpy int64 arrays of element
codes and broadcast like the corresponding numpy ufuncs; vdot, each
backend's one summing kernel, takes two 2-D code arrays and returns their
matrix product.

Polynomials over a field are lists of element codes, constant term first,
with no trailing zeros; the zero polynomial is the empty list.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache

import numpy as np

from .errors import BudgetExceeded, CompositeCharacteristic
from .intmath import factorint, is_prime

FIELD_SIZE_CAP = 1 << 24
TABLE_SIZE_CAP = 1 << 16
ROOT_SCAN_CAP = 4096
EDF_DRAW_BUDGET = 200

# most products one block of a table or generic vdot holds, unless one inner index alone has more
_PRODUCT_BLOCK = 2 ** 14


# -- low level code arithmetic -------------------------------------------------

def _clmul_code(m: int, mod_int: int, a: int, b: int) -> int:
    """Multiply two codes of a characteristic-2 field as bit polynomials."""
    r = 0
    a = int(a)
    b = int(b)
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    for k in range(2 * m - 2, m - 1, -1):
        if (r >> k) & 1:
            r ^= mod_int << (k - m)
    return r


def _reduction_rows(p: int, m: int, modulus) -> list:
    """Return digit vectors of x^k modulo the modulus for k = m..2m-2."""
    rows = []
    r = [(-c) % p for c in modulus[:m]]
    rows.append(tuple(r))
    for _ in range(m - 2):
        d = r[-1]
        r = [0] + r[:-1]
        r = [(r[i] + d * rows[0][i]) % p for i in range(m)]
        rows.append(tuple(r))
    return rows


def _digit_mul_code(p: int, m: int, rows, a: int, b: int) -> int:
    """Multiply two codes of an odd-characteristic field as digit polynomials."""
    ad = []
    bd = []
    a = int(a)
    b = int(b)
    for _ in range(m):
        ad.append(a % p)
        bd.append(b % p)
        a //= p
        b //= p
    conv = [0] * (2 * m - 1)
    for i, ai in enumerate(ad):
        if ai:
            for j, bj in enumerate(bd):
                if bj:
                    conv[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        d = conv[k] % p
        if d:
            row = rows[k - m]
            for i in range(m):
                conv[i] += d * row[i]
    code = 0
    for i in range(m - 1, -1, -1):
        code = code * p + conv[i] % p
    return code


# -- field classes --------------------------------------------------------------

class Field:
    """Finite field of order q = p^m with integer element codes 0..q-1.

    Each backend supplies its own add, neg, mul and inv, their vectorized
    forms vadd, vneg and vmul, and vdot, the product of two code matrices;
    this base class derives sub, pow and vsub from those.
    """

    kind = "abstract"
    p: int
    m: int
    q: int
    modulus: tuple | None

    def add(self, a: int, b: int) -> int:
        """Return a + b."""
        raise NotImplementedError

    def neg(self, a: int) -> int:
        """Return -a."""
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        """Return a - b."""
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        """Return a * b."""
        raise NotImplementedError

    def inv(self, a: int) -> int:
        """Return the multiplicative inverse of a."""
        raise NotImplementedError

    def pow(self, a: int, e: int) -> int:
        """Return a raised to the integer power e."""
        a = int(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 0 if e else 1
        e %= self.q - 1
        r = 1
        b = a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return int(r)

    @cached_property
    def primitive(self) -> int:
        """The least element code that generates the multiplicative group."""
        fac = factorint(self.q - 1)
        for cand in range(1, self.q):
            if all(self.pow(cand, (self.q - 1) // ell) != 1 for ell in fac):
                return cand
        raise RuntimeError("multiplicative group has no generator")

    def root_of_unity(self, n: int) -> int:
        """Return the canonical element of multiplicative order n."""
        if n < 1 or (self.q - 1) % n:
            raise ValueError(f"no element of order {n} in {self!r}")
        return self.pow(self.primitive, (self.q - 1) // n)

    def vadd(self, A, B):
        """Return the elementwise sum of two code arrays."""
        raise NotImplementedError

    def vneg(self, A):
        """Return the elementwise negation of a code array."""
        raise NotImplementedError

    def vsub(self, A, B):
        """Return the elementwise difference of two code arrays."""
        return self.vadd(A, self.vneg(B))

    def vmul(self, A, B):
        """Return the elementwise product of two code arrays."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


class _PrimeField(Field):
    """Prime field GF(p) on native modular arithmetic."""

    kind = "prime"

    def __init__(self, p: int):
        self.p = p
        self.m = 1
        self.q = p
        self.modulus = None
        # the longest inner index whose int64 sum of products cannot wrap
        self._dot_block = (2 ** 63 - 1) // (p - 1) ** 2

    def add(self, a, b):
        """Return a + b."""
        return (int(a) + int(b)) % self.p

    def neg(self, a):
        """Return -a."""
        return (-int(a)) % self.p

    def mul(self, a, b):
        """Return a * b."""
        return (int(a) * int(b)) % self.p

    def inv(self, a):
        """Return the multiplicative inverse of a."""
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        """Return a raised to the integer power e."""
        a = int(a) % self.p
        if e < 0 and a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, e, self.p)

    def vadd(self, A, B):
        """Return the elementwise sum of two code arrays."""
        return (np.asarray(A, np.int64) + np.asarray(B, np.int64)) % self.p

    def vneg(self, A):
        """Return the elementwise negation of a code array."""
        return (-np.asarray(A, np.int64)) % self.p

    def vmul(self, A, B):
        """Return the elementwise product of two code arrays."""
        return (np.asarray(A, np.int64) * np.asarray(B, np.int64)) % self.p

    def vdot(self, A, B):
        """Return the product of two 2-D code arrays: numpy's, over inner blocks int64 cannot wrap."""
        step = self._dot_block
        if A.shape[1] <= step:
            return A @ B % self.p
        return sum(A[:, k:k + step] @ B[k:k + step] % self.p
                   for k in range(0, A.shape[1], step)) % self.p


class _TableField(Field):
    """Extension field on exp/log and Zech tables, for orders up to 2^16.

    With g the primitive element, a nonzero code a is g^log(a), and
    log 0 = 2 (q - 1).  The exp table holds two periods, then zeros up to
    index 4 (q - 1), so a * b = exp[log a + log b] for all a and b.  In
    characteristic 2 a sum is the XOR of the codes.  In odd characteristic
    it goes through the Zech logarithm Z(k) = log(1 + g^k), as
    g^i + g^j = g^(i + Z(j - i)), and Z((q - 1) / 2) = log 0.  The Zech
    table holds, at d + 2 (q - 1) for d = log b - log a, d if a = 0, 0 if
    b = 0 and Z(d mod (q - 1)) otherwise, so a + b is
    exp[log a + zech[d + 2 (q - 1)]] with no index below 0.  Negation is
    one more table.  Sums of many terms, in vdot, add packed codes:
    the q-entry packed table holds each code's base-p digits at bit offsets
    w i, w = 63 // m, and the packed exp table is the packed table read at
    exp, so a product's packed code is one gather at log a + log b.  The
    digits of a sum of at most R = (2^w - 1) // (p - 1) packed codes are
    each at most R (p - 1) <= 2^w - 1, so no digit carries into the next,
    and the top digit ends below bit w m <= 63, so the int64 stays
    non-negative.  Before a sum would exceed R terms it is renormalised
    (unpacked, each digit reduced mod p, and packed again), and each output
    entry is unpacked once.  All tables are computed once by a generic
    field on the same modulus.
    """

    kind = "table"

    def __init__(self, p: int, m: int, modulus: tuple):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        raw = self._raw = _GenericField(p, m, modulus)
        q1 = self.q - 1
        g = self.primitive = raw.primitive
        # g^0..g^(2k-1) is g^0..g^(k-1) followed by its product with g^k
        exp = np.ones(1, dtype=np.int64)
        step = g
        while len(exp) < q1:
            exp = np.concatenate([exp, raw.vmul(exp[:q1 - len(exp)], np.int64(step))])
            step = raw.mul(step, step)
        exp_l = exp.tolist()
        if raw.mul(exp_l[-1], g) != 1 or len(set(exp_l)) != q1:
            raise RuntimeError("generator does not enumerate the unit group")
        log = np.full(self.q, 2 * q1, dtype=np.int64)
        log[exp] = np.arange(q1, dtype=np.int64)
        self._log_l = log.tolist()
        self._exp_l = exp_l * 2 + [0] * (2 * q1 + 1)
        self._log_np = log
        self._exp_np = np.array(self._exp_l, dtype=np.int64)
        self._log_np.setflags(write=False)
        self._exp_np.setflags(write=False)
        if p != 2:
            self._build_additive_tables(exp)

    def _build_additive_tables(self, exp_np):
        """Build the packed-digit, negation and Zech tables of an odd characteristic."""
        raw = self._raw
        q1 = self.q - 1
        codes = np.arange(self.q, dtype=np.int64)
        w = 63 // self.m
        self._pw = raw._pw
        self._shifts = w * np.arange(self.m, dtype=np.int64)
        self._mask = (1 << w) - 1
        self._carry_free = self._mask // (self.p - 1)
        self._packed = (raw._to_digits(codes) << self._shifts).sum(axis=-1)
        self._packed_exp = self._packed[self._exp_np]
        neg = raw.vneg(codes)
        if not np.array_equal(neg[neg], codes):
            raise RuntimeError("negation table is not an involution")
        if np.flatnonzero(neg == codes).tolist() != [0]:
            raise RuntimeError("negation table fixes a nonzero element")
        z = self._log_np[raw.vadd(exp_np, np.int64(1))]
        if np.flatnonzero(z == 2 * q1).tolist() != [q1 // 2]:
            raise RuntimeError("Zech table needs exactly one sentinel, at (q - 1) / 2")
        d = np.arange(-2 * q1, 2 * q1 + 1, dtype=np.int64)
        zech = np.where(d < -q1, d, np.where(d > q1, 0, z[d % q1]))
        self._neg_np = neg
        self._zech_np = zech
        self._neg_l = neg.tolist()
        self._zech_l = zech.tolist()
        for table in (self._pw, self._shifts, self._packed, self._packed_exp, neg, zech):
            table.setflags(write=False)

    def add(self, a, b):
        """Return a + b."""
        if self.p == 2:
            return int(a) ^ int(b)
        log = self._log_l
        la = log[a]
        # log[0] = 2 (q - 1) is also the offset of the Zech index
        return self._exp_l[la + self._zech_l[log[b] - la + log[0]]]

    def neg(self, a):
        """Return -a."""
        if self.p == 2:
            return int(a)
        return self._neg_l[int(a)]

    def mul(self, a, b):
        """Return a * b."""
        return self._exp_l[self._log_l[a] + self._log_l[b]]

    def inv(self, a):
        """Return the multiplicative inverse of a."""
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp_l[self.q - 1 - self._log_l[a]]

    def vadd(self, A, B):
        """Return the elementwise sum of two code arrays."""
        A = np.asarray(A, np.int64)
        B = np.asarray(B, np.int64)
        if self.p == 2:
            return np.bitwise_xor(A, B)
        la = self._log_np[A]
        return self._exp_np[la + self._zech_np[self._log_np[B] - la + self._log_l[0]]]

    def vneg(self, A):
        """Return the elementwise negation of a code array."""
        A = np.asarray(A, np.int64)
        if self.p == 2:
            return A
        return self._neg_np[A]

    def vmul(self, A, B):
        """Return the elementwise product of two code arrays."""
        A = np.asarray(A, np.int64)
        B = np.asarray(B, np.int64)
        return self._exp_np[self._log_np[A] + self._log_np[B]]

    def vdot(self, A, B):
        """Return the product of two 2-D code arrays.

        The logarithms of A and B are looked up once, and the inner index
        is split into blocks of at most max(2^14, rows x cols) products.  In
        characteristic 2 each block is one gather from the exp table and one
        XOR reduce over the block.  In odd characteristic it is one gather
        from the packed exp table and one int64 sum, with fewer than R terms
        to a block.
        """
        rows, inner = A.shape
        cols = B.shape[1]
        la = self._log_np[A]
        lb = self._log_np[B]
        if self.p == 2:
            la = la[:, :, None]
            step = max(1, _PRODUCT_BLOCK // max(1, rows * cols))
            # an inner dimension of 0 gives the zero matrix: XOR over an empty axis
            exp = self._exp_np
            out = np.bitwise_xor.reduce(exp[la[:, :step] + lb[:step]], axis=1)
            for k in range(step, inner, step):
                out ^= np.bitwise_xor.reduce(exp[la[:, k:k + step] + lb[k:k + step]], axis=1)
            return out
        step = max(1, min(self._carry_free - 1, _PRODUCT_BLOCK // max(1, rows * cols)))
        acc = np.zeros((rows, cols), np.int64)
        held = 0
        for k in range(0, inner, step):
            # a renormalised sum counts as one term
            if held + step > self._carry_free:
                acc = self._packed[self._unpack(acc)]
                held = 1
            acc = acc + self._packed_exp[la[:, k:k + step, None] + lb[None, k:k + step, :]].sum(axis=1)
            held += step
        return self._unpack(acc)

    def _unpack(self, S):
        """Return the codes of an array of packed digit sums, each digit reduced mod p."""
        return (((S[..., None] >> self._shifts) & self._mask) % self.p) @ self._pw


class _GenericField(Field):
    """Extension field on digit or carry-less arithmetic.

    It serves fields beyond 2^16 elements and builds the tables of the
    smaller ones; it is the only backend that splits codes into base-p
    digits to add them.  In odd characteristic the scalar add and neg are
    vadd and vneg on one element; the scalar mul keeps its own digit loop,
    since building a table field calls it, and a vector call per product
    made GF(7^3) take over ten times as long to build.
    """

    kind = "generic"

    def __init__(self, p: int, m: int, modulus: tuple):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self._pw = np.array([p ** i for i in range(m)], dtype=np.int64)
        if p == 2:
            mod_int = 0
            for i, c in enumerate(modulus):
                mod_int |= (c & 1) << i
            self._mod_int = mod_int
        else:
            rows = _reduction_rows(p, m, modulus)
            self._red = rows
            self._red_np = np.array(rows, dtype=np.int64)
            self._red_np.setflags(write=False)

    def add(self, a, b):
        """Return a + b."""
        if self.p == 2:
            return int(a) ^ int(b)
        return int(self.vadd(a, b))

    def neg(self, a):
        """Return -a."""
        if self.p == 2:
            return int(a)
        return int(self.vneg(a))

    def mul(self, a, b):
        """Return a * b."""
        if self.p == 2:
            return _clmul_code(self.m, self._mod_int, a, b)
        return _digit_mul_code(self.p, self.m, self._red, a, b)

    def inv(self, a):
        """Return the multiplicative inverse of a."""
        if int(a) == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def _to_digits(self, A):
        """Split an array of codes into base-p digit planes along a new axis."""
        A = np.asarray(A, dtype=np.int64)
        return (A[..., None] // self._pw) % self.p

    def _from_digits(self, D):
        """Recombine base-p digit planes into an array of codes."""
        return (D * self._pw).sum(axis=-1)

    def vadd(self, A, B):
        """Return the elementwise sum of two code arrays."""
        if self.p == 2:
            return np.bitwise_xor(np.asarray(A, np.int64), np.asarray(B, np.int64))
        return self._from_digits((self._to_digits(A) + self._to_digits(B)) % self.p)

    def vneg(self, A):
        """Return the elementwise negation of a code array."""
        if self.p == 2:
            return np.asarray(A, np.int64)
        return self._from_digits((self.p - self._to_digits(A)) % self.p)

    def vmul(self, A, B):
        """Return the elementwise product of two code arrays."""
        A = np.asarray(A, np.int64)
        B = np.asarray(B, np.int64)
        m = self.m
        if self.p == 2:
            out = np.zeros(np.broadcast_shapes(A.shape, B.shape), np.int64)
            for i in range(m):
                out ^= ((B >> i) & 1) * (A << i)
            for k in range(2 * m - 2, m - 1, -1):
                out ^= ((out >> k) & 1) * (self._mod_int << (k - m))
            return out
        Da = self._to_digits(A)
        Db = self._to_digits(B)
        shape = np.broadcast_shapes(A.shape, B.shape)
        conv = np.zeros(shape + (2 * m - 1,), np.int64)
        for i in range(m):
            conv[..., i:i + m] += Da[..., i:i + 1] * Db
        conv %= self.p
        for k in range(2 * m - 2, m - 1, -1):
            conv[..., :m] += conv[..., k:k + 1] * self._red_np[k - m]
        return self._from_digits(conv[..., :m] % self.p)

    def vdot(self, A, B):
        """Return the product of two 2-D code arrays.

        Each block of at most max(2^14, rows x cols) entrywise products is
        one vmul and then, in characteristic 2, one XOR reduce; in odd
        characteristic the products' digits are summed as integers and
        reduced mod p once, at the end.  An inner dimension of 0 gives 0.
        """
        rows, inner = A.shape
        cols = B.shape[1]
        step = max(1, _PRODUCT_BLOCK // max(1, rows * cols))
        out = np.zeros((rows, cols) if self.p == 2 else (rows, cols, self.m), np.int64)
        for k in range(0, inner, step):
            P = self.vmul(A[:, k:k + step, None], B[None, k:k + step, :])
            if self.p == 2:
                out ^= np.bitwise_xor.reduce(P, axis=1)
            else:
                out += self._to_digits(P).sum(axis=1)
        return out if self.p == 2 else self._from_digits(out % self.p)


# -- construction -----------------------------------------------------------------

def _find_modulus(p: int, m: int) -> tuple:
    """Return the first irreducible monic modulus in base-p code order."""
    base = field_create(p, 1)
    for k in range(p ** m):
        coeffs = []
        kk = k
        for _ in range(m):
            coeffs.append(kk % p)
            kk //= p
        if coeffs[0] == 0:
            continue
        f = coeffs + [1]
        if p == 2 and sum(f) % 2 == 0:
            continue
        if poly_is_irreducible(base, f):
            return tuple(f)
    raise RuntimeError("no irreducible modulus found")


@lru_cache(maxsize=None)
def field_create(p: int, m: int = 1) -> Field:
    """Create (and cache) the finite field with p^m elements."""
    if not isinstance(p, int) or not isinstance(m, int) or m < 1:
        raise ValueError("field parameters must be a prime and a positive degree")
    if not is_prime(p):
        raise CompositeCharacteristic(f"characteristic {p} is not prime")
    q = p ** m
    if q > FIELD_SIZE_CAP:
        raise BudgetExceeded(f"field order {q} exceeds the cap of {FIELD_SIZE_CAP}")
    if m == 1:
        return _PrimeField(p)
    modulus = _find_modulus(p, m)
    if q <= TABLE_SIZE_CAP:
        return _TableField(p, m, modulus)
    return _GenericField(p, m, modulus)


# -- polynomial arithmetic ----------------------------------------------------------

def poly_trim(f: list) -> list:
    """Strip trailing zero coefficients in place and return the list."""
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_deg(f) -> int:
    """Return the degree of a trimmed polynomial (-1 for the zero polynomial)."""
    return len(f) - 1


def _poly_coeffwise(op, f, g) -> list:
    """Apply a scalar field operation to aligned coefficients, padding with zeros."""
    n = max(len(f), len(g))
    return poly_trim([
        op(f[i] if i < len(f) else 0, g[i] if i < len(g) else 0) for i in range(n)
    ])


def poly_add(F: Field, f, g) -> list:
    """Add two polynomials."""
    return _poly_coeffwise(F.add, f, g)


def poly_sub(F: Field, f, g) -> list:
    """Subtract one polynomial from another."""
    return _poly_coeffwise(F.sub, f, g)


def poly_scale(F: Field, f, c: int) -> list:
    """Multiply a polynomial by a scalar."""
    if c == 0:
        return []
    return [F.mul(a, c) for a in f]


def poly_mul(F: Field, f, g) -> list:
    """Multiply two polynomials."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly_trim(out)


def poly_divmod(F: Field, f, g):
    """Divide f by g, returning the quotient and remainder."""
    g = poly_trim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = poly_trim(list(f))
    dg = len(g) - 1
    if len(f) <= dg:
        return [], f
    # a monic divisor, such as a charpoly, needs no inversion; in a generic
    # field an inversion is a power of about 2m products
    inv_lead = 1 if g[-1] == 1 else F.inv(g[-1])
    quot = [0] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c == 0:
            continue
        coef = F.mul(c, inv_lead)
        quot[i - dg] = coef
        for j in range(dg + 1):
            f[i - dg + j] = F.sub(f[i - dg + j], F.mul(coef, g[j]))
    return poly_trim(quot), poly_trim(f[:dg])


def poly_mod(F: Field, f, g) -> list:
    """Return the remainder of f modulo g."""
    return poly_divmod(F, f, g)[1]


def poly_gcd(F: Field, f, g) -> list:
    """Return the monic greatest common divisor of two polynomials."""
    f = poly_trim(list(f))
    g = poly_trim(list(g))
    while g:
        f, g = g, poly_divmod(F, f, g)[1]
    if not f:
        return []
    return poly_scale(F, f, F.inv(f[-1]))


def poly_pow_mod(F: Field, f, e: int, mod) -> list:
    """Return f raised to the power e, reduced modulo another polynomial."""
    r = [1]
    b = poly_mod(F, f, mod)
    while e:
        if e & 1:
            r = poly_mod(F, poly_mul(F, r, b), mod)
        b = poly_mod(F, poly_mul(F, b, b), mod)
        e >>= 1
    return r


def poly_deriv(F: Field, f) -> list:
    """Return the formal derivative of a polynomial."""
    out = []
    for i in range(1, len(f)):
        out.append(F.mul(f[i], i % F.p))
    return poly_trim(out)


def poly_is_irreducible(F: Field, f) -> bool:
    """Test irreducibility over F: f must be squarefree with no factor of degree <= deg(f)/2."""
    f = poly_trim(list(f))
    n = poly_deg(f)
    if n < 1:
        return False
    f = poly_scale(F, f, F.inv(f[-1]))
    df = poly_deriv(F, f)
    return (
        bool(df)
        and poly_deg(poly_gcd(F, f, df)) == 0
        and _distinct_degree_parts(F, f) == [(f, n)]
    )


# -- polynomial factorization ----------------------------------------------------

def _poly_pth_root(F: Field, f) -> list:
    """Return g with g^p = f, valid when f has zero derivative."""
    p = F.p
    for i, c in enumerate(f):
        if i % p and c:
            raise ValueError("polynomial is not a p-th power")
    out = []
    for i in range(0, len(f), p):
        out.append(F.pow(f[i], F.q // p))
    return poly_trim(out)


def _squarefree_parts(F: Field, f) -> list:
    """Split a monic polynomial into coprime squarefree parts with multiplicities."""
    out = []
    df = poly_deriv(F, f)
    if not df:
        for g, k in _squarefree_parts(F, _poly_pth_root(F, f)):
            out.append((g, k * F.p))
        return out
    c = poly_gcd(F, f, df)
    w = poly_divmod(F, f, c)[0]
    i = 1
    while poly_deg(w) > 0:
        y = poly_gcd(F, w, c)
        z = poly_divmod(F, w, y)[0]
        if poly_deg(z) > 0:
            out.append((z, i))
        w = y
        c = poly_divmod(F, c, y)[0]
        i += 1
    if poly_deg(c) > 0:
        out.extend(_squarefree_parts(F, c))
    return out


def _distinct_degree_parts(F: Field, f) -> list:
    """Split a monic squarefree polynomial into (product, degree) parts."""
    out = []
    v = list(f)
    x = [0, 1]
    h = x
    d = 0
    while poly_deg(v) >= 2 * (d + 1):
        d += 1
        h = poly_pow_mod(F, h, F.q, v)
        g = poly_gcd(F, poly_sub(F, h, x), v)
        if poly_deg(g) > 0:
            out.append((g, d))
            v = poly_divmod(F, v, g)[0]
            h = poly_mod(F, h, v)
    if poly_deg(v) > 0:
        out.append((v, poly_deg(v)))
    return out


def _all_roots_scan(F: Field, f) -> list:
    """Return the sorted roots of f by evaluating at every field element."""
    pts = np.arange(F.q, dtype=np.int64)
    vals = np.zeros(F.q, dtype=np.int64)
    for c in reversed(f):
        vals = F.vadd(F.vmul(vals, pts), np.full(F.q, int(c), dtype=np.int64))
    return [int(r) for r in np.flatnonzero(vals == 0)]


def _equal_degree_split(F: Field, f, d: int, rng: random.Random, budget: list) -> list:
    """Split a squarefree polynomial whose irreducible factors share degree d."""
    n = poly_deg(f)
    if n == d:
        return [f]
    if d == 1 and F.q <= ROOT_SCAN_CAP:
        return [[F.neg(r), 1] for r in _all_roots_scan(F, f)]
    while True:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded("equal-degree splitting draw budget exhausted")
        a = poly_trim([rng.randrange(F.q) for _ in range(n)])
        if poly_deg(a) < 1:
            continue
        g = poly_gcd(F, a, f)
        if not 0 < poly_deg(g) < n:
            if F.p == 2:
                t = list(a)
                s = list(a)
                for _ in range(d * F.m - 1):
                    s = poly_mod(F, poly_mul(F, s, s), f)
                    t = poly_add(F, t, s)
                g = poly_gcd(F, t, f)
            else:
                b = poly_pow_mod(F, a, (F.q ** d - 1) // 2, f)
                g = poly_gcd(F, poly_sub(F, b, [1]), f)
        if 0 < poly_deg(g) < n:
            left = _equal_degree_split(F, g, d, rng, budget)
            right = _equal_degree_split(F, poly_divmod(F, f, g)[0], d, rng, budget)
            return left + right


def poly_factor(F: Field, f, seed: int = 0) -> list:
    """Factor f into monic irreducibles as sorted (coeffs, multiplicity) pairs."""
    f = poly_trim(list(f))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if poly_deg(f) == 0:
        return []
    f = poly_scale(F, f, F.inv(f[-1]))
    rng = random.Random(seed)
    budget = [EDF_DRAW_BUDGET]
    found = {}
    for part, mult in _squarefree_parts(F, f):
        for prod, d in _distinct_degree_parts(F, part):
            for irr in _equal_degree_split(F, prod, d, rng, budget):
                key = tuple(int(c) for c in irr)
                found[key] = found.get(key, 0) + mult
    return sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0]))


def poly_roots(F: Field, f) -> list:
    """Return the sorted distinct roots of a nonzero polynomial in F."""
    f = poly_trim(list(f))
    if not f:
        raise ValueError("the zero polynomial has no root list")
    if F.q <= ROOT_SCAN_CAP:
        return _all_roots_scan(F, f)
    x = [0, 1]
    g = poly_gcd(F, poly_sub(F, poly_pow_mod(F, x, F.q, f), x), f)
    if poly_deg(g) < 1:
        return []
    lines = _equal_degree_split(F, g, 1, random.Random(0), [EDF_DRAW_BUDGET])
    return sorted(F.neg(h[0]) for h in lines)
