"""Exact finite field arithmetic with integer element codes.

Elements of GF(p^m) are encoded as the integers 0..p^m-1 by reading the
coefficients of the residue polynomial in base p, constant term least
significant.  The degree-m modulus is chosen deterministically: it is the
first irreducible monic polynomial found when the non-leading coefficients
are enumerated as ascending base-p integers.

Three backends cover the supported size range: native modular arithmetic
for prime fields, exp/log tables for extension fields with at most 2^16
elements, and digit or carry-less arithmetic beyond that, up to the hard
cap of 2^24 elements.

Scalar operations take and return plain ints.  Vectorized operations
(vadd, vsub, vneg, vmul, vsum) take and return numpy int64 arrays of
element codes and broadcast like the corresponding numpy ufuncs.

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
    """Finite field of order q = p^m with integer element codes 0..q-1."""

    kind = "abstract"
    p: int
    m: int
    q: int
    modulus: tuple | None

    # scalar helpers shared by the extension backends; the prime backend
    # overrides everything with native modular arithmetic

    def add(self, a: int, b: int) -> int:
        """Return a + b."""
        if self.p == 2:
            return int(a) ^ int(b)
        a = int(a)
        b = int(b)
        p = self.p
        s = 0
        place = 1
        for _ in range(self.m):
            s += (((a % p) + (b % p)) % p) * place
            a //= p
            b //= p
            place *= p
        return s

    def neg(self, a: int) -> int:
        """Return -a."""
        if self.p == 2:
            return int(a)
        a = int(a)
        p = self.p
        s = 0
        place = 1
        for _ in range(self.m):
            s += ((-a) % p) * place
            a //= p
            place *= p
        return s

    def sub(self, a: int, b: int) -> int:
        """Return a - b."""
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        """Return a * b."""
        raise NotImplementedError

    def inv(self, a: int) -> int:
        """Return the multiplicative inverse of a."""
        raise NotImplementedError

    def div(self, a: int, b: int) -> int:
        """Return a / b."""
        return self.mul(a, self.inv(b))

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

    def sqrt(self, a: int):
        """Return a square root of a, or None when a is not a square."""
        a = int(a)
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow(a, self.q // 2)
        q1 = self.q - 1
        if self.pow(a, q1 // 2) != 1:
            return None
        s = (q1 & -q1).bit_length() - 1
        t = q1 >> s
        r = self.pow(a, (t + 1) // 2)
        c = self.pow(self.primitive, t)
        u = self.pow(a, t)
        width = s
        while u != 1:
            i = 0
            tmp = u
            while tmp != 1:
                tmp = self.mul(tmp, tmp)
                i += 1
            b = c
            for _ in range(width - i - 1):
                b = self.mul(b, b)
            r = self.mul(r, b)
            c = self.mul(b, b)
            u = self.mul(u, c)
            width = i
        return r

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

    def element_order(self, a: int) -> int:
        """Return the multiplicative order of a nonzero element."""
        if int(a) == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        order = self.q - 1
        for ell in factorint(order):
            while order % ell == 0 and self.pow(a, order // ell) == 1:
                order //= ell
        return order

    def to_coeffs(self, a: int) -> tuple:
        """Return the base-p coefficient tuple encoded by element code a."""
        a = int(a)
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        """Return the element code encoding the given base-p coefficients."""
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise ValueError("coefficient list longer than the field degree")
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + int(c) % self.p
        return code

    # vectorized helpers shared by the extension backends

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

    def vsub(self, A, B):
        """Return the elementwise difference of two code arrays."""
        return self.vadd(A, self.vneg(B))

    def vmul(self, A, B):
        """Return the elementwise product of two code arrays."""
        raise NotImplementedError

    def vsum(self, A, axis=None):
        """Sum a code array along an axis (all axes when axis is None)."""
        A = np.asarray(A, np.int64)
        if self.p == 2:
            return np.bitwise_xor.reduce(A, axis=axis)
        D = self._to_digits(A)
        if axis is None:
            s = D.reshape(-1, self.m).sum(axis=0) % self.p
            return int(self._from_digits(s))
        ax = axis % A.ndim
        return self._from_digits(D.sum(axis=ax) % self.p)

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

    def vsum(self, A, axis=None):
        """Sum a code array along an axis (all axes when axis is None)."""
        return np.asarray(A, np.int64).sum(axis=axis) % self.p


class _TableField(Field):
    """Extension field on exp/log tables, for orders up to 2^16."""

    kind = "table"

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
            raw = lambda a, b: _clmul_code(m, mod_int, a, b)
        else:
            rows = _reduction_rows(p, m, modulus)
            raw = lambda a, b: _digit_mul_code(p, m, rows, a, b)

        def raw_pow(a, e):
            r = 1
            b = a
            while e:
                if e & 1:
                    r = raw(r, b)
                b = raw(b, b)
                e >>= 1
            return r

        q = self.q
        fac = factorint(q - 1)
        g = None
        for cand in range(1, q):
            if all(raw_pow(cand, (q - 1) // ell) != 1 for ell in fac):
                g = cand
                break
        if g is None:
            raise RuntimeError("multiplicative group has no generator")
        self.primitive = g
        exp_l = [0] * (q - 1)
        cur = 1
        for i in range(q - 1):
            exp_l[i] = cur
            cur = raw(cur, g)
        if cur != 1 or len(set(exp_l)) != q - 1:
            raise RuntimeError("generator does not enumerate the unit group")
        log_l = [0] * q
        for i, v in enumerate(exp_l):
            log_l[v] = i
        self._exp_l = exp_l
        self._log_l = log_l
        self._exp_np = np.array(exp_l, dtype=np.int64)
        self._log_np = np.array(log_l, dtype=np.int64)
        self._exp_np.setflags(write=False)
        self._log_np.setflags(write=False)

    def mul(self, a, b):
        """Return a * b."""
        a = int(a)
        b = int(b)
        if a == 0 or b == 0:
            return 0
        return self._exp_l[(self._log_l[a] + self._log_l[b]) % (self.q - 1)]

    def inv(self, a):
        """Return the multiplicative inverse of a."""
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp_l[(self.q - 1 - self._log_l[a]) % (self.q - 1)]

    def vmul(self, A, B):
        """Return the elementwise product of two code arrays."""
        A = np.asarray(A, np.int64)
        B = np.asarray(B, np.int64)
        nz = (A != 0) & (B != 0)
        idx = (self._log_np[A] + self._log_np[B]) % (self.q - 1)
        return np.where(nz, self._exp_np[idx], 0)


class _GenericField(Field):
    """Extension field on digit or carry-less arithmetic, beyond 2^16."""

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


def poly_add(F: Field, f, g) -> list:
    """Add two polynomials."""
    n = max(len(f), len(g))
    return poly_trim([
        F.add(f[i] if i < len(f) else 0, g[i] if i < len(g) else 0) for i in range(n)
    ])


def poly_neg(F: Field, f) -> list:
    """Negate a polynomial."""
    return [F.neg(c) for c in f]


def poly_sub(F: Field, f, g) -> list:
    """Subtract one polynomial from another."""
    return poly_add(F, f, poly_neg(F, g))


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
    inv_lead = F.inv(g[-1])
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


def poly_eval(F: Field, f, a: int) -> int:
    """Evaluate a polynomial at a field element by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = F.add(F.mul(v, a), c)
    return v


def poly_deriv(F: Field, f) -> list:
    """Return the formal derivative of a polynomial."""
    out = []
    for i in range(1, len(f)):
        out.append(F.mul(f[i], i % F.p))
    return poly_trim(out)


def poly_is_irreducible(F: Field, f) -> bool:
    """Test irreducibility over F via the Frobenius fixed-point criterion."""
    f = poly_trim(list(f))
    n = poly_deg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    f = poly_scale(F, f, F.inv(f[-1]))
    x = [0, 1]
    h = x
    for _ in range(n):
        h = poly_pow_mod(F, h, F.q, f)
    if h != x:
        return False
    for ell in factorint(n):
        g = x
        for _ in range(n // ell):
            g = poly_pow_mod(F, g, F.q, f)
        if poly_deg(poly_gcd(F, poly_sub(F, g, x), f)) != 0:
            return False
    return True


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
    return sorted(int(F.neg(g[0])) for g, _ in poly_factor(F, f) if len(g) == 2)
