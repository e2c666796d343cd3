"""Tests for dense exact linear algebra over finite fields."""

import random

import numpy as np
import pytest

from pblocks import ffield
from pblocks.errors import ShapeMismatch
from pblocks.ffield import (
    field_create,
    poly_divmod,
    poly_factor,
    poly_mul,
    poly_roots,
    poly_sub,
    poly_trim,
)
from pblocks.linalg import (
    Mat,
    _hessenberg,
    mat_add,
    mat_charpoly,
    mat_eigenspace,
    mat_inv,
    mat_kron,
    mat_left_kernel,
    mat_mul,
    mat_rank,
    mat_right_kernel,
    mat_rref,
    mat_scale,
    mat_solve_left,
    mat_sub,
    mat_transpose,
    mat_vector_minpoly,
)


def _random_mat(F, nrows, ncols, rng):
    """Build a random matrix over F."""
    data = [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(nrows)]
    return Mat(F, np.array(data, dtype=np.int64).reshape(nrows, ncols))


def _mat_mul_schoolbook(A, B):
    """Multiply by the scalar triple loop, one field add and mul at a time."""
    F = A.field
    out = np.zeros((A.nrows, B.ncols), dtype=np.int64)
    for i in range(A.nrows):
        for j in range(B.ncols):
            acc = 0
            for k in range(A.ncols):
                acc = F.add(acc, F.mul(int(A.data[i, k]), int(B.data[k, j])))
            out[i, j] = acc
    return Mat(F, out)


def _poly_eval(F, f, a):
    """Evaluate a polynomial at a field element by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = F.add(F.mul(v, a), c)
    return v


def _random_invertible(F, n, rng):
    """Build an invertible matrix as unit upper times unit lower triangular."""
    upper = np.zeros((n, n), dtype=np.int64)
    lower = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        upper[i, i] = 1
        lower[i, i] = 1
        for j in range(i + 1, n):
            upper[i, j] = rng.randrange(F.q)
            lower[j, i] = rng.randrange(F.q)
    return mat_mul(Mat(F, upper), Mat(F, lower))


# -- construction and guards ----------------------------------------------------

def test_matrix_is_immutable():
    A = Mat(field_create(3), [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        A.data[0, 0] = 2


def test_entry_range_checked():
    with pytest.raises(ShapeMismatch):
        Mat(field_create(3), [[0, 3]])
    with pytest.raises(ShapeMismatch):
        Mat(field_create(3), [[0, -1]])


def test_inexact_entries_and_scalars_rejected():
    # numpy would truncate 1.5 to 1 and read True and '3' as codes
    F = field_create(5)
    for data in ([[1.5, 2]], [[True, 0]], [["3", 1]], [[None, 1]],
                 np.array([[1.0, 2.0]]), np.array([[True, False]])):
        with pytest.raises(ShapeMismatch):
            Mat(F, data)
    for c in (1.5, 2.0, True, "2"):
        with pytest.raises(ShapeMismatch):
            mat_scale(Mat.identity(F, 2), c)
    # integer codes of any integer type, and an empty matrix, still pass
    assert Mat(F, [[np.int64(3), 1]]) == Mat(F, np.array([[3, 1]], dtype=np.int32))
    assert Mat(F, [[]]).shape == (1, 0)
    assert mat_scale(Mat.identity(F, 2), np.int64(2)) == Mat(F, [[2, 0], [0, 2]])


def test_scalar_range_checked():
    for F in (field_create(3), field_create(2, 4), field_create(3, 11)):
        for c in (-1, F.q):
            with pytest.raises(ShapeMismatch):
                mat_scale(Mat.identity(F, 2), c)


@pytest.mark.parametrize("p, m", [(7, 1), (2, 4), (3, 2), (2, 17), (3, 11)])
def test_kernel_results_are_fresh_and_read_only(p, m):
    F = field_create(p, m)
    rng = random.Random(p * 100 + m)
    A = _random_mat(F, 3, 3, rng)
    B = _random_mat(F, 3, 3, rng)
    identity = Mat.identity(F, 3)
    results = [
        (mat_mul(A, B), (A, B)),
        (mat_mul(A, identity), (A, identity)),
        (mat_mul(identity, A), (identity, A)),
        (mat_add(A, B), (A, B)),
        (mat_add(A, Mat.zeros(F, 3, 3)), (A,)),
        (mat_sub(A, B), (A, B)),
        (mat_sub(A, Mat.zeros(F, 3, 3)), (A,)),
        (mat_scale(A, 1), (A,)),
        (mat_scale(A, 0), (A,)),
    ]
    for C, inputs in results:
        assert C.data.dtype == np.int64 and C.data.ndim == 2
        assert not C.data.flags.writeable
        assert not any(np.shares_memory(C.data, X.data) for X in inputs)
    assert mat_mul(A, identity) == A == mat_scale(A, 1)
    assert mat_sub(A, Mat.zeros(F, 3, 3)) == A


def test_shape_guards():
    F = field_create(5)
    A = Mat.zeros(F, 2, 3)
    B = Mat.zeros(F, 2, 3)
    with pytest.raises(ShapeMismatch):
        mat_mul(A, B)
    with pytest.raises(ShapeMismatch):
        mat_add(A, Mat.zeros(F, 3, 2))
    with pytest.raises(ShapeMismatch):
        mat_mul(A, Mat.zeros(field_create(7), 3, 2))


# -- products ----------------------------------------------------------------------

MUL_FIELDS = [(2, 1), (3, 1), (101, 1), (2, 2), (3, 2), (2, 6), (2, 17), (3, 11)]


def test_product_matches_schoolbook():
    for p, m in MUL_FIELDS:
        F = field_create(p, m)
        rng = random.Random(7)
        for _ in range(5):
            A = _random_mat(F, rng.randrange(1, 7), rng.randrange(1, 7), rng)
            B = _random_mat(F, A.ncols, rng.randrange(1, 7), rng)
            assert mat_mul(A, B) == _mat_mul_schoolbook(A, B)


EDGE_FIELDS = [(2, 1), (101, 1), (2, 2), (2, 6), (2, 12), (3, 6), (7, 3), (5, 6), (3, 10),
               (2, 17), (3, 11)]


@pytest.mark.parametrize("p, m", EDGE_FIELDS)
def test_product_edge_shapes_match_schoolbook(p, m):
    F = field_create(p, m)
    rng = random.Random(41)
    # empty factors, then products that run more than one inner block:
    # a long inner index, and an output with more entries than the bound
    for rows, inner, cols in [(3, 0, 4), (0, 5, 2), (4, 5, 0), (0, 0, 0),
                              (3, 1900, 3), (129, 2, 128)]:
        A = _random_mat(F, rows, inner, rng)
        B = _random_mat(F, inner, cols, rng)
        if inner and rows * cols:
            assert rows * inner * cols > ffield._PRODUCT_BLOCK
        got = mat_mul(A, B)
        assert got.shape == (rows, cols)
        assert got == _mat_mul_schoolbook(A, B)


@pytest.mark.parametrize("p, m", [(3, 2), (7, 3), (5, 6), (3, 10)])
def test_product_of_top_digit_terms_past_the_carry_bound(p, m):
    # every term is 1 (q - 1), whose digits are all p - 1: the packed sums
    # of an odd table field sit at their bound before each renormalisation
    F = field_create(p, m)
    inner = 1900
    A = Mat(F, np.ones((2, inner), dtype=np.int64))
    B = Mat(F, np.full((inner, 3), F.q - 1, dtype=np.int64))
    # each digit of the sum is inner (p - 1) mod p
    want = sum(inner * (p - 1) % p * p ** i for i in range(m))
    assert mat_mul(A, B) == Mat(F, np.full((2, 3), want, dtype=np.int64))


def test_prime_product_past_the_int64_bound_takes_the_blocked_sum():
    # the largest prime below the field size cap: (p - 1)^2 is about 2^48, so
    # an inner dimension of 32,800 sums past 2^63 and one int64 product wraps
    p = 16777213
    inner = 32800
    F = field_create(p)
    assert F.kind == "prime" and inner > F._dot_block
    assert inner * (p - 2 ** 12) ** 2 >= 2 ** 63
    rng = random.Random(inner)
    A = [[rng.randrange(p - 2 ** 12, p) for _ in range(inner)] for _ in range(2)]
    B = [[rng.randrange(p - 2 ** 12, p) for _ in range(3)] for _ in range(inner)]
    want = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]
    assert (np.array(A) @ np.array(B) % p).tolist() != want
    assert mat_mul(Mat(F, A), Mat(F, B)).data.tolist() == want


@pytest.mark.parametrize("p, m", EDGE_FIELDS)
def test_solve_left_against_a_zero_matrix(p, m):
    # no pivots, so both products inside the solve have inner dimension 0
    F = field_create(p, m)
    A = Mat.zeros(F, 3, 4)
    assert mat_solve_left(A, Mat.zeros(F, 2, 4)) == Mat.zeros(F, 2, 3)
    with pytest.raises(ValueError):
        mat_solve_left(A, Mat(F, [[0, 0, 1, 0]]))


def test_product_associativity_and_identity():
    for p, m in [(3, 1), (2, 3), (5, 2)]:
        F = field_create(p, m)
        rng = random.Random(23)
        A = _random_mat(F, 5, 4, rng)
        B = _random_mat(F, 4, 6, rng)
        C = _random_mat(F, 6, 3, rng)
        assert mat_mul(mat_mul(A, B), C) == mat_mul(A, mat_mul(B, C))
        assert mat_mul(Mat.identity(F, 5), A) == A
        assert mat_mul(A, Mat.identity(F, 4)) == A


def test_scale_and_arithmetic():
    F = field_create(7)
    rng = random.Random(3)
    A = _random_mat(F, 4, 5, rng)
    B = _random_mat(F, 4, 5, rng)
    assert mat_sub(mat_add(A, B), B) == A
    assert mat_scale(A, 1) == A
    assert mat_scale(A, 0) == Mat.zeros(F, 4, 5)
    two_a = mat_add(A, A)
    assert mat_scale(A, 2) == two_a


def test_transpose_of_product():
    F = field_create(3, 2)
    rng = random.Random(5)
    A = _random_mat(F, 4, 6, rng)
    B = _random_mat(F, 6, 3, rng)
    assert mat_transpose(mat_mul(A, B)) == mat_mul(mat_transpose(B), mat_transpose(A))


def test_kron_mixed_product():
    for p, m in [(2, 1), (5, 1), (2, 2)]:
        F = field_create(p, m)
        rng = random.Random(11)
        A = _random_mat(F, 3, 2, rng)
        B = _random_mat(F, 2, 3, rng)
        C = _random_mat(F, 2, 4, rng)
        D = _random_mat(F, 3, 2, rng)
        left = mat_mul(mat_kron(A, B), mat_kron(C, D))
        right = mat_kron(mat_mul(A, C), mat_mul(B, D))
        assert left == right


def test_kron_entries():
    F = field_create(5)
    A = Mat(F, [[1, 2], [3, 4]])
    B = Mat(F, [[0, 1], [2, 3]])
    K = mat_kron(A, B)
    assert K.shape == (4, 4)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    want = F.mul(int(A.data[i1, j1]), int(B.data[i2, j2]))
                    assert int(K.data[2 * i1 + i2, 2 * j1 + j2]) == want


# -- elimination ----------------------------------------------------------------------

def test_rref_shape_properties():
    for p, m in [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2)]:
        F = field_create(p, m)
        rng = random.Random(31)
        for _ in range(10):
            A = _random_mat(F, rng.randrange(1, 8), rng.randrange(1, 8), rng)
            R, pivots = mat_rref(A)
            assert list(pivots) == sorted(pivots)
            for i, j in enumerate(pivots):
                col = np.zeros(A.nrows, dtype=np.int64)
                col[i] = 1
                assert np.array_equal(R.data[:, j], col)
            assert not R.data[len(pivots):, :].any()
            # A adds nothing to the row space of R
            assert mat_rank(Mat(F, np.vstack([A.data, R.data]))) == len(pivots)
            # reducing again changes nothing
            R2, pivots2 = mat_rref(R)
            assert R2 == R and pivots2 == pivots


def test_rank_of_products():
    F = field_create(3)
    rng = random.Random(13)
    A = _random_mat(F, 6, 4, rng)
    B = _random_mat(F, 4, 6, rng)
    assert mat_rank(mat_mul(A, B)) <= min(mat_rank(A), mat_rank(B))
    assert mat_rank(Mat.identity(F, 5)) == 5
    assert mat_rank(Mat.zeros(F, 3, 4)) == 0


def test_inverse_round_trip():
    for p, m in [(2, 1), (3, 1), (2, 3), (5, 2), (3, 2)]:
        F = field_create(p, m)
        rng = random.Random(17)
        for n in (1, 2, 5, 8):
            A = _random_invertible(F, n, rng)
            Ainv = mat_inv(A)
            assert mat_mul(A, Ainv) == Mat.identity(F, n)
            assert mat_mul(Ainv, A) == Mat.identity(F, n)


def test_singular_inverse_raises():
    F = field_create(5)
    with pytest.raises(ZeroDivisionError):
        mat_inv(Mat(F, [[1, 2], [2, 4]]))
    with pytest.raises(ShapeMismatch):
        mat_inv(Mat.zeros(F, 2, 3))


def test_kernels():
    for p, m in [(2, 1), (3, 1), (2, 2), (7, 1)]:
        F = field_create(p, m)
        rng = random.Random(29)
        for _ in range(10):
            A = _random_mat(F, rng.randrange(1, 8), rng.randrange(1, 8), rng)
            K = mat_right_kernel(A)
            assert K.nrows == A.ncols - mat_rank(A)
            if K.nrows:
                assert not mat_mul(A, mat_transpose(K)).data.any()
                assert mat_rank(K) == K.nrows
            L = mat_left_kernel(A)
            assert L.nrows == A.nrows - mat_rank(A)
            if L.nrows:
                assert not mat_mul(L, A).data.any()


def test_solve_left_round_trip():
    for p, m in [(2, 1), (5, 1), (3, 2)]:
        F = field_create(p, m)
        rng = random.Random(37)
        for _ in range(10):
            A = _random_mat(F, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            X = _random_mat(F, rng.randrange(1, 6), A.nrows, rng)
            B = mat_mul(X, A)
            solved = mat_solve_left(A, B)
            assert mat_mul(solved, A) == B


def test_solve_left_inconsistent_raises():
    F = field_create(3)
    A = Mat(F, [[1, 0], [0, 0]])
    B = Mat(F, [[0, 1]])
    with pytest.raises(ValueError):
        mat_solve_left(A, B)


# -- characteristic polynomial ----------------------------------------------------------

def _charpoly_cofactor(F, A):
    """Expand det(xI - A) by minors over the first column (oracle)."""
    n = A.nrows
    entries = [
        [
            poly_trim(
                [F.neg(int(A.data[i, j])), 1]
                if i == j
                else [F.neg(int(A.data[i, j]))]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows, cols):
        if not rows:
            return [1]
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = []
        for idx, i in enumerate(rows):
            e = entries[i][cols[0]]
            if not e:
                continue
            minor = det([r for r in rows if r != i], cols[1:])
            term = poly_mul(F, e, minor)
            if idx % 2:
                total = poly_sub(F, total, term)
            else:
                total = poly_trim(
                    [
                        F.add(total[k] if k < len(total) else 0,
                              term[k] if k < len(term) else 0)
                        for k in range(max(len(total), len(term)))
                    ]
                )
        return total

    return det(list(range(n)), list(range(n)))


def test_charpoly_matches_cofactor_oracle():
    # (5, 2) is an odd table field and (2, 17) a generic one.  The diagonal
    # and block upper-triangular inputs put zeros on the Hessenberg
    # subdiagonal, which zero the running products of the recurrence.
    for p, m in [(2, 1), (3, 1), (2, 2), (3, 2), (7, 1), (5, 2), (2, 17)]:
        F = field_create(p, m)
        rng = random.Random(41)
        for n in (0, 1, 2, 3, 4, 5):
            diagonal = Mat(F, np.diag([rng.randrange(F.q) for _ in range(n)]))
            block = _random_mat(F, n, n, rng).writable()
            block[n // 2:, :n // 2] = 0
            block = Mat(F, block)
            if n >= 2:
                assert _hessenberg(block)[n // 2, n // 2 - 1] == 0
            for A in (_random_mat(F, n, n, rng), diagonal, block):
                got = poly_trim(mat_charpoly(A))
                want = _charpoly_cofactor(F, A)
                assert got == want, (p, m, n, A.data.tolist())


def test_cayley_hamilton():
    for p, m in [(2, 2), (7, 1), (5, 2), (2, 6), (13, 1), (3, 4)]:
        F = field_create(p, m)
        rng = random.Random(53)
        for n in (3, 6, 9, 24, 40):
            A = _random_mat(F, n, n, rng)
            coeffs = mat_charpoly(A)
            acc = Mat.zeros(F, n, n)
            for c in reversed(coeffs):
                acc = mat_add(mat_mul(acc, A), mat_scale(Mat.identity(F, n), c))
            assert acc == Mat.zeros(F, n, n)


def test_charpoly_of_companion_matrix():
    F = field_create(3, 2)
    rng = random.Random(61)
    for n in (2, 4, 7):
        coeffs = [rng.randrange(F.q) for _ in range(n)] + [1]
        comp = np.zeros((n, n), dtype=np.int64)
        for i in range(n - 1):
            comp[i + 1, i] = 1
        for i in range(n):
            comp[i, n - 1] = F.neg(coeffs[i])
        got = mat_charpoly(Mat(F, comp))
        assert got == coeffs


def test_char_poly_factors_of_block_diagonal():
    F = field_create(5)
    A = Mat(F, [[2, 0, 0], [0, 3, 0], [0, 0, 3]])
    factors = dict(poly_factor(F, mat_charpoly(A)))
    assert factors == {(3, 1): 1, (2, 1): 2}
    # eigenvalue 2 gives factor x - 2 = x + 3, eigenvalue 3 gives x + 2
    for (coeffs, _mult) in factors.items():
        root = F.neg(coeffs[0])
        assert _poly_eval(F, list(coeffs), root) == 0
    for p, m in [(2, 6), (3, 4)]:
        F = field_create(p, m)
        rng = random.Random(67)
        A = _random_mat(F, 7, 7, rng)
        B = _random_mat(F, 9, 9, rng)
        diag = np.zeros((16, 16), dtype=np.int64)
        diag[:7, :7] = A.data
        diag[7:, 7:] = B.data
        got = mat_charpoly(Mat(F, diag))
        assert got == poly_mul(F, mat_charpoly(A), mat_charpoly(B))


# -- eigenspaces -------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(7, 1), (2, 4), (3, 6)])
def test_eigenspace_matches_rank_oracle(p, m):
    F = field_create(p, m)
    rng = random.Random(p * 100 + m)
    lam, mu, nu = 2, 3, 5
    # a Jordan block of lam, a second lam, then mu twice and nu once
    J = np.zeros((6, 6), dtype=np.int64)
    for i, c in enumerate([lam, lam, lam, mu, mu, nu]):
        J[i, i] = c
    J[0, 1] = 1
    P = _random_invertible(F, 6, rng)
    A = mat_mul(mat_mul(mat_inv(P), Mat(F, J)), P)
    expected = {lam: 2, mu: 2, nu: 1, 6: 0}
    for c, dim in expected.items():
        E = mat_eigenspace(A, c)
        shifted = mat_sub(A, mat_scale(Mat.identity(F, 6), c))
        assert E.nrows == dim == 6 - mat_rank(shifted)
        if dim:
            assert mat_rank(E) == dim
            assert mat_mul(E, A) == mat_scale(E, c)


def test_eigenspace_needs_square_matrix():
    with pytest.raises(ShapeMismatch):
        mat_eigenspace(Mat.zeros(field_create(7), 2, 3), 1)


# -- Krylov sequences -----------------------------------------------------------------

# a prime field, table fields of characteristic 2 and 3, and the generic GF(2^18)
KRYLOV_FIELDS = [(101, 1), (2, 6), (3, 4), (2, 18)]


def _poly_at(F, f, A):
    """Return f(A) by Horner's rule on matrices."""
    n = A.nrows
    acc = Mat.zeros(F, n, n)
    for c in reversed(f):
        acc = mat_add(mat_mul(acc, A), mat_scale(Mat.identity(F, n), c))
    return acc


@pytest.mark.parametrize("p, m", KRYLOV_FIELDS)
def test_vector_minpoly_is_the_least_annihilator_and_divides_the_charpoly(p, m):
    F = field_create(p, m)
    rng = random.Random(p * 100 + m)
    for n in (1, 4, 9):
        B = _random_mat(F, n, n, rng)
        repeated = np.zeros((2 * n, 2 * n), dtype=np.int64)
        repeated[:n, :n] = repeated[n:, n:] = B.data
        # on B + B no row has a minimal polynomial of degree above n
        for A in (B, Mat(F, repeated)):
            v = _random_mat(F, 1, A.nrows, rng)
            while not v.data.any():
                v = _random_mat(F, 1, A.nrows, rng)
            rows, f = mat_vector_minpoly(A, v)
            k = rows.nrows
            assert len(f) == k + 1 and f[-1] == 1
            assert mat_mul(v, _poly_at(F, f, A)) == Mat.zeros(F, 1, A.nrows)
            assert mat_rank(rows) == k and k <= n
            assert rows.data[0].tolist() == v.data[0].tolist()
            assert all(mat_mul(Mat(F, rows.data[i:i + 1]), A) == Mat(F, rows.data[i + 1:i + 2])
                       for i in range(k - 1))
            assert poly_divmod(F, mat_charpoly(A), f)[1] == []
            for c in poly_roots(F, f):
                u = mat_mul(Mat(F, [poly_divmod(F, f, [F.neg(c), 1])[0]]), rows)
                assert u.data.any() and mat_mul(u, A) == mat_scale(u, c)


@pytest.mark.parametrize("p, m", KRYLOV_FIELDS)
def test_vector_minpoly_of_the_first_unit_row_under_a_companion_matrix_is_its_charpoly(p, m):
    # e_i C = e_(i+1) for i < n - 1 and e_(n-1) C = -(c_0 e_0 + ... + c_(n-1) e_(n-1))
    F = field_create(p, m)
    rng = random.Random(71 + p + m)
    for n in (1, 3, 8):
        coeffs = [rng.randrange(F.q) for _ in range(n)] + [1]
        comp = np.zeros((n, n), dtype=np.int64)
        for i in range(n - 1):
            comp[i, i + 1] = 1
        comp[n - 1] = [F.neg(c) for c in coeffs[:n]]
        C = Mat(F, comp)
        rows, f = mat_vector_minpoly(C, Mat(F, Mat.identity(F, n).data[:1]))
        assert f == coeffs == mat_charpoly(C)
        assert rows == Mat.identity(F, n)


def test_vector_minpoly_shape_guards():
    F = field_create(7)
    with pytest.raises(ShapeMismatch):
        mat_vector_minpoly(Mat.zeros(F, 2, 3), Mat.zeros(F, 1, 2))
    with pytest.raises(ShapeMismatch):
        mat_vector_minpoly(Mat.identity(F, 3), Mat.zeros(F, 1, 2))
    with pytest.raises(ShapeMismatch):
        mat_vector_minpoly(Mat.identity(F, 2), Mat.zeros(field_create(5), 1, 2))
