"""Dense exact linear algebra over finite fields.

Matrices are immutable wrappers around numpy int64 arrays of element
codes.  Vectors are rows and matrices act on the right: the left kernel
of M is the space of rows v with v M = 0, and eigenvectors of M are rows
v with v M = c v.  Elimination routines use one vectorized full-matrix
update per pivot, with the pivot chosen as the first nonzero entry; over
GF(2) a bit-packed fast path (rows held as Python ints) follows the same
pivot rule, so both paths produce identical echelon forms.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .ffield import Field, poly_add, poly_factor, poly_mul, poly_scale

# -- matrix type -------------------------------------------------------------

class Mat:
    """Immutable dense matrix over a finite field."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data):
        arr = np.array(data, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise ShapeMismatch("matrix data must be two dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise ShapeMismatch("entry out of range for the field")
        arr.setflags(write=False)
        self.field = field
        self.data = arr

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    @property
    def ncols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Mat":
        """Return the zero matrix of the given shape."""
        return cls(field, np.zeros((nrows, ncols), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        """Return the n by n identity matrix."""
        arr = np.zeros((n, n), dtype=np.int64)
        idx = np.arange(n)
        arr[idx, idx] = 1
        return cls(field, arr)

    @classmethod
    def from_rows(cls, field: Field, rows, ncols: int | None = None) -> "Mat":
        """Build a matrix from an iterable of rows (ncols disambiguates [])."""
        rows = [list(r) for r in rows]
        if not rows:
            if ncols is None:
                raise ShapeMismatch("empty row list needs an explicit width")
            return cls(field, np.zeros((0, ncols), dtype=np.int64))
        return cls(field, np.array(rows, dtype=np.int64))

    def writable(self):
        """Return a writable int64 copy of the entries."""
        return self.data.copy()

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __matmul__(self, other):
        return mat_mul(self, other)

    def __add__(self, other):
        return mat_add(self, other)

    def __sub__(self, other):
        return mat_sub(self, other)

    def __neg__(self):
        return Mat(self.field, self.field.vneg(self.data))

    def __repr__(self):
        return f"Mat({self.field!r}, {self.nrows}x{self.ncols})"


def _same_field(A: Mat, B: Mat):
    """Require two matrices to live over the same field."""
    if A.field != B.field:
        raise ShapeMismatch("matrices over different fields")


# -- bit packing for GF(2) ------------------------------------------------------

def _pack_bit_rows(arr) -> list:
    """Pack the rows of a 0/1 array into Python ints, column j at bit j."""
    out = []
    for i in range(arr.shape[0]):
        packed = np.packbits(arr[i].astype(np.uint8), bitorder="little").tobytes()
        out.append(int.from_bytes(packed, "little"))
    return out


def _unpack_bit_rows(rows, ncols: int):
    """Unpack Python-int rows back into a 0/1 int64 array."""
    nbytes = max((ncols + 7) // 8, 1)
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, r in enumerate(rows):
        raw = np.frombuffer(r.to_bytes(nbytes, "little"), dtype=np.uint8)
        out[i] = np.unpackbits(raw, bitorder="little")[:ncols]
    return out


# -- products --------------------------------------------------------------------

def _mat_mul_schoolbook(A: Mat, B: Mat) -> Mat:
    """Multiply by the scalar triple loop (reference path for tests)."""
    F = A.field
    out = np.zeros((A.nrows, B.ncols), dtype=np.int64)
    for i in range(A.nrows):
        for j in range(B.ncols):
            acc = 0
            for k in range(A.ncols):
                acc = F.add(acc, F.mul(int(A.data[i, k]), int(B.data[k, j])))
            out[i, j] = acc
    return Mat(F, out)


def _mat_mul_packed(A: Mat, B: Mat) -> Mat:
    """Multiply two GF(2) matrices on bit-packed rows."""
    brows = _pack_bit_rows(B.data)
    crows = []
    for a in _pack_bit_rows(A.data):
        acc = 0
        k = 0
        while a:
            if a & 1:
                acc ^= brows[k]
            a >>= 1
            k += 1
        crows.append(acc)
    return Mat(A.field, _unpack_bit_rows(crows, B.ncols))


def mat_mul(A: Mat, B: Mat) -> Mat:
    """Multiply two matrices."""
    _same_field(A, B)
    if A.ncols != B.nrows:
        raise ShapeMismatch(f"cannot multiply {A.shape} by {B.shape}")
    F = A.field
    if F.q == 2:
        return _mat_mul_packed(A, B)
    if F.kind == "prime" and A.ncols * (F.p - 1) ** 2 < 2 ** 62:
        return Mat(F, (A.data @ B.data) % F.p)
    out = np.zeros((A.nrows, B.ncols), dtype=np.int64)
    for k in range(A.ncols):
        col = A.data[:, k:k + 1]
        if col.any():
            out = F.vadd(out, F.vmul(col, B.data[k:k + 1, :]))
    return Mat(F, out)


def mat_add(A: Mat, B: Mat) -> Mat:
    """Add two matrices."""
    _same_field(A, B)
    if A.shape != B.shape:
        raise ShapeMismatch(f"cannot add {A.shape} and {B.shape}")
    return Mat(A.field, A.field.vadd(A.data, B.data))


def mat_sub(A: Mat, B: Mat) -> Mat:
    """Subtract one matrix from another."""
    _same_field(A, B)
    if A.shape != B.shape:
        raise ShapeMismatch(f"cannot subtract {B.shape} from {A.shape}")
    return Mat(A.field, A.field.vsub(A.data, B.data))


def mat_scale(A: Mat, c: int) -> Mat:
    """Multiply a matrix by a scalar."""
    return Mat(A.field, A.field.vmul(A.data, np.int64(int(c))))


def mat_transpose(A: Mat) -> Mat:
    """Return the transpose."""
    return Mat(A.field, A.data.T)


def mat_kron(A: Mat, B: Mat) -> Mat:
    """Return the Kronecker product, row-major in both factors."""
    _same_field(A, B)
    F = A.field
    prod = F.vmul(
        A.data[:, None, :, None],
        B.data[None, :, None, :],
    )
    return Mat(F, prod.reshape(A.nrows * B.nrows, A.ncols * B.ncols))


# -- elimination --------------------------------------------------------------------

def _rref_generic(arr, F: Field, limit: int):
    """Reduce a writable array in place; pivots only in the first limit columns."""
    nrows = arr.shape[0]
    pivots = []
    r = 0
    for j in range(limit):
        if r == nrows:
            break
        nz = np.flatnonzero(arr[r:, j])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            arr[[r, i]] = arr[[i, r]]
        inv = F.inv(int(arr[r, j]))
        if inv != 1:
            arr[r] = F.vmul(arr[r], np.int64(inv))
        colv = arr[:, j].copy()
        colv[r] = 0
        if colv.any():
            arr[:] = F.vsub(arr, F.vmul(colv[:, None], arr[r:r + 1, :]))
        pivots.append(j)
        r += 1
    return arr, tuple(pivots)


def _rref_packed(arr, limit: int):
    """Reduce a 0/1 array on bit-packed rows with the same pivot rule."""
    rows = _pack_bit_rows(arr)
    nrows = len(rows)
    pivots = []
    r = 0
    for j in range(limit):
        if r == nrows:
            break
        bit = 1 << j
        piv = -1
        for i in range(r, nrows):
            if rows[i] & bit:
                piv = i
                break
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(nrows):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(j)
        r += 1
    return _unpack_bit_rows(rows, arr.shape[1]), tuple(pivots)


def mat_rref(A: Mat):
    """Return the reduced row echelon form and the pivot column tuple."""
    if A.field.q == 2:
        arr, pivots = _rref_packed(A.data, A.ncols)
    else:
        arr, pivots = _rref_generic(A.writable(), A.field, A.ncols)
    return Mat(A.field, arr), pivots


def mat_rank(A: Mat) -> int:
    """Return the rank."""
    return len(mat_rref(A)[1])


def _rref_with_transform(A: Mat):
    """Return (R, T, pivots) with T A = R and R in reduced echelon form."""
    F = A.field
    aug = np.hstack([A.data, Mat.identity(F, A.nrows).data])
    if F.q == 2:
        arr, pivots = _rref_packed(aug, A.ncols)
    else:
        arr, pivots = _rref_generic(aug.copy(), F, A.ncols)
    R = Mat(F, arr[:, :A.ncols])
    T = Mat(F, arr[:, A.ncols:])
    return R, T, pivots


def mat_inv(A: Mat) -> Mat:
    """Return the inverse of a square matrix."""
    if A.nrows != A.ncols:
        raise ShapeMismatch("only square matrices can be inverted")
    R, T, pivots = _rref_with_transform(A)
    if len(pivots) != A.nrows:
        raise ZeroDivisionError("matrix is singular")
    return T


def mat_right_kernel(A: Mat) -> Mat:
    """Return rows spanning the space of columns x with A x = 0."""
    F = A.field
    R, pivots = mat_rref(A)
    free = [j for j in range(A.ncols) if j not in set(pivots)]
    out = np.zeros((len(free), A.ncols), dtype=np.int64)
    for idx, j in enumerate(free):
        out[idx, j] = 1
        for i, pj in enumerate(pivots):
            out[idx, pj] = F.neg(int(R.data[i, j]))
    return Mat(F, out)


def mat_left_kernel(A: Mat) -> Mat:
    """Return rows spanning the space of rows v with v A = 0."""
    return mat_right_kernel(mat_transpose(A))


def mat_solve_left(A: Mat, B: Mat) -> Mat:
    """Solve X A = B for X, raising ValueError when no solution exists."""
    _same_field(A, B)
    if A.ncols != B.ncols:
        raise ShapeMismatch(f"cannot solve {A.shape} against {B.shape}")
    R, T, pivots = _rref_with_transform(A)
    coeffs = B.data[:, list(pivots)]
    C = Mat(A.field, coeffs)
    residual = mat_sub(B, mat_mul(C, Mat(A.field, R.data[:len(pivots), :])))
    if residual.data.any():
        raise ValueError("linear system has no solution")
    return mat_mul(C, Mat(A.field, T.data[:len(pivots), :]))


# -- characteristic polynomial ---------------------------------------------------

def _hessenberg(A: Mat):
    """Return a Hessenberg form similar to A, as a writable array."""
    F = A.field
    H = A.writable()
    n = H.shape[0]
    for j in range(n - 2):
        nz = np.flatnonzero(H[j + 1:, j])
        if nz.size == 0:
            continue
        i = j + 1 + int(nz[0])
        if i != j + 1:
            H[[j + 1, i]] = H[[i, j + 1]]
            H[:, [j + 1, i]] = H[:, [i, j + 1]]
        inv = F.inv(int(H[j + 1, j]))
        factors = F.vmul(H[j + 2:, j], np.int64(inv))
        if factors.any():
            H[j + 2:, :] = F.vsub(H[j + 2:, :], F.vmul(factors[:, None], H[j + 1:j + 2, :]))
            contrib = F.vsum(F.vmul(H[:, j + 2:], factors[None, :]), axis=1)
            H[:, j + 1] = F.vadd(H[:, j + 1], contrib)
    return H


def mat_charpoly(A: Mat) -> list:
    """Return the characteristic polynomial det(xI - A), constant term first."""
    if A.nrows != A.ncols:
        raise ShapeMismatch("characteristic polynomial needs a square matrix")
    F = A.field
    n = A.nrows
    if n == 0:
        return [1]
    H = _hessenberg(A)
    polys = [[1]]
    for k in range(1, n + 1):
        a = int(H[k - 1, k - 1])
        term = [F.neg(a), 1]
        cur = poly_mul(F, term, polys[k - 1])
        prod = 1
        for i in range(1, k):
            prod = F.mul(prod, int(H[k - i, k - i - 1]))
            if prod == 0:
                break
            c = F.mul(int(H[k - 1 - i, k - 1]), prod)
            if c == 0:
                continue
            cur = poly_add(F, cur, poly_scale(F, polys[k - 1 - i], F.neg(c)))
        polys.append(cur)
    return polys[n]


def char_poly_factors(A: Mat, seed: int = 0) -> list:
    """Return the sorted irreducible factors of the characteristic polynomial."""
    return poly_factor(A.field, mat_charpoly(A), seed=seed)
