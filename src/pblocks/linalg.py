"""Dense exact linear algebra over finite fields.

Matrices are immutable wrappers around numpy int64 arrays of element
codes.  Vectors are rows and matrices act on the right: the left kernel
of M is the space of rows v with v M = 0, and eigenvectors of M are rows
v with v M = c v.  Elimination routines use one vectorized full-matrix
update per pivot, with the pivot chosen as the first nonzero entry.  The
characteristic polynomial runs the Hessenberg recurrence on coefficient
rows, with one vector op per term.  The minimal polynomial of one vector
under a matrix comes from its Krylov sequence v, vA, ..., vA^n by one
elimination (Keller-Gehrig), which also gives the Krylov rows that carry
its eigenvectors.  Every product, including the sums inside the Hessenberg
reduction, the recurrence, the Krylov sequence and the spin, goes through
the field's vdot: numpy's integer product on prime fields, in blocks
that int64 sums cannot wrap, packed digit sums on odd characteristic table
fields, and otherwise, per block of the inner index, one XOR reduce or, on
odd generic fields, one sum of the products' digits.  No transient array
holds more than max(2^14, rows x cols) products.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .ffield import Field
from .intmath import is_int

# -- matrix type -------------------------------------------------------------

class Mat:
    """Immutable dense matrix over a finite field."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data):
        if not isinstance(data, np.ndarray):
            # numpy reads [True, 0] as int64, so a list is checked entry by entry
            data = np.array(data, dtype=object)
            if not all(is_int(x) for x in data.flat):
                raise ShapeMismatch("matrix entries must be integer codes")
        elif data.size and data.dtype.kind not in "iu":
            raise ShapeMismatch("matrix entries must be integer codes")
        arr = np.array(data, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise ShapeMismatch("matrix data must be two dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise ShapeMismatch("entry out of range for the field")
        arr.setflags(write=False)
        self.field = field
        self.data = arr

    @classmethod
    def _fresh(cls, field: Field, arr) -> "Mat":
        """Wrap an int64 array that a field op has just allocated, without a copy or range check."""
        arr.setflags(write=False)
        out = object.__new__(cls)
        out.field = field
        out.data = arr
        return out

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

    def __repr__(self):
        return f"Mat({self.field!r}, {self.nrows}x{self.ncols})"


def _same_field(A: Mat, B: Mat):
    """Require two matrices to live over the same field."""
    if A.field != B.field:
        raise ShapeMismatch("matrices over different fields")


# -- products --------------------------------------------------------------------

def mat_mul(A: Mat, B: Mat) -> Mat:
    """Multiply two matrices."""
    _same_field(A, B)
    if A.ncols != B.nrows:
        raise ShapeMismatch(f"cannot multiply {A.shape} by {B.shape}")
    return Mat._fresh(A.field, A.field.vdot(A.data, B.data))


def mat_add(A: Mat, B: Mat) -> Mat:
    """Add two matrices."""
    _same_field(A, B)
    if A.shape != B.shape:
        raise ShapeMismatch(f"cannot add {A.shape} and {B.shape}")
    return Mat._fresh(A.field, A.field.vadd(A.data, B.data))


def mat_sub(A: Mat, B: Mat) -> Mat:
    """Subtract one matrix from another."""
    _same_field(A, B)
    if A.shape != B.shape:
        raise ShapeMismatch(f"cannot subtract {B.shape} from {A.shape}")
    return Mat._fresh(A.field, A.field.vsub(A.data, B.data))


def mat_scale(A: Mat, c: int) -> Mat:
    """Multiply a matrix by a scalar, the code of a field element."""
    if not is_int(c):
        raise ShapeMismatch("the scalar must be an integer code")
    c = int(c)
    if not 0 <= c < A.field.q:
        raise ShapeMismatch("scalar out of range for the field")
    return Mat._fresh(A.field, A.field.vmul(A.data, np.int64(c)))


def mat_transpose(A: Mat) -> Mat:
    """Return the transpose, a read-only view of the same entries."""
    return Mat._fresh(A.field, A.data.T)


def mat_kron(A: Mat, B: Mat) -> Mat:
    """Return the Kronecker product, row-major in both factors."""
    _same_field(A, B)
    F = A.field
    prod = F.vmul(
        A.data[:, None, :, None],
        B.data[None, :, None, :],
    )
    return Mat._fresh(F, prod.reshape(A.nrows * B.nrows, A.ncols * B.ncols))


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


def mat_rref(A: Mat):
    """Return the reduced row echelon form and the pivot column tuple."""
    arr, pivots = _rref_generic(A.writable(), A.field, A.ncols)
    return Mat._fresh(A.field, arr), pivots


def mat_rank(A: Mat) -> int:
    """Return the rank."""
    return len(mat_rref(A)[1])


def _rref_with_transform(A: Mat):
    """Return (R, T, pivots) with T A = R and R in reduced echelon form."""
    F = A.field
    aug = np.hstack([A.data, Mat.identity(F, A.nrows).data])
    arr, pivots = _rref_generic(aug, F, A.ncols)
    R = Mat._fresh(F, arr[:, :A.ncols])
    T = Mat._fresh(F, arr[:, A.ncols:])
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
    pivot_set = set(pivots)
    free = [j for j in range(A.ncols) if j not in pivot_set]
    out = np.zeros((len(free), A.ncols), dtype=np.int64)
    cols = list(pivots)
    for idx, j in enumerate(free):
        out[idx, j] = 1
        out[idx, cols] = F.vneg(R.data[:len(cols), j])
    return Mat._fresh(F, out)


def mat_left_kernel(A: Mat) -> Mat:
    """Return rows spanning the space of rows v with v A = 0."""
    return mat_right_kernel(mat_transpose(A))


def mat_eigenspace(A: Mat, lam: int) -> Mat:
    """Return rows spanning the eigenspace of rows v with v A = lam v."""
    if A.nrows != A.ncols:
        raise ShapeMismatch("eigenspaces need a square matrix")
    F = A.field
    shifted = A.writable()
    idx = np.arange(A.nrows)
    shifted[idx, idx] = F.vsub(shifted[idx, idx], np.int64(int(lam)))
    return mat_left_kernel(Mat._fresh(F, shifted))


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


# -- characteristic and minimal polynomials -------------------------------------------

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
            contrib = F.vdot(H[:, j + 2:], factors[:, None])[:, 0]
            H[:, j + 1] = F.vadd(H[:, j + 1], contrib)
    return H


def mat_charpoly(A: Mat) -> list:
    """Return the characteristic polynomial det(xI - A), constant term first.

    The polynomials p_k of the leading blocks of the Hessenberg form H are
    the rows of one array (Cohen, 2.2.9): p_k = x p_(k-1) minus, over j < k,
    H[j, k-1] H[j+1, j] ... H[k-1, k-2] p_j, one vdot per step.
    """
    if A.nrows != A.ncols:
        raise ShapeMismatch("characteristic polynomial needs a square matrix")
    F = A.field
    n = A.nrows
    H = _hessenberg(A)
    # sub[k - 1] = H[k - 1, k - 2]; sub[0] only ever meets the empty prods
    sub = np.concatenate([np.zeros(1, np.int64), np.diagonal(H, -1)])
    P = np.eye(n + 1, dtype=np.int64)
    prods = np.zeros(0, dtype=np.int64)
    for k in range(1, n + 1):
        prods = np.append(F.vmul(prods, sub[k - 1]), 1)
        c = F.vmul(H[:k, k - 1], prods)
        P[k, 1:k + 1] = P[k - 1, :k]
        P[k, :k] = F.vsub(P[k, :k], F.vdot(c[None, :], P[:k, :k])[0])
    return P[n].tolist()


def mat_vector_minpoly(A: Mat, v: Mat) -> tuple:
    """Return the Krylov rows of a row v under A and its minimal polynomial.

    The polynomial is the monic f of least degree k with v f(A) = 0,
    constant term first, and the rows are v, vA, ..., vA^(k-1), which are
    independent.  The rows vA^i, i <= n, take n vdots, and one rref of
    their transpose finds k and f (Keller-Gehrig): its pivots are columns
    0..k-1, and column k holds the coordinates of vA^k on the first k rows.
    f divides the minimal polynomial of A, and for each root c of f,
    (f / (x - c)) applied to v, a combination of the rows, is a nonzero
    row u with u A = c u.
    """
    _same_field(A, v)
    if A.nrows != A.ncols or v.shape != (1, A.nrows):
        raise ShapeMismatch(f"cannot run a Krylov sequence of {v.shape} under {A.shape}")
    F = A.field
    n = A.nrows
    rows = np.empty((n + 1, n), dtype=np.int64)
    rows[0] = v.data[0]
    for i in range(n):
        rows[i + 1] = F.vdot(rows[i:i + 1], A.data)[0]
    R, pivots = mat_rref(Mat._fresh(F, rows.T))
    k = len(pivots)
    if pivots != tuple(range(k)):
        raise RuntimeError("Krylov rows past the minimal polynomial's degree are not dependent")
    return Mat._fresh(F, rows[:k]), F.vneg(R.data[:k, k]).tolist() + [1]
