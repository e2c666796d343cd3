"""Modular representations of small permutation groups.

A module is stored as the list of matrices by which the group generators
act on row vectors over a splitting field of characteristic p.  The
pipeline works over GF(p^m), where m is the order of p modulo the
p'-part of the group exponent (ReductionContext); no caller chooses it.
The chop certifies composition factors with Norton's test on eigenvalues
of random algebra elements, which settles irreducibility over a splitting
field; a module that is simple but not absolutely simple, or any module
left undecided after RANDOM_ELEMENT_BUDGET elements, ends in
RandomBudgetExceeded.  As Holt and Rees state the test, it spins one
vector of each eigenspace (the nucleus) and, when that eigenspace is a
line, one vector of the matching eigenspace of the transpose.  Each draw
is an element and a start row: the minimal polynomial of the row, from
one elimination of its Krylov sequence, gives eigenvalues, and its
quotient by (x - root), applied to the row, gives a nucleus vector, so
the chop takes no characteristic polynomial and no eigenspace.  A random
element is a combination of generator words with no scalar term, since
theta + cI has the eigenspaces of theta with every root shifted by c.
Each certified factor keeps its witness: the element, the root and the
nucleus vector.  A tensor closure collects all simple modules: each piece
of a chop is first compared with the simples found so far, so a known
factor costs one witness test and no chop step, and the chop of the
product that yields the last missing simple ends there.  A square V x V
is split along 0 -> Alt^2 V -> V x V -> Sym^2 V -> 0, exact in every
characteristic, before its two halves are chopped.  Brauer character
values are read off as exact cyclotomic sums of eigenvalue multiplicities:
a p-regular element acts diagonalizably, so the multiplicities are those
of the roots of one characteristic polynomial.  If g has multiplicity c_j
at w_m^j, then g^a has c_j at w_m^(ja), so the table takes one charpoly
per class that no class of larger order powers to, at the member whose
word is shortest, and reads every other class along the class power map.

One spin closes a vector under the generators and returns its span, kept
in reduced echelon form as one array, so that each new row is reduced and
each old row cleared by a fixed number of whole-array field calls, and
its script: which generator took which visited row to each new one.  As
in Parker's MeatAxe, the script of the spin that certified a simple a
replays from any vector of any module.  module_iso evaluates the witness
element of a on b and replays the script from the eigenvector v_b it
finds there; the only isomorphism taking the witness vector v_a to v_b
takes a's standard basis to that replay, so it is one matrix product,
checked by whether it intertwines.  A module whose matrices are a's takes
the identity, as every product with the trivial module does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import gcd

import numpy as np

from .cyclotomic import Cyc, cyc_to_field, root_sum, sort_keys
from .errors import ClosureStalled, NotSemisimpleElement, RandomBudgetExceeded
from .ffield import field_create, poly_divmod, poly_roots
from .intmath import multiplicative_order, p_valuation
from .linalg import (
    Mat,
    mat_add,
    mat_charpoly,
    mat_eigenspace,
    mat_inv,
    mat_kron,
    mat_mul,
    mat_right_kernel,
    mat_rref,
    mat_scale,
    mat_sub,
    mat_vector_minpoly,
)
from .perm import ClassData, PermGroup

RANDOM_ELEMENT_BUDGET = 200
TENSOR_DIM_CAP = 4096


def p_regular_indices(classes: ClassData, p: int) -> list:
    """Return the indices of the classes of order prime to p."""
    return [k for k, o in enumerate(classes.orders) if o % p != 0]


class ReductionContext:
    """Splitting field data for reducing character values of a group mod p.

    The field is GF(p^m), where m is the order of p modulo the p'-part of
    the group exponent: the smallest field of characteristic p holding
    every root of unity a p-regular element can have.  It is a function of
    (group, p) alone, and field_create caches it, so two groups with the
    same p'-exponent, such as a group and its quotient by a central
    p-subgroup, share one field object; no caller chooses it.
    """

    __slots__ = ("p", "exponent", "eprime", "field", "w", "zeta")

    def __init__(self, group: PermGroup, p: int):
        self.p = p
        self.exponent = group.exponent()
        p_part = p ** p_valuation(self.exponent, p)
        self.eprime = e = self.exponent // p_part
        self.field = field = field_create(p, multiplicative_order(p, e))
        self.w = field.root_of_unity(e)
        # the image of a primitive exponent-th root: zeta ** p_part == w,
        # and its p-part maps to one
        self.zeta = field.pow(self.w, pow(p_part, -1, e) if e > 1 else 0)

    def reduce(self, value: Cyc) -> int:
        """Reduce an exact cyclotomic value into the splitting field."""
        return cyc_to_field(value, self.field, self.zeta, self.exponent)


# -- modules -------------------------------------------------------------------

class GModule:
    """Action of the group generators on row vectors over a finite field.

    witness is the Witness that certified the module simple, when the chop
    returned it, and None otherwise.  module_iso keeps the inverse of the
    witness's standard basis in _basis_inverse once it has computed it.
    """

    __slots__ = ("group", "field", "mats", "dim", "witness", "_basis_inverse")

    def __init__(self, group: PermGroup, field, mats, witness=None):
        mats = tuple(mats)
        if len(mats) != len(group.generators):
            raise ValueError("need exactly one matrix per group generator")
        dims = {M.nrows for M in mats} | {M.ncols for M in mats}
        if len(dims) > 1:
            raise ValueError("generator matrices must be square of equal size")
        self.group = group
        self.field = field
        self.mats = mats
        self.dim = dims.pop() if dims else 1
        self.witness = witness
        self._basis_inverse = None

    def image(self, g) -> Mat:
        """Return the matrix by which a group element acts."""
        return _word_product(self, self.group.word(g))


def _word_product(module: GModule, word) -> Mat:
    """Return the product of a module's generator matrices along a word of their indices."""
    if not word:
        return Mat.identity(module.field, module.dim)
    acc = module.mats[word[0]]
    for i in word[1:]:
        acc = mat_mul(acc, module.mats[i])
    return acc


def perm_module(group: PermGroup, field) -> GModule:
    """Return the natural permutation module over the given field."""
    mats = []
    for gen in group.generators:
        arr = np.zeros((group.degree, group.degree), dtype=np.int64)
        for i, j in enumerate(gen):
            arr[i, j] = 1
        mats.append(Mat(field, arr))
    return GModule(group, field, mats)


def tensor_module(a: GModule, b: GModule) -> GModule:
    """Return the tensor product module."""
    if a.group is not b.group or a.field != b.field:
        raise ValueError("tensor factors must share their group and field")
    return GModule(a.group, a.field, [mat_kron(x, y) for x, y in zip(a.mats, b.mats)])


def sub_module(module: GModule, B: Mat, pivots: tuple) -> GModule:
    """Return the action on an invariant row space, given in reduced echelon form."""
    cols = list(pivots)
    mats = [Mat._fresh(module.field, mat_mul(B, M).data[:, cols]) for M in module.mats]
    return GModule(module.group, module.field, mats)


def _alternating_square(field, n: int) -> tuple:
    """Return the alternating tensors of V x V, dim V = n, as mat_rref returns them.

    Row (a, b), a < b, is e_a x e_b - e_b x e_a.  Its pivot a*n + b is its
    first nonzero entry and is zero in every other row, so the rows in the
    order of (a, b) are in reduced echelon form.
    """
    a, b = np.triu_indices(n, 1)
    rows = np.zeros((len(a), n * n), dtype=np.int64)
    rows[np.arange(len(a)), a * n + b] = 1
    rows[np.arange(len(a)), b * n + a] = field.neg(1)
    return Mat(field, rows), tuple(int(k) for k in a * n + b)


def quotient_module(module: GModule, B: Mat, pivots: tuple) -> GModule:
    """Return the action on the quotient by an invariant row space in reduced echelon form."""
    F = module.field
    taken = set(pivots)
    others = [j for j in range(module.dim) if j not in taken]
    mats = []
    for M in module.mats:
        rows = M.data[others, :]
        reduced = F.vsub(rows, mat_mul(Mat(F, rows[:, list(pivots)]), B).data)
        mats.append(Mat._fresh(F, reduced[:, others]))
    return GModule(module.group, module.field, mats)


# -- spinning ------------------------------------------------------------------

class _Span:
    """Incremental row space in reduced echelon form.

    The rows are one array, and the column of each row's pivot is zero in
    every other row.  A new row is therefore reduced by subtracting its
    pivot entries times the stored rows, one vdot, and its own pivot
    column is cleared from the stored rows by one outer product.  Each
    row's first nonzero entry is its pivot: a new row is zero at every old
    pivot, and clearing its pivot column from an old row subtracts a
    multiple of the new row, so nothing left of the new pivot changes, and
    an old row that is nonzero there has its own pivot further left.  So
    the rows sorted by pivot are the (unique) reduced echelon form.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def add(self, row) -> bool:
        """Insert a row unless it lies in the span; return whether it was new."""
        F = self.field
        row = np.asarray(row, dtype=np.int64)
        res = F.vsub(row, F.vdot(row[None, self.pivots], self.rows)[0])
        support = np.flatnonzero(res)
        if support.size == 0:
            return False
        piv = int(support[0])
        res = F.vmul(np.int64(F.inv(int(res[piv]))), res)
        cleared = F.vsub(self.rows, F.vmul(self.rows[:, piv:piv + 1], res))
        self.rows = np.vstack([cleared, res])
        self.pivots.append(piv)
        return True

    def basis(self) -> Mat:
        """Return the reduced echelon rows spanning the space."""
        return Mat(self.field, self.rows)

    def echelon(self) -> tuple:
        """Return the rows sorted by pivot and the sorted pivots, as mat_rref would."""
        order = np.argsort(self.pivots)
        return Mat._fresh(self.field, self.rows[order]), tuple(sorted(self.pivots))


def _spin(field, mats_data: list, seed_row) -> tuple:
    """Return the span of a seed row closed under the given matrices, and its script.

    The spin visits the standard basis s_0 = seed_row, s_k = s_i M_j, in
    order of k.  A visited row is multiplied by every matrix in one
    product, against the matrices side by side, and its images go into the
    span in matrix order; an image that is new becomes the next s_k, and
    the script records its (i, j).  The span is invariant once every kept
    row has been visited, and its reduced echelon form is unique.  Replayed
    from a row v on an isomorphic module (_standard_basis), the script
    gives the images of the s_k under the isomorphism taking seed_row to v.
    """
    width = len(seed_row)
    span = _Span(field, width)
    span.add(seed_row)
    visited = [np.asarray(seed_row, dtype=np.int64)]
    script = []
    stacked = np.hstack(mats_data)
    i = 0
    while i < len(visited) and span.dim < width:
        images = field.vdot(visited[i][None, :], stacked)[0]
        for j in range(len(mats_data)):
            image = images[j * width:(j + 1) * width]
            if span.add(image):
                visited.append(image)
                script.append((i, j))
                if span.dim == width:
                    break
        i += 1
    return span, tuple(script)


def _standard_basis(module: GModule, script: tuple, vector) -> Mat:
    """Return the rows s_0 = vector, s_k = s_i M_j for the k-th (i, j) of a spin's script."""
    F = module.field
    n = module.dim
    rows = [np.asarray(vector, dtype=np.int64)]
    stacked = np.hstack([M.data for M in module.mats])
    source = None
    for i, j in script:
        if i != source:
            source, images = i, F.vdot(rows[i][None, :], stacked)[0]
        rows.append(images[j * n:(j + 1) * n])
    return Mat._fresh(F, np.array(rows))


# -- random algebra elements ----------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class Witness:
    """The algebra element, root and vector by which a module was found simple.

    theta is the sum of coeffs[i] times the product of the generators in
    words[i].  On the module, the kernel of theta - root is the line
    through vector, written as mat_right_kernel writes a line (its last
    nonzero entry is 1), and vector spins the whole module.  script is
    that spin's, so replaying it from vector gives a basis of the module.
    A witness carried to an isomorphic module keeps its script, which
    replays there from the image of vector.
    """

    words: tuple
    coeffs: tuple
    root: int
    vector: np.ndarray
    script: tuple


def _draw_element(rng: random.Random, module: GModule) -> tuple:
    """Draw the words and coefficients of a random element of a module's algebra."""
    num_gens = len(module.mats)
    words = []
    if num_gens:
        for _ in range(rng.randint(2, 4)):
            words.append(tuple(rng.randrange(num_gens) for _ in range(rng.randint(1, 3))))
    return tuple(words), tuple(rng.randrange(1, module.field.q) for _ in words)


def _element(module: GModule, words: tuple, coeffs: tuple) -> Mat:
    """Return the matrix of an algebra element, given by words and coefficients, on a module."""
    F = module.field
    total = Mat.zeros(F, module.dim, module.dim)
    for word, c in zip(words, coeffs):
        total = mat_add(total, mat_scale(_word_product(module, word), c))
    return total


# -- the chop ---------------------------------------------------------------------

def _chop_step(module: GModule, rng: random.Random):
    """Return a proper invariant row space, or the Witness of a simple module.

    The space is returned as mat_rref returns it: (basis, pivots) in reduced
    echelon form.  A 1-dimensional module is simple, and any element is a
    witness for it, with its one entry as the root.  Otherwise each draw is
    an element theta and a start row v; a zero v spends the draw.  The
    minimal polynomial f of v under theta, from one Krylov elimination,
    divides that of theta, so each root lam of f is an eigenvalue, and
    u = (f / (x - lam)) applied to v is a nonzero row of the kernel of
    theta - lam, scaled so that its last nonzero entry is 1, as
    mat_right_kernel writes a line.  A proper spin of u splits the module.
    A full one costs one elimination, the right kernel of theta - lam: if
    it is a line, its row (an eigenvector of the transpose) is spun under
    the transposed generators, and a full co-spin makes (theta, lam, u)
    the witness, while a proper one splits the module by its annihilator.
    A wider kernel moves on to the next root.  The witness keeps the
    script of the spin of u.
    """
    n = module.dim
    F = module.field
    if n == 1:
        words, coeffs = _draw_element(rng, module)
        root = int(_element(module, words, coeffs).data[0, 0])
        return Witness(words, coeffs, root, np.ones(1, dtype=np.int64), ())
    mats_data = [M.data for M in module.mats]
    for _ in range(RANDOM_ELEMENT_BUDGET):
        words, coeffs = _draw_element(rng, module)
        v = Mat(F, [[rng.randrange(F.q) for _ in range(n)]])
        if not v.data.any():
            continue
        theta = _element(module, words, coeffs)
        krylov, f = mat_vector_minpoly(theta, v)
        for lam in poly_roots(F, f):
            quot, _ = poly_divmod(F, f, [F.neg(lam), 1])
            u = F.vdot(np.array([quot], dtype=np.int64), krylov.data)[0]
            u = F.vmul(u, np.int64(F.inv(int(u[np.flatnonzero(u)[-1]]))))
            span, script = _spin(F, mats_data, u)
            if span.dim < n:
                return span.echelon()
            co_nucleus = mat_right_kernel(mat_sub(theta, mat_scale(Mat.identity(F, n), lam)))
            if co_nucleus.nrows == 1:
                span, _ = _spin(F, [d.T for d in mats_data], co_nucleus.data[0])
                if span.dim == n:
                    return Witness(words, coeffs, lam, u, script)
                return mat_rref(mat_right_kernel(span.basis()))
    raise RandomBudgetExceeded(
        f"chop of a {n}-dimensional module over GF({F.q}) undecided after "
        f"{RANDOM_ELEMENT_BUDGET} random algebra elements"
    )


def composition_factors(module: GModule, seed: int = 0, *, known=None, stop=None) -> list:
    """Return the composition factors of a module, with multiplicity.

    Every factor carries its Witness.  Each piece of the chop draws from
    its own rng, and a split seeds the rngs of its submodule and quotient
    from its own, so a piece's draws depend only on its place in the chop.

    known, if given, is a list of factors that this function returned.
    Each piece is first compared by module_iso with the known simples of
    its dimension; a match is a factor, with the witness carried over by
    the isomorphism, and takes no chop step.  A factor the chop certifies
    is new and is appended to known.  A match is simple, so it is a leaf
    of the chop, and the factors are those of the chop without known.

    stop, if given, is called on each factor as soon as it is found.  Once
    it returns True the chop ends and returns the factors so far, a prefix
    of the full list for the same seed.
    """
    stack = [(module, random.Random(seed))]
    out = []
    while stack:
        cur, rng = stack.pop()
        factor = None
        for simple in known or ():
            bridge = module_iso(simple, cur) if simple.dim == cur.dim else None
            if bridge is not None:
                w = simple.witness
                moved = cur.field.vdot(w.vector[None, :], bridge.data)[0]
                factor = GModule(cur.group, cur.field, cur.mats, replace(w, vector=moved))
                break
        if factor is None:
            step = _chop_step(cur, rng)
            if not isinstance(step, Witness):
                for piece in (sub_module(cur, *step), quotient_module(cur, *step)):
                    stack.append((piece, random.Random(rng.randrange(2 ** 32))))
                continue
            factor = GModule(cur.group, cur.field, cur.mats, step)
            if known is not None:
                known.append(factor)
        out.append(factor)
        if stop is not None and stop(factor):
            break
    return out


def module_iso(a: GModule, b: GModule):
    """Return an intertwining matrix between two simple modules, or None.

    a must carry its Witness, as every factor composition_factors returns
    does; any other first module raises ValueError, so chop a module
    first to compare it (a simple one is its own single factor).  If b's
    matrices are a's, the bridge is the identity.  Otherwise the witness
    gives an element theta, a root lam and the vector v_a spanning the
    kernel of theta(a) - lam.  If a and b are isomorphic, the kernel of
    theta(b) - lam is a line too, through some v_b, so otherwise they are
    not.  An isomorphism taking v_a to v_b takes the standard basis S_a
    that the witness's script replays from v_a to the one S_b it replays
    from v_b on b, so it can only be S_a^-1 S_b, and it is one if that
    matrix intertwines.  S_a^-1 is computed on a's first comparison and
    kept.  This takes one evaluation of theta, one eigenspace and one
    replay, and no charpoly, draw or spin.
    """
    witness = a.witness
    if witness is None:
        raise ValueError("module_iso needs a first module with a witness; chop it first")
    if a.dim != b.dim or a.field != b.field or len(a.mats) != len(b.mats):
        return None
    if all(np.array_equal(Ma.data, Mb.data) for Ma, Mb in zip(a.mats, b.mats)):
        # theta(b) = theta(a), so v_b = v_a: both are written as mat_right_kernel writes a line
        return Mat.identity(a.field, a.dim)
    ker_b = mat_eigenspace(_element(b, witness.words, witness.coeffs), witness.root)
    if ker_b.nrows != 1:
        return None
    if a._basis_inverse is None:
        a._basis_inverse = mat_inv(_standard_basis(a, witness.script, witness.vector))
    bridge = mat_mul(a._basis_inverse, _standard_basis(b, witness.script, ker_b.data[0]))
    for Ma, Mb in zip(a.mats, b.mats):
        if mat_mul(Ma, bridge) != mat_mul(bridge, Mb):
            return None
    return bridge


def simple_modules(group: PermGroup, context: ReductionContext, seed: int = 0) -> list:
    """Return all simple modules in characteristic p by tensor closure.

    The found list is the known list of every chop, so a factor already
    found costs one witness test and no chop step, and the chop that
    completes the list stops there.  A square V x V with dim V > 1 is
    chopped as its alternating tensors Alt^2 V and then, if simples are
    still missing, as the quotient Sym^2 V, each with its own seed; the
    factors of V x V are those of the two together.  The draws of a piece
    depend only on its place in its chop, so the modules found, matrix for
    matrix, are those of a closure that chops every product (or both
    halves of a square) in full and keeps each factor that module_iso
    matches with no earlier one.
    """
    target = len(p_regular_indices(group.conjugacy_classes(), context.p))
    rng = random.Random(seed)
    found = []

    def complete(factor: GModule) -> bool:
        return len(found) == target

    composition_factors(perm_module(group, context.field),
                        seed=rng.randrange(2 ** 32), known=found, stop=complete)
    processed = set()
    while len(found) < target:
        candidates = [
            (found[i].dim * found[j].dim, i, j)
            for i in range(len(found))
            for j in range(i, len(found))
            if (i, j) not in processed and found[i].dim * found[j].dim <= TENSOR_DIM_CAP
        ]
        if not candidates:
            raise ClosureStalled(
                f"found {len(found)} of {target} simple modules of a group of order "
                f"{group.order()} at p = {context.p} before the tensor closure ran "
                f"out of products of dimension at most {TENSOR_DIM_CAP}",
                partial=found,
            )
        _, i, j = min(candidates)
        processed.add((i, j))
        pieces = [tensor_module(found[i], found[j])]
        if i == j and found[i].dim > 1:
            alternating = _alternating_square(context.field, found[i].dim)
            pieces = [sub_module(pieces[0], *alternating), quotient_module(pieces[0], *alternating)]
        for piece in pieces:
            if len(found) < target:
                composition_factors(piece, seed=rng.randrange(2 ** 32), known=found, stop=complete)
    return found


# -- Brauer characters -------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class BrauerTable:
    """Brauer character values of the simple modules on p-regular classes."""

    group: PermGroup
    p: int
    context: ReductionContext
    classes: ClassData
    regular: tuple
    simples: tuple
    dims: tuple
    rows: tuple

    def __len__(self) -> int:
        return len(self.rows)


def brauer_value(module: GModule, g, order: int, context: ReductionContext) -> list:
    """Return the eigenvalue multiplicities of a module at a p-regular element.

    Entry j counts the root w_n^j, n the element's order, so the Brauer
    character value is root_sum(n, multiplicities).  The order is prime to
    p, so x^n - 1 is separable and the element acts diagonalizably: the
    multiplicity of each root in the characteristic polynomial is the
    dimension of its eigenspace.  One charpoly is therefore enough, and the
    multiplicities come from repeated division by x - w_n^j.  If they add
    up to less than the dimension, the module does not act as a group of
    that order would.
    """
    if order == 1:
        return [module.dim]
    if context.eprime % order:
        raise ValueError("element order is not prime to the characteristic")
    F = context.field
    charpoly = mat_charpoly(module.image(g))
    w_n = F.pow(context.w, context.eprime // order)
    counts = [0] * order
    for j in range(order):
        root_factor = [F.neg(F.pow(w_n, j)), 1]
        while True:
            quot, rem = poly_divmod(F, charpoly, root_factor)
            if rem:
                break
            charpoly = quot
            counts[j] += 1
    if len(charpoly) > 1:
        raise NotSemisimpleElement(
            f"action of an order {order} element is not diagonalizable "
            f"over the {order}-th roots of unity"
        )
    return counts


def _power_value(counts: list, a: int) -> Cyc:
    """Return the Brauer character value at g^a from the multiplicities of g.

    g has order m = len(counts) and eigenvalue w_m^j with multiplicity
    counts[j].  g^a has order n = m / gcd(a, m), and w_m^(ja) is
    w_n^(j a / gcd(a, m)), so the value is at conductor n, as brauer_value
    would give it at g^a itself.
    """
    m = len(counts)
    d = gcd(a, m)
    n = m // d
    moved = [0] * n
    for j, c in enumerate(counts):
        moved[j * (a // d) % n] += c
    return root_sum(n, moved)


def brauer_table(group: PermGroup, p: int, seed: int = 0) -> BrauerTable:
    """Compute the sorted Brauer character table at p over ReductionContext(group, p).

    The p-regular classes are walked in falling element order.  A class
    that no earlier class powers to takes one brauer_value, at its member
    with the shortest word; every class it powers to, itself included, that
    is not yet valued is read off those multiplicities by _power_value.
    """
    classes = group.conjugacy_classes()
    context = ReductionContext(group, p)
    regular = tuple(p_regular_indices(classes, p))
    simples = simple_modules(group, context, seed=seed)

    # each class is read off the first class, in falling element order, that powers to it
    source = {}
    for k in sorted(regular, key=lambda k: -classes.orders[k]):
        if k not in source:
            for a, t in enumerate(classes.power_map[k]):
                source.setdefault(t, (k, a))
    shortest = group.shortest_in_classes()

    entries = []
    for module in simples:
        counts = {k: brauer_value(module, shortest[k], classes.orders[k], context)
                  for k, (s, _) in source.items() if s == k}
        row = tuple(_power_value(counts[s], a) for s, a in map(source.get, regular))
        entries.append((module.dim, row, module))
    # key at the full group exponent so the order lines up with the ordinary table
    keys = sort_keys([t[1] for t in entries], context.exponent)
    ranked = sorted(range(len(entries)), key=lambda i: (entries[i][0], keys[i]))
    entries = [entries[i] for i in ranked]

    dims = tuple(t[0] for t in entries)
    rows = tuple(t[1] for t in entries)
    mods = tuple(t[2] for t in entries)
    return BrauerTable(group, p, context, classes, regular, mods, dims, rows)
