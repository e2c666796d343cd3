"""Modular representations of small permutation groups.

A module is stored as the list of matrices by which the group generators
act on row vectors over a fixed splitting field of characteristic p.
The chop routine finds composition factors with Norton-certified
irreducibility tests, a tensor closure collects all simple modules, and
Brauer character values are read off as exact cyclotomic sums of
eigenvalue multiplicities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .cyclotomic import Cyc, cyc_to_field
from .errors import ClosureStalled, NotSemisimpleElement, RandomBudgetExceeded
from .ffield import field_create, poly_deg
from .intmath import multiplicative_order, p_valuation
from .linalg import (
    Mat,
    char_poly_factors,
    mat_add,
    mat_charpoly,
    mat_inv,
    mat_kron,
    mat_left_kernel,
    mat_mul,
    mat_rank,
    mat_right_kernel,
    mat_rref,
    mat_scale,
    mat_sub,
    mat_transpose,
)
from .perm import ClassData, PermGroup

RANDOM_ELEMENT_BUDGET = 200
BURNSIDE_DIM_CAP = 64
TENSOR_DIM_CAP = 4096


def p_regular_indices(classes: ClassData, p: int) -> list:
    """Return the indices of the classes of order prime to p."""
    return [k for k, o in enumerate(classes.orders) if o % p != 0]


class ReductionContext:
    """Fixed splitting field data for reducing character values mod p."""

    __slots__ = ("p", "exponent", "p_part", "eprime", "m", "field", "w", "inv_p_part")

    def __init__(self, group: PermGroup, p: int, field=None):
        self.p = p
        self.exponent = group.exponent()
        self.p_part = p ** p_valuation(self.exponent, p)
        self.eprime = e = self.exponent // self.p_part
        self.m = multiplicative_order(p, e)
        if field is None:
            field = field_create(p, self.m)
        elif (field.q - 1) % e or field.p != p:
            raise ValueError("supplied field does not contain the needed roots of unity")
        self.field = field
        self.w = field.root_of_unity(e)
        self.inv_p_part = pow(self.p_part, -1, e) if e > 1 else 0

    def reduce(self, value: Cyc) -> int:
        """Reduce an exact cyclotomic value into the splitting field."""
        zeta = self.field.pow(self.w, self.inv_p_part)
        return cyc_to_field(value, self.field, zeta, self.exponent)


# -- modules -------------------------------------------------------------------

class GModule:
    """Action of the group generators on row vectors over a finite field."""

    __slots__ = ("group", "field", "mats", "dim")

    def __init__(self, group: PermGroup, field, mats):
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

    def image(self, g) -> Mat:
        """Return the matrix by which a group element acts."""
        acc = Mat.identity(self.field, self.dim)
        for i in self.group.word(g):
            acc = mat_mul(acc, self.mats[i])
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


def trivial_module(group: PermGroup, field) -> GModule:
    """Return the one dimensional trivial module."""
    one = Mat.identity(field, 1)
    return GModule(group, field, [one] * len(group.generators))


def tensor_module(a: GModule, b: GModule) -> GModule:
    """Return the tensor product module."""
    if a.group is not b.group or a.field != b.field:
        raise ValueError("tensor factors must share their group and field")
    return GModule(a.group, a.field, [mat_kron(x, y) for x, y in zip(a.mats, b.mats)])


def sub_module(module: GModule, basis: Mat) -> GModule:
    """Return the action on an invariant row space."""
    B, pivots = mat_rref(basis)
    cols = list(pivots)
    mats = [Mat(module.field, mat_mul(B, M).data[:, cols]) for M in module.mats]
    return GModule(module.group, module.field, mats)


def quotient_module(module: GModule, basis: Mat) -> GModule:
    """Return the action on the quotient by an invariant row space."""
    B, pivots = mat_rref(basis)
    n = module.dim
    F = module.field
    others = [j for j in range(n) if j not in set(pivots)]
    mats = []
    for M in module.mats:
        rows = M.data[others, :]
        reduced = F.vsub(rows, mat_mul(Mat(F, rows[:, list(pivots)]), B).data)
        mats.append(Mat(F, reduced[:, others]))
    return GModule(module.group, module.field, mats)


# -- spinning ------------------------------------------------------------------

class _Span:
    """Incremental echelonized row space."""

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residue(self, row):
        """Reduce a row against the stored pivots."""
        F = self.field
        row = np.array(row, dtype=np.int64)
        for piv, stored in zip(self.pivots, self.rows):
            c = int(row[piv])
            if c:
                row = F.vsub(row, F.vmul(np.int64(c), stored))
        return row

    def add(self, row):
        """Insert a row; return its normalized residue, or None if dependent."""
        F = self.field
        res = self.residue(row)
        support = np.nonzero(res)[0]
        if support.size == 0:
            return None
        piv = int(support[0])
        res = F.vmul(np.int64(F.inv(int(res[piv]))), res)
        self.rows.append(res)
        self.pivots.append(piv)
        return res

    def basis(self) -> Mat:
        """Return the canonical reduced basis of the span."""
        M = Mat(self.field, np.array(self.rows, dtype=np.int64))
        return mat_rref(M)[0]


def _vec_mat(F, v, M):
    """Multiply a row vector by a matrix over F."""
    return F.vsum(F.vmul(v[:, None], M), axis=0)


def _spin(field, mats_data: list, seeds: list) -> _Span:
    """Close seed rows under right multiplication by the given matrices."""
    width = len(seeds[0])
    span = _Span(field, width)
    queue = []
    for row in seeds:
        added = span.add(row)
        if added is not None:
            queue.append(added)
    idx = 0
    while idx < len(queue) and span.dim < width:
        v = queue[idx]
        idx += 1
        for M in mats_data:
            if span.dim == width:
                break
            added = span.add(_vec_mat(field, v, M))
            if added is not None:
                queue.append(added)
    return span


def _standard_basis(field, mats_data: list, seed_row):
    """Spin one vector to a full basis, recording the multiplication recipe."""
    width = len(seed_row)
    span = _Span(field, width)
    if span.add(seed_row) is None:
        raise ValueError("cannot spin the zero vector")
    rows = [np.array(seed_row, dtype=np.int64)]
    ops = []
    idx = 0
    while idx < len(rows) and span.dim < width:
        for gi, M in enumerate(mats_data):
            if span.dim == width:
                break
            w = _vec_mat(field, rows[idx], M)
            if span.add(w) is not None:
                rows.append(w)
                ops.append((idx, gi))
        idx += 1
    if span.dim < width:
        raise RuntimeError("standard basis spin stalled on a reducible module")
    return rows, ops


def _replay_basis(field, mats_data: list, seed_row, ops: list):
    """Rebuild a standard basis from its recorded recipe."""
    rows = [np.array(seed_row, dtype=np.int64)]
    for parent, gi in ops:
        rows.append(_vec_mat(field, rows[parent], mats_data[gi]))
    return rows


# -- random algebra elements ----------------------------------------------------

def _random_recipe(rng: random.Random, num_gens: int):
    """Draw a symbolic random element of the generated matrix algebra."""
    terms = []
    if num_gens:
        for _ in range(rng.randint(2, 4)):
            word = tuple(rng.randrange(num_gens) for _ in range(rng.randint(1, 3)))
            terms.append(word)
    return terms


def _instantiate(module: GModule, terms: list, coeffs: list, constant: int) -> Mat:
    """Evaluate a symbolic algebra element on a module."""
    F = module.field
    total = mat_scale(Mat.identity(F, module.dim), constant)
    for word, c in zip(terms, coeffs):
        prod = module.mats[word[0]]
        for gi in word[1:]:
            prod = mat_mul(prod, module.mats[gi])
        total = mat_add(total, mat_scale(prod, c))
    return total


def _poly_at(module_field, theta: Mat, coeffs) -> Mat:
    """Evaluate a polynomial at a matrix by the Horner scheme."""
    F = module_field
    n = theta.nrows
    out = mat_scale(Mat.identity(F, n), int(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        out = mat_add(mat_mul(out, theta), mat_scale(Mat.identity(F, n), int(c)))
    return out


# -- the chop ---------------------------------------------------------------------

def _algebra_is_full(module: GModule) -> bool:
    """Decide irreducibility by closing the generated algebra (splitting field)."""
    n = module.dim
    F = module.field
    span = _Span(F, n * n)
    eye = Mat.identity(F, n)
    span.add(eye.data.reshape(-1))
    queue = [eye]
    idx = 0
    while idx < len(queue) and span.dim < n * n:
        cur = queue[idx]
        idx += 1
        for M in module.mats:
            if span.dim == n * n:
                break
            nxt = mat_mul(cur, M)
            if span.add(nxt.data.reshape(-1)) is not None:
                queue.append(nxt)
    return span.dim == n * n


def _chop_step(module: GModule, rng: random.Random):
    """Return a proper invariant row space, or None when the module is simple."""
    n = module.dim
    if n == 1:
        return None
    F = module.field
    mats_data = [M.data for M in module.mats]
    for _ in range(RANDOM_ELEMENT_BUDGET):
        terms = _random_recipe(rng, len(module.mats))
        coeffs = [rng.randrange(1, F.q) for _ in terms]
        constant = rng.randrange(F.q)
        theta = _instantiate(module, terms, coeffs, constant)
        for coeffs_f, _mult in char_poly_factors(theta):
            nucleus = _poly_at(F, theta, coeffs_f)
            kernel = mat_left_kernel(nucleus)
            nullity = kernel.nrows
            if nullity == 0:
                continue
            for row in kernel.data[: min(nullity, 4)]:
                span = _spin(F, mats_data, [row])
                if span.dim < n:
                    return span.basis()
            if nullity == poly_deg(list(coeffs_f)):
                co_kernel = mat_left_kernel(mat_transpose(nucleus))
                span = _spin(F, [d.T.copy() for d in mats_data], [co_kernel.data[0]])
                if span.dim == n:
                    return None
                ortho = mat_right_kernel(span.basis())
                return mat_rref(ortho)[0]
    if n <= BURNSIDE_DIM_CAP and _algebra_is_full(module):
        return None
    raise RandomBudgetExceeded(
        f"chop undecided after {RANDOM_ELEMENT_BUDGET} random algebra elements"
    )


def composition_factors(module: GModule, seed: int = 0) -> list:
    """Return the composition factors of a module, with multiplicity."""
    rng = random.Random(seed)
    stack = [module]
    out = []
    while stack:
        cur = stack.pop()
        basis = _chop_step(cur, rng)
        if basis is None:
            out.append(cur)
            continue
        stack.append(sub_module(cur, basis))
        stack.append(quotient_module(cur, basis))
    return out


def module_iso(a: GModule, b: GModule, seed: int = 0):
    """Return an intertwining matrix between two simple modules, or None."""
    if a.dim != b.dim or a.field != b.field or len(a.mats) != len(b.mats):
        return None
    F = a.field
    rng = random.Random(seed)
    for _ in range(RANDOM_ELEMENT_BUDGET):
        terms = _random_recipe(rng, len(a.mats))
        coeffs = [rng.randrange(1, F.q) for _ in terms]
        constant = rng.randrange(F.q)
        theta_a = _instantiate(a, terms, coeffs, constant)
        theta_b = _instantiate(b, terms, coeffs, constant)
        if mat_charpoly(theta_a) != mat_charpoly(theta_b):
            return None
        for coeffs_f, mult in char_poly_factors(theta_a):
            if mult != 1 or len(coeffs_f) != 2:
                continue
            lam = F.neg(int(coeffs_f[0]))
            shift_a = mat_sub(theta_a, mat_scale(Mat.identity(F, a.dim), lam))
            shift_b = mat_sub(theta_b, mat_scale(Mat.identity(F, b.dim), lam))
            ker_a = mat_left_kernel(shift_a)
            ker_b = mat_left_kernel(shift_b)
            if ker_a.nrows != 1 or ker_b.nrows != 1:
                return None
            mats_a = [M.data for M in a.mats]
            mats_b = [M.data for M in b.mats]
            rows_a, ops = _standard_basis(F, mats_a, ker_a.data[0])
            rows_b = _replay_basis(F, mats_b, ker_b.data[0], ops)
            Sa = Mat(F, np.array(rows_a, dtype=np.int64))
            Sb = Mat(F, np.array(rows_b, dtype=np.int64))
            if mat_rank(Sb) < b.dim:
                return None
            bridge = mat_mul(mat_inv(Sa), Sb)
            for Ma, Mb in zip(a.mats, b.mats):
                if mat_mul(Ma, bridge) != mat_mul(bridge, Mb):
                    return None
            return bridge
    raise RandomBudgetExceeded(
        f"module comparison undecided after {RANDOM_ELEMENT_BUDGET} elements"
    )


def simple_modules(group: PermGroup, context: ReductionContext, seed: int = 0,
                   classes: ClassData | None = None) -> list:
    """Return all simple modules in characteristic p by tensor closure."""
    if classes is None:
        classes = group.conjugacy_classes()
    target = len(p_regular_indices(classes, context.p))
    rng = random.Random(seed)
    found = []

    def register(candidate: GModule) -> None:
        for known in found:
            if known.dim == candidate.dim and module_iso(
                known, candidate, seed=rng.randrange(2 ** 32)
            ) is not None:
                return
        found.append(candidate)

    for factor in composition_factors(perm_module(group, context.field),
                                      seed=rng.randrange(2 ** 32)):
        register(factor)

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
                f"found {len(found)} of {target} simple modules before the "
                "tensor closure ran out of products",
                partial=found,
            )
        _, i, j = min(candidates)
        processed.add((i, j))
        product = tensor_module(found[i], found[j])
        for factor in composition_factors(product, seed=rng.randrange(2 ** 32)):
            register(factor)
            if len(found) == target:
                break
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


def brauer_value(module: GModule, g, order: int, context: ReductionContext) -> Cyc:
    """Return the Brauer character value of a module at a p-regular element."""
    if order == 1:
        return Cyc.rational(module.dim)
    if context.eprime % order:
        raise ValueError("element order is not prime to the characteristic")
    F = context.field
    action = module.image(g)
    w_n = F.pow(context.w, context.eprime // order)
    value = Cyc.zero(order)
    total = 0
    for j in range(order):
        lam = F.pow(w_n, j)
        shifted = mat_sub(action, mat_scale(Mat.identity(F, module.dim), lam))
        mult = module.dim - mat_rank(shifted)
        if mult:
            value = value + Cyc.root(order, j) * mult
            total += mult
    if total != module.dim:
        raise NotSemisimpleElement(
            f"action of an order {order} element is not diagonalizable"
        )
    return value


def brauer_table(group: PermGroup, p: int, seed: int = 0,
                 classes: ClassData | None = None,
                 context: ReductionContext | None = None) -> BrauerTable:
    """Compute the sorted Brauer character table at the prime p."""
    if classes is None:
        classes = group.conjugacy_classes()
    if context is None:
        context = ReductionContext(group, p)
    regular = tuple(p_regular_indices(classes, p))
    simples = simple_modules(group, context, seed=seed, classes=classes)

    entries = []
    for module in simples:
        row = tuple(
            brauer_value(module, classes.reps[k], classes.orders[k], context)
            for k in regular
        )
        entries.append((module.dim, row, module))
    # key at the full group exponent so the order lines up with the ordinary table
    entries.sort(key=lambda t: (t[0], tuple(v.sort_key(context.exponent) for v in t[1])))

    dims = tuple(t[0] for t in entries)
    rows = tuple(t[1] for t in entries)
    mods = tuple(t[2] for t in entries)
    return BrauerTable(group, p, context, classes, regular, mods, dims, rows)
