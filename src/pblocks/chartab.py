"""Exact ordinary character tables of small permutation groups.

The table is computed by the classical modular method (Dixon 1967,
Schneider 1990).  The structure constants of the class algebra are
reduced modulo a prime r with r = 1 mod exp(G), r not dividing |G| and
r > 2 sqrt(|G|) + 1.  Over GF(r) the class-sum matrices then generate a
split semisimple commutative algebra, so refining the whole space by the
eigenspaces of one class matrix at a time, smallest classes first, always
ends in lines: the common eigenvectors, which are the central characters.
The split reads only the class matrices it needs before every space is a
line, and the group builds each one on its first read (S7 reads 1 of its
15, M11 6 of its 10).  Every step is deterministic.  A degree d is read
from its residue d^2 mod r as the only d <= sqrt(|G|) with that square.

The values are lifted back to exact cyclotomic numbers from the character
mod r, one int64 row per character.  For each element order m the m x m
matrix of z_m^(-js) mod r is built once, and one product of the rows' values
on the powers g^j of a class representative with it gives, for every row at
once, the multiplicity of each z_m^s as an eigenvalue of g (a discrete
Fourier sum).  The value is sum_s mult_s z_m^s at conductor m, one integer
product with the basis coordinates of the powers of z_m.  The rows are
sorted by degree, then by sort_keys: the values' coordinates at the
exponent.

The degree sum and orthogonality are verified exactly before a table is
returned.  Orthogonality is one Gram matrix from class_gram, the kernel
that also checks tables in the harness and restriction multiplicities in
the block pipeline: integer coordinate arrays, one tensordot over the
classes per coefficient index.  Both read their coordinates from
cyclotomic.coordinates, the one lift of values to a common conductor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from .cyclotomic import coordinates, euler_phi, power_rows, root_sum, sort_keys
from .errors import FusionInconsistent, LiftingPrimeNotFound
from .ffield import field_create, poly_roots
from .intmath import is_prime
from .linalg import (
    Mat,
    mat_charpoly,
    mat_eigenspace,
    mat_mul,
    mat_rref,
    mat_solve_left,
)
from .perm import ClassData, PermGroup

LIFTING_PRIME_CAP = 1_000_000


def lifting_prime(order: int, exponent: int) -> int:
    """Return the least usable lifting prime for a group of the given order."""
    bound = 2 * isqrt(order) + 1
    r = exponent + 1
    while r <= LIFTING_PRIME_CAP:
        if r > bound and is_prime(r) and order % r:
            return r
        r += exponent
    raise LiftingPrimeNotFound(
        f"no prime congruent to 1 mod {exponent} above {bound} within the cap"
    )


def class_gram(rows, others, classes: ClassData) -> tuple:
    """Return the matrix of inner products <rows[i], others[j]> of class functions.

    <chi, psi> = sum_k |C_k| chi(g_k) conj(psi(g_k)) / |G| over the classes
    C_k with representatives g_k.  Each entry is a Fraction, or None where
    it is irrational, which cannot happen when both are characters.

    Every value is a row of phi(L) integer coordinates over one common
    denominator, from cyclotomic.coordinates at L, the lcm of the
    irrational values' conductors only.  The conjugate is one integer
    matrix (z^s to z^-s), the coordinate product is a loop over the phi(L)
    coefficient index with one tensordot over the classes per step, so no
    intermediate is larger than rows x others x (2 phi(L) - 1), and the
    powers z^0 .. z^(2 phi(L) - 2) reduce by one product with their basis
    coordinates.  The arrays are int64 when max |coordinate|^2 |G| phi(L)
    times the column norms of the two integer matrices is below 2^62, which
    bounds every partial sum, and dtype=object with the same expressions
    otherwise.
    """
    rows, others = list(rows), list(others)
    values = [v for row in rows + others for v in row]
    conductor = lcm(*(v.conductor for v in values if any(v.coords[1:])))
    phi = euler_phi(conductor)
    coords, den = coordinates(values, conductor)
    conj = power_rows(conductor, -np.arange(phi))
    reduction = power_rows(conductor, np.arange(2 * phi - 1))
    order = sum(classes.sizes)
    top = max(map(abs, coords.flat), default=0)
    bound = top * top * order * phi * int(np.abs(conj).sum(axis=0).max()) * int(
        np.abs(reduction).sum(axis=0).max()
    )
    kind = np.int64 if bound < 2 ** 62 else object
    coords = coords.astype(kind).reshape(len(rows) + len(others), len(classes.sizes), phi)
    left = coords[: len(rows)] * np.array(classes.sizes, dtype=kind)[:, None]
    right = coords[len(rows):] @ conj
    conv = np.zeros((len(rows), len(others), 2 * phi - 1), dtype=kind)
    for i in range(phi):
        conv[:, :, i : i + phi] += np.tensordot(left[:, :, i], right, axes=(1, 1))
    total = conv @ reduction
    irrational_entries = (total[:, :, 1:] != 0).any(axis=2).tolist()
    scale = den * den * order
    return tuple(
        tuple(None if irr else Fraction(int(x), scale) for x, irr in zip(line, flags))
        for line, flags in zip(total[:, :, 0].tolist(), irrational_entries)
    )


def _split_eigenspaces(F, group: PermGroup, order: list) -> list:
    """Split GF(r)^n into the common eigenlines of the group's class matrices.

    The matrices are taken one at a time in the given order, and the
    refinement stops once every space is a line, so the matrices after
    that point are never built.
    """
    n = len(group.conjugacy_classes())
    spaces = [Mat.identity(F, n)]
    for i in order:
        if all(space.nrows == 1 for space in spaces):
            break
        N = Mat(F, group.class_matrix(i).T % F.q)
        refined = []
        for space in spaces:
            if space.nrows == 1:
                refined.append(space)
                continue
            action = mat_solve_left(space, mat_mul(space, N))
            pieces = []
            total = 0
            for lam in poly_roots(F, mat_charpoly(action)):
                coords = mat_eigenspace(action, lam)
                basis, _ = mat_rref(mat_mul(coords, space))
                pieces.append(basis)
                total += basis.nrows
            if total != space.nrows:
                raise RuntimeError("eigenspaces do not fill an invariant subspace")
            refined.extend(pieces)
        spaces = refined
    if any(space.nrows > 1 for space in spaces):
        raise RuntimeError("class matrices leave a common eigenspace above dimension 1")
    return spaces


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CharacterTable:
    """Ordinary character table with exact cyclotomic values."""

    group: PermGroup
    classes: ClassData
    exponent: int
    prime: int
    degrees: tuple
    rows: tuple

    def __len__(self) -> int:
        return len(self.rows)


def character_table(group: PermGroup, seed: int = 0) -> CharacterTable:
    """Compute the exact ordinary character table of a small group.

    The computation is deterministic; ``seed`` is accepted for symmetry
    with the modular entry points and has no effect.  Each group object
    gets one table: it is computed on the first call and kept on the
    group, the way the group keeps its classes, so later calls return the
    same object and a group built again from the same generators computes
    its own.
    """
    if group._character_table is not None:
        return group._character_table
    classes = group.conjugacy_classes()
    order = group.order()
    e = group.exponent()
    n = len(classes)
    r = lifting_prime(order, e)
    # every sum of e products of two residues fits in int64: r <= LIFTING_PRIME_CAP
    # and e <= |G| <= ENUMERATION_CAP keep e r^2 below 2^62
    if e * r * r >= 2 ** 62:
        raise RuntimeError("lifting prime too large for int64 sums")
    F = field_create(r)

    sizes = classes.sizes
    by_size = sorted((k for k in range(n) if classes.orders[k] != 1), key=sizes.__getitem__)
    spaces = _split_eigenspaces(F, group, by_size)

    # the argsort of a permutation row is its inverse
    kstar = classes.classes_of(np.argsort(classes.reps, axis=1))
    inv_sizes = np.array([F.inv(s % r) for s in sizes], dtype=np.int64)

    # one central character per row, scaled to 1 on the identity class
    vecs = np.array([space.data[0].tolist() for space in spaces], dtype=np.int64)
    if not vecs[:, 0].all():
        raise RuntimeError("central character vanishes on the identity class")
    scale = np.array([F.inv(int(x)) for x in vecs[:, 0]], dtype=np.int64)
    omega = vecs * scale[:, None] % r
    # sum_k omega_k omega_k* / |C_k| = |G| / d^2
    denominators = (omega * omega[:, kstar] % r * inv_sizes % r).sum(axis=1) % r
    if not denominators.all():
        raise RuntimeError("degree denominator vanished modulo the lifting prime")
    # one key per square: d1^2 = d2^2 mod r puts r in (d1 - d2)(d1 + d2), both below r
    root_of = {d * d % r: d for d in range(1, isqrt(order) + 1)}
    degrees = [root_of.get(F.mul(order % r, F.inv(int(x)))) for x in denominators]
    if None in degrees:
        raise RuntimeError("could not identify the character degree")
    deg = np.array(degrees, dtype=np.int64)
    chi_mod = deg[:, None] * omega % r * inv_sizes % r

    # dft[m][j, s] = z_m^(-js): the multiplicity of z_m^s as an eigenvalue of
    # g_k in a row is (1/m) sum_j chi(g_k^j) z_m^(-js)
    zroot = F.root_of_unity(e)
    dft = {}
    for m in set(classes.orders):
        zinv = F.inv(F.pow(zroot, e // m))
        steps = np.arange(m)
        powers = np.array([F.pow(zinv, t) for t in range(m)], dtype=np.int64)
        dft[m] = powers[np.outer(steps, steps) % m]
    columns = []
    for m, power_classes in zip(classes.orders, classes.power_map):
        mults = chi_mod[:, power_classes] @ dft[m] % r * F.inv(m % r) % r
        if (mults > deg[:, None]).any():
            raise RuntimeError("eigenvalue multiplicity exceeds the degree")
        if (mults.sum(axis=1) != deg).any():
            raise RuntimeError("eigenvalue multiplicities do not sum to the degree")
        columns.append([root_sum(m, row) for row in mults])
    rows = [tuple(column[i] for column in columns) for i in range(n)]
    keys = sort_keys(rows, e)
    ranked = sorted(range(n), key=lambda i: (degrees[i], keys[i]))
    degrees = tuple(degrees[i] for i in ranked)
    rows = tuple(rows[i] for i in ranked)

    if sum(d * d for d in degrees) != order:
        raise RuntimeError("degree squares do not sum to the group order")
    gram = class_gram(rows, rows, classes)
    if any(x != (1 if i == j else 0) for i, line in enumerate(gram) for j, x in enumerate(line)):
        raise RuntimeError("character rows violate orthogonality")

    group._character_table = CharacterTable(group, classes, e, r, degrees, rows)
    return group._character_table


def class_fusion(ambient: ClassData, sub: ClassData) -> tuple:
    """Map each class of a subgroup to the ambient class containing it."""
    images = [set() for _ in range(len(sub))]
    for c, a in zip(sub.labels.tolist(), ambient.classes_of(sub.table.rows)):
        images[c].add(a)
    for c, targets in enumerate(images):
        if len(targets) != 1:
            raise FusionInconsistent(
                f"subgroup class {c} meets {len(targets)} ambient classes"
            )
    return tuple(targets.pop() for targets in images)


def restrict_row(row, fusion: tuple) -> tuple:
    """Restrict a character row along a class fusion map."""
    return tuple(row[c] for c in fusion)
