"""Exact ordinary character tables of small permutation groups.

The table is computed by the classical modular method (Dixon 1967,
Schneider 1990).  The structure constants of the class algebra are
reduced modulo a prime r with r = 1 mod exp(G), r not dividing |G| and
r > 2 sqrt(|G|) + 1.  Over GF(r) the class-sum matrices then generate a
split semisimple commutative algebra, so refining the whole space by the
eigenspaces of one class matrix at a time, smallest classes first, always
ends in lines: the common eigenvectors, which are the central characters.
Every step is deterministic.  A degree d is read from its residue d^2 mod r
as the only d <= sqrt(|G|) with that square, and the character values
are lifted back to exact cyclotomic numbers through discrete Fourier sums
of root-of-unity eigenvalue multiplicities.  Orthogonality and the degree
sum are verified exactly before a table is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .cyclotomic import Cyc
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
from .perm import ClassData, PermGroup, perm_inv, perm_mul

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


def class_inner_product(chi, psi, classes: ClassData) -> Fraction | None:
    """Return the inner product <chi, psi> of two class functions given by class values.

    The result is a Fraction, or None when it is irrational, which cannot
    happen when both functions are characters.
    """
    acc = Cyc.zero(1)
    for k, size in enumerate(classes.sizes):
        acc = acc + chi[k] * psi[k].conj() * size
    total = acc.as_rational()
    return None if total is None else total / sum(classes.sizes)


def _split_eigenspaces(F, class_mats: list, order: list) -> list:
    """Split GF(r)^n into the common eigenlines of the class matrices.

    The matrices are taken one at a time in the given order, and the
    refinement stops once every space is a line.
    """
    n = len(class_mats)
    spaces = [Mat.identity(F, n)]
    for i in order:
        if all(space.nrows == 1 for space in spaces):
            break
        N = Mat(F, class_mats[i].T % F.q)
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


def character_table(group: PermGroup, seed: int = 0, prime: int | None = None) -> CharacterTable:
    """Compute the exact ordinary character table of a small group.

    The computation is deterministic; ``seed`` is accepted for symmetry
    with the modular entry points and has no effect.
    """
    classes = group.conjugacy_classes()
    order = group.order()
    e = group.exponent()
    n = len(classes)
    if prime is None:
        r = lifting_prime(order, e)
    else:
        r = prime
        if (r - 1) % e or r <= 2 * isqrt(order) + 1 or not is_prime(r) or order % r == 0:
            raise ValueError("supplied lifting prime violates the required conditions")
    F = field_create(r)

    sizes = classes.sizes
    by_size = sorted((k for k in range(n) if classes.orders[k] != 1), key=sizes.__getitem__)
    spaces = _split_eigenspaces(F, group.class_matrices(), by_size)

    inv_sizes = [F.inv(s % r) for s in sizes]
    kstar = [classes.class_of[perm_inv(rep)] for rep in classes.reps]
    root_cap = isqrt(order)
    zroot = F.root_of_unity(e)

    identity = tuple(range(group.degree))
    power_classes = []
    for k, rep in enumerate(classes.reps):
        cur = identity
        row = []
        for _ in range(classes.orders[k]):
            row.append(classes.class_of[cur])
            cur = perm_mul(cur, rep)
        power_classes.append(row)

    table = []
    for space in spaces:
        vec = space.data[0]
        lead = int(vec[0])
        if lead == 0:
            raise RuntimeError("central character vanishes on the identity class")
        scale = F.inv(lead)
        omega = [F.mul(int(v), scale) for v in vec]

        s = 0
        for k in range(n):
            s = F.add(s, F.mul(F.mul(omega[k], omega[kstar[k]]), inv_sizes[k]))
        if s == 0:
            raise RuntimeError("degree denominator vanished modulo the lifting prime")
        d2 = F.mul(order % r, F.inv(s))
        # unique: d1^2 = d2^2 mod r puts r in (d1 - d2)(d1 + d2), both below r
        degree = next((d for d in range(1, root_cap + 1) if d * d % r == d2), None)
        if degree is None:
            raise RuntimeError("could not identify the character degree")

        chi_mod = [F.mul(F.mul(degree % r, omega[k]), inv_sizes[k]) for k in range(n)]

        values = []
        for k in range(n):
            m = classes.orders[k]
            if m == 1:
                values.append(Cyc.rational(degree))
                continue
            zn_inv = F.inv(F.pow(zroot, e // m))
            zpow = [F.pow(zn_inv, t) for t in range(m)]
            inv_m = F.inv(m % r)
            val = Cyc.zero(m)
            total = 0
            for sdx in range(m):
                acc = 0
                for j in range(m):
                    acc = F.add(acc, F.mul(chi_mod[power_classes[k][j]], zpow[(j * sdx) % m]))
                mult = F.mul(inv_m, acc)
                if mult > degree:
                    raise RuntimeError("eigenvalue multiplicity exceeds the degree")
                total += mult
                if mult:
                    val = val + Cyc.root(m, sdx) * mult
            if total != degree:
                raise RuntimeError("eigenvalue multiplicities do not sum to the degree")
            values.append(val)
        table.append((degree, tuple(values)))

    table.sort(key=lambda row: (row[0], tuple(v.sort_key(e) for v in row[1])))
    degrees = tuple(row[0] for row in table)
    rows = tuple(row[1] for row in table)

    if sum(d * d for d in degrees) != order:
        raise RuntimeError("degree squares do not sum to the group order")
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            if class_inner_product(rows[i], rows[j], classes) != (1 if i == j else 0):
                raise RuntimeError("character rows violate orthogonality")

    return CharacterTable(group, classes, e, r, degrees, rows)


def class_fusion(ambient: ClassData, sub: ClassData) -> tuple:
    """Map each class of a subgroup to the ambient class containing it."""
    images = [set() for _ in range(len(sub))]
    for g, c in sub.class_of.items():
        images[c].add(ambient.class_of[g])
    for c, targets in enumerate(images):
        if len(targets) != 1:
            raise FusionInconsistent(
                f"subgroup class {c} meets {len(targets)} ambient classes"
            )
    return tuple(targets.pop() for targets in images)


def restrict_row(row, fusion: tuple) -> tuple:
    """Restrict a character row along a class fusion map."""
    return tuple(row[c] for c in fusion)
