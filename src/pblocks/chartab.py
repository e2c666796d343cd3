"""Exact ordinary character tables of small permutation groups.

The table is computed by the classical modular method: the structure
constants of the class algebra are reduced modulo a well-chosen prime
r, the simultaneous eigenvectors of the class-sum matrices over GF(r)
yield the central characters, and the character values are lifted back
to exact cyclotomic numbers through discrete Fourier sums of root-of-
unity eigenvalue multiplicities.  Orthogonality and the degree sum are
verified exactly before a table is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .cyclotomic import Cyc
from .errors import EigensplitBudgetExceeded, FusionInconsistent, LiftingPrimeNotFound
from .ffield import field_create, poly_roots
from .intmath import is_prime
from .linalg import (
    Mat,
    mat_charpoly,
    mat_left_kernel,
    mat_mul,
    mat_rref,
    mat_scale,
    mat_solve_left,
    mat_sub,
)
from .perm import ClassData, PermGroup, perm_inv, perm_mul

EIGENSPLIT_BUDGET = 200
LIFTING_PRIME_CAP = 1_000_000


def lifting_prime(order: int, exponent: int, minimum: int = 0) -> int:
    """Return the least usable lifting prime for a group of the given order."""
    bound = max(2 * isqrt(order) + 1, minimum)
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


def _split_eigenspaces(F, raw_mats: list, n: int, seed: int) -> list:
    """Split the class algebra into its one dimensional common eigenspaces."""
    rng = random.Random(seed)
    spaces = [Mat.identity(F, n)]
    draws = 0
    while any(space.nrows > 1 for space in spaces):
        if draws >= EIGENSPLIT_BUDGET:
            raise EigensplitBudgetExceeded(
                f"class algebra not split after {EIGENSPLIT_BUDGET} random elements"
            )
        draws += 1
        combo = np.zeros((n, n), dtype=np.int64)
        for M in raw_mats:
            combo = (combo + rng.randrange(F.q) * (M % F.q)) % F.q
        N = Mat(F, combo.T)
        refined = []
        for space in spaces:
            if space.nrows == 1:
                refined.append(space)
                continue
            action = mat_solve_left(space, mat_mul(space, N))
            pieces = []
            total = 0
            for lam in poly_roots(F, mat_charpoly(action)):
                shifted = mat_sub(action, mat_scale(Mat.identity(F, space.nrows), lam))
                coords = mat_left_kernel(shifted)
                if coords.nrows == 0:
                    continue
                basis, _ = mat_rref(mat_mul(coords, space))
                pieces.append(basis)
                total += basis.nrows
            if total != space.nrows:
                raise RuntimeError("eigenspaces do not fill an invariant subspace")
            refined.extend(pieces)
        spaces = refined
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
    """Compute the exact ordinary character table of a small group."""
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

    spaces = _split_eigenspaces(F, group.class_matrices(), n, seed)

    sizes = classes.sizes
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
        droot = F.sqrt(d2)
        if droot is None:
            raise RuntimeError("degree square has no root modulo the lifting prime")
        degree = droot if droot <= root_cap else r - droot
        if not 1 <= degree <= root_cap or F.mul(degree % r, degree % r) != d2:
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
