"""Permutation groups with deterministic structure algorithms.

Permutations on 0-based points are tuples of images, and products apply
left to right: perm_mul(a, b) maps i to b[a[i]].  One-based cycle
notation is accepted only at the boundary helper perm_from_cycles.

Group order and membership come from a deterministic Schreier-Sims
stabilizer chain, which also lists the group: every element is exactly
one product of transversal elements (Sims 1970; Seress, Permutation Group
Algorithms, 2003).  The list is capped, so large groups still answer
order queries while refusing elementwise work (classes, centralizers,
coset actions, words in the generators).

The elements are kept, in lexicographic order, as one (|G|, degree)
integer array.  Classes, class matrices, centralizers and cosets compose
whole columns of it by fancy indexing, map the products back to element
indices by sifting their images of the base points through the chain, and
keep classes and cosets as label arrays in table order.  Each class matrix
is built from the members of its own class, on its first read.  The
p-subgroup sweep yields each Frattini subgroup as the intersection of the
subgroups it reached it from.

orbit is the one breadth-first search: the chain's transversals,
generated closures, the block orbits in pblocks.blocks, and, over element
indices, the conjugacy classes and the words all read its Schreier tree.
Subgroups built from a closed element set (subgroup, sylow, the p-subgroup
sweep) instead grow their closure one generator at a time by Dimino's
coset step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapExceeded,
    EnumerationRequired,
    NotAPermutation,
    NotNormal,
    ShapeMismatch,
)
from .intmath import int_log, is_int, is_p_power, p_valuation

ENUMERATION_CAP = 20000
SECTIONAL_RANK_CAP = 512
SUBGROUP_SWEEP_CAP = 100000


# -- permutation primitives -----------------------------------------------------

def perm_mul(a: tuple, b: tuple) -> tuple:
    """Compose two permutations, applying a first and then b."""
    return tuple(b[x] for x in a)


def perm_inv(a: tuple) -> tuple:
    """Invert a permutation."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_pow(a: tuple, n: int) -> tuple:
    """Raise a permutation to an integer power."""
    if n < 0:
        return perm_pow(perm_inv(a), -n)
    result = tuple(range(len(a)))
    base = a
    while n:
        if n & 1:
            result = perm_mul(result, base)
        base = perm_mul(base, base)
        n >>= 1
    return result


def perm_conj(a: tuple, g: tuple) -> tuple:
    """Conjugate a by g, returning g^-1 a g (it maps g[i] to g[a[i]])."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[g[i]] = g[x]
    return tuple(out)


def perm_order(a: tuple) -> int:
    """Return the order of a permutation from its cycle lengths."""
    seen = [False] * len(a)
    order = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        order = math.lcm(order, length)
    return order


def perm_from_cycles(degree: int, cycles) -> tuple:
    """Build a permutation from 1-based disjoint cycles."""
    images = list(range(degree))
    touched = set()
    for cyc in cycles:
        pts = list(cyc)
        for c in pts:
            if not is_int(c) or not 1 <= c <= degree:
                raise NotAPermutation(f"point {c!r} is not an integer in 1..{degree}")
            if c in touched:
                raise NotAPermutation(f"point {c} repeated across cycles")
            touched.add(c)
        for i, c in enumerate(pts):
            images[c - 1] = int(pts[(i + 1) % len(pts)]) - 1
    return tuple(images)


def orbit(start, gens, act) -> dict:
    """Return the breadth-first orbit of start under gens as a Schreier tree.

    The dict maps each point y, in the order it was reached, to
    (x, i) with y == act(x, gens[i]); start maps to (None, -1).
    """
    tree = {start: (None, -1)}
    queue = [start]
    indexed = tuple(enumerate(gens))
    for x in queue:
        for i, s in indexed:
            y = act(x, s)
            if y not in tree:
                tree[y] = (x, i)
                queue.append(y)
    return tree


def _validate_perm(g, degree: int) -> tuple:
    """Check that g is a permutation tuple of the given degree."""
    t = tuple(g)
    if not set(map(type, t)) <= {int}:
        if not all(map(is_int, t)):
            raise NotAPermutation(f"{g!r} holds an image that is not an integer")
        t = tuple(map(int, t))
    if len(t) != degree or sorted(t) != list(range(degree)):
        raise NotAPermutation(f"{g!r} is not a permutation of degree {degree}")
    return t


# -- stabilizer chain ---------------------------------------------------------------

def _schreier_sims(degree: int, generators) -> dict:
    """Build a deterministic stabilizer chain from the generators."""
    identity = tuple(range(degree))
    strong = [g for g in generators if g != identity]
    base = []

    def first_moved(g):
        for x in range(degree):
            if g[x] != x:
                return x
        return -1

    for g in strong:
        if all(g[b] == b for b in base):
            base.append(first_moved(g))
    trans = [dict() for _ in base]

    def level_gens(i):
        return [g for g in strong if all(g[base[j]] == base[j] for j in range(i))]

    def rebuild(i):
        gs = level_gens(i)
        t = {}
        for y, (x, gi) in orbit(base[i], gs, lambda x, s: s[x]).items():
            t[y] = identity if x is None else perm_mul(t[x], gs[gi])
        trans[i] = t

    i = len(base) - 1
    while i >= 0:
        for l in range(len(base) - 1, i - 1, -1):
            rebuild(l)
        gs = level_gens(i)
        t = trans[i]
        ok = True
        for x in sorted(t):
            ux = t[x]
            for s in gs:
                h = perm_mul(perm_mul(ux, s), perm_inv(t[s[x]]))
                if h == identity:
                    continue
                res, j = _sift(base, trans, h, i + 1)
                if res != identity:
                    strong.append(res)
                    if j == len(base):
                        base.append(first_moved(res))
                        trans.append(dict())
                    i = j
                    ok = False
                    break
            if not ok:
                break
        if ok:
            i -= 1
    for l in range(len(base)):
        rebuild(l)
    order = 1
    for t in trans:
        order *= len(t)
    return {
        "identity": identity,
        "base": base,
        "trans": trans,
        "order": order,
    }


def _sift(base: list, trans: list, g: tuple, start: int) -> tuple:
    """Strip g through the chain levels from start on.

    Returns the residue and the level where it left the transversals, or
    len(base) if it passed them all.
    """
    for i in range(start, len(base)):
        x = g[base[i]]
        t = trans[i]
        if x not in t:
            return g, i
        g = perm_mul(g, perm_inv(t[x]))
    return g, len(base)


def _chain_contains(chain: dict, g: tuple) -> bool:
    """Test membership against a stabilizer chain."""
    return _sift(chain["base"], chain["trans"], g, 0)[0] == chain["identity"]


def _coset_closure(group: set, gens: list, identity: tuple) -> set:
    """Return the elements of <H, gens[-1]>, where H = group is closed and holds gens[:-1].

    Dimino's coset step (Butler, LNCS 559, 1991): the larger group is a
    union of right cosets H t, and a coset representative times any
    generator lies in a known coset or represents a new one.
    """
    base = list(group)
    out = set(group)
    reps = [identity]
    for rep in reps:
        for s in gens:
            t = perm_mul(rep, s)
            if t not in out:
                reps.append(t)
                out.update(perm_mul(h, t) for h in base)
    return out


def verify_normal(group: PermGroup, sub: PermGroup) -> None:
    """Check that a subgroup is normal in an ambient group of the same degree."""
    if sub.degree != group.degree:
        raise ShapeMismatch(
            f"subgroup degree {sub.degree} does not match ambient degree {group.degree}"
        )
    for x in sub.generators:
        if not group.contains(x):
            raise NotNormal("subgroup generator lies outside the ambient group")
        for g in group.generators:
            if not sub.contains(perm_conj(x, g)):
                raise NotNormal("subgroup is not closed under ambient conjugation")


# -- element table -----------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class _ElementTable:
    """The group elements as one (|G|, degree) array in lexicographic order.

    The rows are the stabilizer chain's transversal products, checked
    without trusting the chain: distinct rows closed under the generators
    are exactly the group, so the table length is its order.

    An element is found from its images of the base points alone.  Level i
    holds position, where position[x] is the place of x in the orbit of
    base point i (0 off the orbit), and inverse, the inverses of that
    level's transversal elements as rows.  Sifting reads the orbit position
    of the first remaining image and strips its transversal element from
    the images after it; the positions are the digits of the element's
    place in the chain's listing, and rank maps that place to the row.
    """

    rows: np.ndarray
    base: list
    levels: tuple
    rank: np.ndarray

    def index(self, rows: np.ndarray) -> np.ndarray:
        """Map an array of permutation rows to their element indices."""
        images = rows[:, self.base]
        place = np.zeros(len(rows), dtype=np.intp)
        for position, inverse in self.levels:
            digit = position[images[:, 0]]
            place = place * len(inverse) + digit
            images = inverse[digit[:, None], images[:, 1:]]
        idx = self.rank[place]
        # a non-member sifts to some element's index, which the full rows then refute
        if not (self.rows[idx] == rows).all():
            raise RuntimeError("a composed permutation is not in the element table")
        return idx

    def lookup(self, rows) -> np.ndarray:
        """Map rows given from outside to element indices.

        ShapeMismatch for rows of another degree; ValueError for a non-member.
        """
        rows = np.asarray(rows, dtype=np.intp)
        degree = self.rows.shape[1]
        if rows.size == 0:
            return np.zeros(0, dtype=np.intp)
        if rows.ndim != 2 or rows.shape[1] != degree:
            raise ShapeMismatch(
                f"rows of shape {rows.shape} do not match the group degree {degree}"
            )
        try:
            if ((rows >= 0) & (rows < degree)).all():
                return self.index(rows)
        except RuntimeError:
            pass
        raise ValueError("element does not belong to the group")


def _list_group(chain: dict, generators) -> tuple:
    """List a group from its stabilizer chain as a checked element table.

    Also returns the closure check's moves: row j times generator i is row moves[i][j].
    """
    degree = len(chain["identity"])
    rows = np.array([chain["identity"]], dtype=np.intp)
    levels = []
    for t in reversed(chain["trans"]):
        transversal = np.array(list(t.values()), dtype=np.intp)
        # row [a, b] is rows[b] times transversal element a
        rows = transversal[:, rows].reshape(-1, degree)
        position = np.zeros(degree, dtype=np.intp)
        position[list(t)] = np.arange(len(t))
        # the argsort of a permutation row is its inverse
        levels.append((position, np.argsort(transversal, axis=1)))
    order = np.lexsort(rows.T[::-1])
    rank = np.empty(len(rows), dtype=np.intp)
    rank[order] = np.arange(len(rows))
    table = _ElementTable(rows[order], chain["base"], tuple(reversed(levels)), rank)
    if (table.rows[1:] == table.rows[:-1]).all(axis=1).any():
        raise RuntimeError("the stabilizer chain lists an element twice")
    moves = [table.index(np.array(g)[table.rows]) for g in generators]
    return table, moves


# -- group class -------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ClassData:
    """Conjugacy classes: representatives, sizes, orders, and each element's class.

    labels[i] is the class of element i of the table: the orbits of element
    indices under conjugation, as the words come from right multiplication.
    The class power map is computed on its first read and kept.
    """

    reps: list
    sizes: list
    orders: list
    labels: np.ndarray
    table: _ElementTable
    _power_map: list = field(default=None, init=False)

    def __len__(self):
        return len(self.reps)

    @property
    def power_map(self) -> list:
        """power_map[k][j] is the class of rep_k^j, for 0 <= j < orders[k]."""
        if self._power_map is None:
            maps = []
            for rep, m in zip(self.reps, self.orders):
                rep = np.array(rep)
                powers = [np.arange(len(rep))]
                for _ in range(m - 1):
                    powers.append(rep[powers[-1]])
                maps.append(self.classes_of(powers))
            object.__setattr__(self, "_power_map", maps)
        return self._power_map

    def classes_of(self, perms) -> list:
        """Return the class index of each permutation; ValueError if one lies outside the group."""
        return self.labels[self.table.lookup(perms)].tolist()


class PermGroup:
    """Finite permutation group generated by 0-based image tuples."""

    def __init__(self, degree: int, generators):
        self.degree = degree
        self.identity = tuple(range(degree))
        kept = []
        for g in generators:
            t = _validate_perm(g, degree)
            if t != self.identity and t not in kept:
                kept.append(t)
        self.generators = tuple(kept)
        self._chain = None
        self._table = None
        self._moves = None
        self._words = None
        self._elements = None
        self._classes = None
        self._class_matrices = None
        # filled by chartab.character_table on its first call
        self._character_table = None

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"

    # -- order and membership

    def _stabilizer_chain(self) -> dict:
        if self._chain is None:
            self._chain = _schreier_sims(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        """Return the group order from the stabilizer chain."""
        return self._stabilizer_chain()["order"]

    def contains(self, g) -> bool:
        """Test whether a permutation belongs to the group."""
        t = _validate_perm(g, self.degree)
        return _chain_contains(self._stabilizer_chain(), t)

    # -- enumeration

    def _element_table(self) -> _ElementTable:
        if self._table is None:
            if self.order() > ENUMERATION_CAP:
                raise EnumerationRequired(
                    f"order {self.order()} exceeds the enumeration cap {ENUMERATION_CAP}"
                )
            self._table, self._moves = _list_group(self._stabilizer_chain(), self.generators)
        return self._table

    def elements(self) -> list:
        """Return all elements in lexicographic order (identity first)."""
        if self._elements is None:
            self._elements = list(map(tuple, self._element_table().rows.tolist()))
        return self._elements

    def _word_tree(self) -> dict:
        if self._words is None:
            self._element_table()
            # breadth-first from the identity, element 0, as a tuple search would go
            self._words = orbit(0, [m.tolist() for m in self._moves], lambda j, m: m[j])
        return self._words

    def word(self, g) -> tuple:
        """Express an element as a tuple of generator indices, applied left to right.

        The word is the element's path in a breadth-first tree from the
        identity, so no shorter word in the generators gives the element.
        """
        t = _validate_perm(g, self.degree)
        i = int(self._element_table().lookup(np.array([t]))[0])
        tree = self._word_tree()
        out = []
        i, gi = tree[i]
        while i is not None:
            out.append(gi)
            i, gi = tree[i]
        return tuple(reversed(out))

    def shortest_in_classes(self) -> list:
        """Return, for each conjugacy class, the member with the shortest word.

        That is the member the breadth-first word tree reaches first.
        """
        data = self.conjugacy_classes()
        labels = data.labels.tolist()
        first = {}
        for i in self._word_tree():
            first.setdefault(labels[i], i)
            if len(first) == len(data):
                break
        return [tuple(data.table.rows[first[k]].tolist()) for k in range(len(data))]

    # -- structure

    def is_abelian(self) -> bool:
        """Test whether all generators commute."""
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if perm_mul(gens[i], gens[j]) != perm_mul(gens[j], gens[i]):
                    return False
        return True

    def conjugacy_classes(self) -> ClassData:
        """Return conjugacy classes with lexicographically least representatives."""
        if self._classes is None:
            table = self._element_table()
            X = table.rows
            conj = []
            for g in self.generators:
                ga = np.array(g)
                conj.append(table.index(ga[X[:, np.argsort(ga)]]).tolist())
            labels = [-1] * len(X)
            reps = []
            sizes = []
            for i in range(len(X)):
                if labels[i] >= 0:
                    continue
                members = orbit(i, conj, lambda j, s: s[j])
                for j in members:
                    labels[j] = len(reps)
                reps.append(tuple(X[i].tolist()))
                sizes.append(len(members))
            orders = [perm_order(r) for r in reps]
            labels = np.array(labels)
            labels.flags.writeable = False
            self._classes = ClassData(reps, sizes, orders, labels, table)
        return self._classes

    def class_matrix(self, i: int) -> np.ndarray:
        """Return the structure constants of class i as a read-only integer array.

        Entry [j, k] is the number of x in class i with x^-1 * rep_k in
        class j, so the matrix is the action of class sum i on the class
        sums.  It is built from the members of class i alone, on its first
        read, and kept.
        """
        data = self.conjugacy_classes()
        if self._class_matrices is None:
            self._class_matrices = [None] * len(data)
        if self._class_matrices[i] is None:
            n = len(data)
            table = data.table
            label = data.labels
            # the argsort of a permutation row is its inverse
            inverses = np.argsort(table.rows[label == i], axis=1)
            reps = np.array(data.reps)
            # a block of representatives composes at most |G| rows at once
            step = len(label) // len(inverses)
            M = np.empty((n, n), dtype=np.int64)
            for k in range(0, n, step):
                block = reps[k : k + step]
                prods = label[table.index(block[:, inverses].reshape(-1, self.degree))]
                for j, classes in enumerate(prods.reshape(len(block), -1), start=k):
                    M[:, j] = np.bincount(classes, minlength=n)
            M.flags.writeable = False
            self._class_matrices[i] = M
        return self._class_matrices[i]

    def exponent(self) -> int:
        """Return the least common multiple of all element orders."""
        return math.lcm(*self.conjugacy_classes().orders)

    def centralizer(self, x) -> "PermGroup":
        """Return the centralizer subgroup of an element, the group itself if x is central."""
        t = _validate_perm(x, self.degree)
        data = self.conjugacy_classes()
        size = data.sizes[data.classes_of([t])[0]]
        if size == 1:
            return self
        X = data.table.rows
        ta = np.array(t)
        H = self.subgroup(map(tuple, X[(ta[X] == X[:, ta]).all(axis=1)].tolist()))
        if H.order() * size != self.order():
            raise RuntimeError("centralizer order fails the orbit count")
        return H

    def subgroup(self, elements) -> "PermGroup":
        """Build a subgroup from a closed element set via greedy generators."""
        els = sorted({_validate_perm(e, self.degree) for e in elements})
        gens = []
        known = {self.identity}
        for x in els:
            if x not in known:
                gens.append(x)
                known = _coset_closure(known, gens, self.identity)
        want = len(els) if els else 1
        if len(known) != want:
            raise ValueError("element set is not closed under composition")
        return PermGroup(self.degree, gens)

    def sylow(self, p: int) -> "PermGroup":
        """Return a Sylow p-subgroup via deterministic normalizer growth."""
        target = p ** p_valuation(self.order(), p)
        if target == 1:
            return PermGroup(self.degree, [])
        data = self.conjugacy_classes()
        p_classes = [k for k, n in enumerate(data.orders) if n > 1 and is_p_power(n, p)]
        p_els = list(map(tuple, data.table.rows[np.isin(data.labels, p_classes)].tolist()))
        p_set = {self.identity}
        p_gens = []
        while len(p_set) < target:
            found = next((
                g for g in p_els
                if g not in p_set and all(perm_conj(s, g) in p_set for s in p_gens)
            ), None)
            if found is None:
                raise RuntimeError("normalizer growth stalled below the Sylow order")
            p_gens.append(found)
            p_set = _coset_closure(p_set, p_gens, self.identity)
            if target % len(p_set):
                raise RuntimeError("growth left the p-subgroup lattice")
        return PermGroup(self.degree, p_gens)

    def coset_action(self, N: "PermGroup") -> "QuotientAction":
        """Return the action on right cosets of a normal subgroup."""
        verify_normal(self, N)
        table = self._element_table()
        X = table.rows
        n_rows = N._element_table().rows
        labels = np.full(len(X), -1)
        first = []
        for i in range(len(X)):
            if labels[i] < 0:
                # X[i] is the least element of its coset N g, and n g is g[n]
                labels[table.index(X[i][n_rows])] = len(first)
                first.append(i)
        labels.flags.writeable = False
        R = X[first]
        images = [labels[table.index(np.array(s)[R])].tolist() for s in self.generators]
        reps = list(map(tuple, R.tolist()))
        return QuotientAction(self, N, PermGroup(len(reps), images), reps, labels)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class QuotientAction:
    """Bundle for a right-coset action: quotient group, coset representatives, coset labels.

    reps are the least elements of the cosets, in table order, and
    labels[i] is the coset of element i of the group's table, so g acts
    on the cosets as r -> the coset of r g, read off the table.
    """

    group: PermGroup
    normal: PermGroup
    quotient: PermGroup
    reps: list
    labels: np.ndarray

    def image(self, g) -> tuple:
        """Map a group element to its coset permutation; ValueError outside the group."""
        rows = np.array(_validate_perm(g, self.group.degree))[np.array(self.reps)]
        return tuple(self.labels[self.group._element_table().lookup(rows)].tolist())


# -- p-subgroup invariants ---------------------------------------------------------

def abelian_p_invariants(P: PermGroup, p: int) -> list:
    """Return the descending exponent type of an abelian p-group.

    The number of elements of order dividing p^k is read off the class
    sizes and orders.
    """
    size = P.order()
    if not is_p_power(size, p):
        raise ValueError("group order is not a power of p")
    if not P.is_abelian():
        raise ValueError("invariants need an abelian group")
    data = P.conjugacy_classes()
    logs = [0]
    k = 0
    while p ** logs[-1] != size:
        k += 1
        cnt = sum(n for n, m in zip(data.sizes, data.orders) if p ** k % m == 0)
        logs.append(int_log(cnt, p))
    parts_ge = [logs[i] - logs[i - 1] for i in range(1, len(logs))]
    top = parts_ge[0] if parts_ge else 0
    return sorted((sum(1 for d in parts_ge if d >= i) for i in range(1, top + 1)), reverse=True)


def _all_p_subgroups(P: PermGroup, p: int) -> dict:
    """Map every subgroup H of a p-group to its Frattini subgroup, both as element frozensets.

    The sweep extends each subgroup H by every x outside it that normalizes
    H and has x^p in H, and records for each subgroup the intersection of
    the subgroups it was reached from.  Those are exactly its maximal
    subgroups: each extension has index p, and a maximal subgroup M of H
    has index p and is normal, so any x in H but not in M extends M to H.
    Their intersection is the Frattini subgroup Phi(H) (Huppert, Endliche
    Gruppen I, 1967, III.3); the trivial group maps to itself.
    """
    els = sorted(P.elements())
    total = len(els)
    trivial = frozenset({P.identity})
    frattini = {trivial: trivial}
    level = [trivial]
    while level:
        parents = {}
        for H in level:
            if len(H) * p > total:
                continue
            # every x in an extension K of H extends H to that same K
            reached = set(H)
            for x in els:
                if x in reached or perm_pow(x, p) not in H or any(perm_conj(h, x) not in H for h in H):
                    continue
                K = frozenset(_coset_closure(set(H), [x], P.identity))
                reached |= K
                parents[K] = parents.get(K, H) & H
                if len(frattini) + len(parents) > SUBGROUP_SWEEP_CAP:
                    raise CapExceeded("p-subgroup sweep exceeded its cap")
        level = sorted(parents, key=lambda s: sorted(s))
        for K in level:
            frattini[K] = parents[K]
    return frattini


def sectional_rank(P: PermGroup, p: int) -> int:
    """Return the largest minimal generator count over all subgroups.

    By the Burnside basis theorem a p-group H needs log_p |H : Phi(H)|
    generators, with Phi(H) as the p-subgroup sweep records it.
    """
    size = P.order()
    if not is_p_power(size, p):
        raise ValueError("sectional rank needs a p-group")
    if size == 1:
        return 0
    if P.is_abelian():
        return len(abelian_p_invariants(P, p))
    if size > SECTIONAL_RANK_CAP:
        raise CapExceeded(
            f"group order {size} exceeds the sectional rank cap {SECTIONAL_RANK_CAP}"
        )
    return max(int_log(len(H) // len(phi), p) for H, phi in _all_p_subgroups(P, p).items())
