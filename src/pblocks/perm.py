"""Permutation groups with deterministic structure algorithms.

Permutations on 0-based points are tuples of images, and products apply
left to right: perm_mul(a, b) maps i to b[a[i]].  One-based cycle
notation is accepted and produced only at the boundary helpers
perm_from_cycles and perm_to_cycles.

Group order and membership come from a deterministic Schreier-Sims
stabilizer chain.  Anything that needs the full element list (classes,
centralizers, coset actions, words in the generators) goes through a
breadth-first enumeration that is capped, so large groups still answer
order queries while refusing elementwise work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceeded,
    EnumerationRequired,
    NotAPermutation,
    NotNormal,
    ShapeMismatch,
)
from .intmath import int_log, is_p_power, p_valuation

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
    """Conjugate a by g, returning g^-1 a g."""
    return perm_mul(perm_mul(perm_inv(g), a), g)


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
        pts = [int(c) for c in cyc]
        for c in pts:
            if not 1 <= c <= degree:
                raise NotAPermutation(f"point {c} outside 1..{degree}")
            if c in touched:
                raise NotAPermutation(f"point {c} repeated across cycles")
            touched.add(c)
        for i, c in enumerate(pts):
            images[c - 1] = pts[(i + 1) % len(pts)] - 1
    return tuple(images)


def perm_to_cycles(a: tuple) -> list:
    """Write a permutation as 1-based cycles, shortest points first."""
    seen = [False] * len(a)
    out = []
    for i in range(len(a)):
        if seen[i] or a[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = a[j]
        out.append(tuple(cyc))
    return out


def _validate_perm(g, degree: int) -> tuple:
    """Check that g is a permutation tuple of the given degree."""
    t = tuple(int(v) for v in g)
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
        t = {base[i]: identity}
        queue = [base[i]]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for s in gs:
                y = s[x]
                if y not in t:
                    t[y] = perm_mul(t[x], s)
                    queue.append(y)
        trans[i] = t
        return gs

    def strip(g, start):
        for i in range(start, len(base)):
            x = g[base[i]]
            t = trans[i]
            if x not in t:
                return g, i
            g = perm_mul(g, perm_inv(t[x]))
        return g, len(base)

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
                res, j = strip(h, i + 1)
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
        "strong": strong,
        "order": order,
    }


def _chain_contains(chain: dict, g: tuple) -> bool:
    """Test membership against a stabilizer chain."""
    base = chain["base"]
    trans = chain["trans"]
    for i in range(len(base)):
        x = g[base[i]]
        t = trans[i]
        if x not in t:
            return False
        g = perm_mul(g, perm_inv(t[x]))
    return g == chain["identity"]


def _closure(degree: int, gens) -> set:
    """Return the set of all products of the generators."""
    identity = tuple(range(degree))
    seen = {identity}
    queue = [identity]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for s in gens:
            y = perm_mul(x, s)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


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


# -- group class -------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ClassData:
    """Conjugacy class bundle: representatives, sizes, orders, and lookup."""

    reps: list
    sizes: list
    orders: list
    class_of: dict

    def __len__(self):
        return len(self.reps)


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
        self._parents = None
        self._elements = None
        self._classes = None
        self._class_matrices = None

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

    def _enumerate(self) -> dict:
        if self._parents is None:
            if self.order() > ENUMERATION_CAP:
                raise EnumerationRequired(
                    f"order {self.order()} exceeds the enumeration cap {ENUMERATION_CAP}"
                )
            parents = {self.identity: (None, -1)}
            queue = [self.identity]
            qi = 0
            while qi < len(queue):
                x = queue[qi]
                qi += 1
                for gi, s in enumerate(self.generators):
                    y = perm_mul(x, s)
                    if y not in parents:
                        parents[y] = (x, gi)
                        queue.append(y)
            if len(parents) != self.order():
                raise RuntimeError("enumeration disagrees with the stabilizer chain")
            self._parents = parents
            self._elements = sorted(parents)
        return self._parents

    def elements(self) -> list:
        """Return all elements in lexicographic order (identity first)."""
        self._enumerate()
        return self._elements

    def word(self, g) -> tuple:
        """Express an element as a tuple of generator indices, applied left to right."""
        t = _validate_perm(g, self.degree)
        parents = self._enumerate()
        if t not in parents:
            raise ValueError("element does not belong to the group")
        out = []
        while True:
            par, gi = parents[t]
            if par is None:
                break
            out.append(gi)
            t = par
        return tuple(reversed(out))

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
            els = self.elements()
            class_of = {}
            reps = []
            sizes = []
            for x in els:
                if x in class_of:
                    continue
                idx = len(reps)
                reps.append(x)
                class_of[x] = idx
                orbit = [x]
                qi = 0
                while qi < len(orbit):
                    y = orbit[qi]
                    qi += 1
                    for s in self.generators:
                        z = perm_conj(y, s)
                        if z not in class_of:
                            class_of[z] = idx
                            orbit.append(z)
                sizes.append(len(orbit))
            orders = [perm_order(r) for r in reps]
            self._classes = ClassData(reps, sizes, orders, class_of)
        return self._classes

    def class_matrices(self) -> list:
        """Return the class algebra structure constants as read-only integer arrays.

        Matrix i has entry [j, k] equal to the number of x in class i with
        x^-1 * rep_k in class j, so it is the action of class sum i on the
        class sums.  Computed once per group.
        """
        if self._class_matrices is None:
            data = self.conjugacy_classes()
            n = len(data)
            mats = [np.zeros((n, n), dtype=np.int64) for _ in range(n)]
            for x, i in data.class_of.items():
                xi = perm_inv(x)
                M = mats[i]
                for k, rep in enumerate(data.reps):
                    M[data.class_of[perm_mul(xi, rep)], k] += 1
            for M in mats:
                M.flags.writeable = False
            self._class_matrices = mats
        return self._class_matrices

    def exponent(self) -> int:
        """Return the least common multiple of all element orders."""
        data = self.conjugacy_classes()
        out = 1
        for n in data.orders:
            out = math.lcm(out, n)
        return out

    def centralizer(self, x) -> "PermGroup":
        """Return the centralizer subgroup of an element."""
        t = _validate_perm(x, self.degree)
        cent = [g for g in self.elements() if perm_mul(g, t) == perm_mul(t, g)]
        H = self.subgroup(cent)
        data = self.conjugacy_classes()
        if H.order() * data.sizes[data.class_of[t]] != self.order():
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
                known = _closure(self.degree, gens)
        want = len(els) if els else 1
        if len(known) != want:
            raise ValueError("element set is not closed under composition")
        return PermGroup(self.degree, gens)

    def is_subgroup(self, H: "PermGroup") -> bool:
        """Test whether H is contained in this group."""
        return all(self.contains(s) for s in H.generators)

    def is_normal(self, H: "PermGroup") -> bool:
        """Test whether a subgroup H is normal in this group."""
        try:
            verify_normal(self, H)
        except NotNormal:
            return False
        return True

    def intersection(self, other: "PermGroup") -> "PermGroup":
        """Return the intersection with another group on the same points."""
        if other.degree != self.degree:
            raise ValueError("intersection needs a common degree")
        mine = set(self.elements())
        common = [g for g in other.elements() if g in mine]
        return self.subgroup(common)

    def sylow(self, p: int) -> "PermGroup":
        """Return a Sylow p-subgroup via deterministic normalizer growth."""
        target = p ** p_valuation(self.order(), p)
        if target == 1:
            return PermGroup(self.degree, [])
        p_els = [
            g for g in self.elements()
            if g != self.identity and is_p_power(perm_order(g), p)
        ]
        p_set = {self.identity}
        p_gens = []
        while len(p_set) < target:
            found = None
            for g in p_els:
                if g in p_set:
                    continue
                if all(perm_conj(s, g) in p_set for s in p_gens):
                    found = g
                    break
            if found is None:
                raise RuntimeError("normalizer growth stalled below the Sylow order")
            p_gens.append(found)
            p_set = _closure(self.degree, p_gens)
            if target % len(p_set):
                raise RuntimeError("growth left the p-subgroup lattice")
        return PermGroup(self.degree, p_gens)

    def coset_action(self, N: "PermGroup") -> "QuotientAction":
        """Return the action on right cosets of a normal subgroup."""
        verify_normal(self, N)
        n_els = N.elements()
        to_coset = {}
        reps = []
        for g in self.elements():
            if g in to_coset:
                continue
            idx = len(reps)
            reps.append(g)
            for n in n_els:
                to_coset[perm_mul(n, g)] = idx
        k = len(reps)
        images = [
            tuple(to_coset[perm_mul(reps[c], s)] for c in range(k))
            for s in self.generators
        ]
        quotient = PermGroup(k, images)
        return QuotientAction(self, N, quotient, reps, to_coset)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class QuotientAction:
    """Bundle for a right-coset action: quotient group, section, index maps."""

    group: PermGroup
    normal: PermGroup
    quotient: PermGroup
    reps: list
    to_coset: dict

    def image(self, g) -> tuple:
        """Map a group element to its coset permutation."""
        return tuple(
            self.to_coset[perm_mul(rep, g)] for rep in self.reps
        )

    def section(self, q: tuple) -> tuple:
        """Map a quotient element back to its least coset representative."""
        return self.reps[q[0]]


# -- p-subgroup invariants ---------------------------------------------------------

def abelian_p_invariants(P: PermGroup, p: int) -> list:
    """Return the descending exponent type of an abelian p-group."""
    size = P.order()
    if not is_p_power(size, p):
        raise ValueError("group order is not a power of p")
    if not P.is_abelian():
        raise ValueError("invariants need an abelian group")
    els = P.elements()
    logs = [0]
    k = 0
    while p ** logs[-1] != size:
        k += 1
        cnt = sum(1 for x in els if perm_pow(x, p ** k) == P.identity)
        logs.append(int_log(cnt, p))
    parts_ge = [logs[i] - logs[i - 1] for i in range(1, len(logs))]
    out = []
    for i in range(1, (parts_ge[0] if parts_ge else 0) + 1):
        out.append(sum(1 for d in parts_ge if d >= i))
    return sorted(out, reverse=True)


def _all_p_subgroups(P: PermGroup, p: int) -> list:
    """Enumerate every subgroup of a p-group as element frozensets."""
    els = sorted(P.elements())
    total = len(els)
    found = [frozenset({P.identity})]
    level = [frozenset({P.identity})]
    while level:
        nxt = set()
        for H in level:
            if len(H) * p > total:
                continue
            for x in els:
                if x in H:
                    continue
                if perm_pow(x, p) not in H:
                    continue
                if any(perm_conj(h, x) not in H for h in H):
                    continue
                new_set = set(H)
                cur = x
                for _ in range(p - 1):
                    new_set.update(perm_mul(h, cur) for h in H)
                    cur = perm_mul(cur, x)
                nxt.add(frozenset(new_set))
                if len(found) + len(nxt) > SUBGROUP_SWEEP_CAP:
                    raise CapExceeded("p-subgroup sweep exceeded its cap")
        level = sorted(nxt, key=lambda s: sorted(s))
        found.extend(level)
    return found


def sectional_rank(P: PermGroup, p: int) -> int:
    """Return the largest minimal generator count over all subgroups."""
    size = P.order()
    if not is_p_power(size, p):
        raise ValueError("sectional rank needs a p-group")
    if size == 1:
        return 0
    if size > SECTIONAL_RANK_CAP:
        raise CapExceeded(
            f"group order {size} exceeds the sectional rank cap {SECTIONAL_RANK_CAP}"
        )
    if P.is_abelian():
        return len(abelian_p_invariants(P, p))
    best = 0
    for H in _all_p_subgroups(P, p):
        h_els = sorted(H)
        frat_gens = {perm_pow(x, p) for x in h_els}
        for i, x in enumerate(h_els):
            for y in h_els[i + 1:]:
                frat_gens.add(perm_mul(perm_inv(perm_mul(y, x)), perm_mul(x, y)))
        frat_gens.discard(P.identity)
        frat = _closure(P.degree, sorted(frat_gens)) if frat_gens else {P.identity}
        best = max(best, int_log(len(H) // len(frat), p))
    return best
