"""Built-in group corpus, paired-subgroup scenarios, and Cartan matrix fixtures."""

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import CompositeCharacteristic, ShapeMismatch
from .ffield import field_create
from .intmath import factorint, is_int, is_prime
from .perm import PermGroup, perm_from_cycles, verify_normal


def prime_factors(n: int) -> tuple:
    """List the distinct prime divisors of a positive integer in increasing order."""
    return tuple(factorint(n))


def symmetric_group(n: int) -> PermGroup:
    """Build the symmetric group on n points from a transposition and an n-cycle."""
    if n < 2:
        raise ValueError("symmetric group builder needs at least two points")
    swap = perm_from_cycles(n, [(1, 2)])
    cycle = perm_from_cycles(n, [tuple(range(1, n + 1))])
    return PermGroup(n, [swap, cycle])


def alternating_group(n: int) -> PermGroup:
    """Build the alternating group on n points from a 3-cycle and a long even cycle."""
    if n < 3:
        raise ValueError("alternating group builder needs at least three points")
    three = perm_from_cycles(n, [(1, 2, 3)])
    if n % 2 == 1:
        long = perm_from_cycles(n, [tuple(range(1, n + 1))])
    else:
        long = perm_from_cycles(n, [tuple(range(2, n + 1))])
    return PermGroup(n, [three, long])


def cyclic_group(order: int) -> PermGroup:
    """Build a cyclic group as one permutation with a cycle per prime power factor."""
    if order < 2:
        raise ValueError("cyclic group builder needs order at least two")
    cycles = []
    start = 1
    for ell, k in factorint(order).items():
        q = ell ** k
        cycles.append(tuple(range(start, start + q)))
        start += q
    degree = start - 1
    return PermGroup(degree, [perm_from_cycles(degree, cycles)])


def klein_four_group() -> PermGroup:
    """Build the Klein four group in its regular action on four points."""
    a = perm_from_cycles(4, [(1, 2), (3, 4)])
    b = perm_from_cycles(4, [(1, 3), (2, 4)])
    return PermGroup(4, [a, b])


def dihedral_group(n: int) -> PermGroup:
    """Build the dihedral group of order 2n acting on the vertices of an n-gon."""
    if n < 3:
        raise ValueError("dihedral group builder needs at least three vertices")
    rotation = perm_from_cycles(n, [tuple(range(1, n + 1))])
    pairs = [(i, n + 2 - i) for i in range(2, n // 2 + 2) if i < n + 2 - i]
    reflection = perm_from_cycles(n, pairs)
    return PermGroup(n, [rotation, reflection])


def quaternion_group() -> PermGroup:
    """Build the quaternion group of order eight in its right regular action."""
    # Points are the units 1, -1, i, -i, j, -j, k, -k in that order; the
    # generators are right multiplication by i and by j.
    by_i = (2, 3, 1, 0, 7, 6, 4, 5)
    by_j = (4, 5, 6, 7, 1, 0, 3, 2)
    return PermGroup(8, [by_i, by_j])


_GF3_VECTORS = tuple((a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0))
_GF3_INDEX = {v: i for i, v in enumerate(_GF3_VECTORS)}


def _gf3_matrix_action(mat) -> tuple:
    """Turn an invertible 2x2 matrix over GF(3) into its permutation of nonzero row vectors."""
    out = []
    for (a, b) in _GF3_VECTORS:
        img = ((mat[0][0] * a + mat[1][0] * b) % 3, (mat[0][1] * a + mat[1][1] * b) % 3)
        out.append(_GF3_INDEX[img])
    return tuple(out)


def special_linear_2_3() -> PermGroup:
    """Build SL(2,3) acting on the eight nonzero vectors of a 2-space over GF(3)."""
    a = _gf3_matrix_action([[1, 1], [0, 1]])
    b = _gf3_matrix_action([[0, 2], [1, 0]])
    return PermGroup(8, [a, b])


def projective_special_linear_2(q: int) -> PermGroup:
    """Build PSL(2,q) acting on the q + 1 points of the projective line over GF(q).

    Point z < q is the field element with code z and point q is infinity.
    The generators are z -> z + 1, then z -> g^2 z for the primitive
    element g when q is not prime, then z -> -1/z.
    """
    factors = factorint(q) if q >= 2 else {}
    if len(factors) != 1:
        raise ValueError("PSL(2,q) builder needs a prime power q")
    [(p, k)] = factors.items()
    F = field_create(p, k)
    gens = [tuple(F.add(z, 1) if z < q else q for z in range(q + 1))]
    if k > 1:
        square = F.mul(F.primitive, F.primitive)
        gens.append(tuple(F.mul(z, square) if z < q else q for z in range(q + 1)))
    gens.append(tuple(q if z == 0 else 0 if z == q else F.neg(F.inv(z)) for z in range(q + 1)))
    return PermGroup(q + 1, gens)


def projective_special_linear_2_7() -> PermGroup:
    """Build PSL(2,7) on the eight points of the projective line over GF(7)."""
    return projective_special_linear_2(7)


def special_linear_2_8() -> PermGroup:
    """Build SL(2,8) = PSL(2,8) on the nine points of the projective line over GF(8)."""
    return projective_special_linear_2(8)


def mathieu_group_11() -> PermGroup:
    """Build the Mathieu group M11 on eleven points from its standard generators."""
    a = perm_from_cycles(11, [tuple(range(1, 12))])
    b = perm_from_cycles(11, [(3, 7, 11, 8), (4, 10, 5, 6)])
    return PermGroup(11, [a, b])


@dataclass(frozen=True, slots=True, eq=False)
class CorpusEntry:
    """Named corpus member with a deterministic group builder and target primes."""

    name: str
    builder: Callable[[], PermGroup]
    large: bool = False
    primes: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "large", bool(self.large))
        if self.primes is not None:
            object.__setattr__(self, "primes", tuple(self.primes))

    def __repr__(self) -> str:
        return f"CorpusEntry({self.name!r})"

    def build(self) -> PermGroup:
        """Construct a fresh copy of the group."""
        return self.builder()

    def target_primes(self, group: PermGroup) -> tuple:
        """List the primes this entry is analyzed at, by default all divisors of the order."""
        if self.primes is not None:
            return self.primes
        return prime_factors(group.order())


DEFAULT_CORPUS = (
    CorpusEntry("S3", lambda: symmetric_group(3)),
    CorpusEntry("C2xC2", klein_four_group),
    CorpusEntry("C12", lambda: cyclic_group(12)),
    CorpusEntry("D8", lambda: dihedral_group(4)),
    CorpusEntry("Q8", quaternion_group),
    CorpusEntry("A4", lambda: alternating_group(4)),
    CorpusEntry("SL(2,3)", special_linear_2_3),
    CorpusEntry("S4", lambda: symmetric_group(4)),
    CorpusEntry("A5", lambda: alternating_group(5)),
    CorpusEntry("S5", lambda: symmetric_group(5)),
    CorpusEntry("PSL(2,7)", projective_special_linear_2_7),
    CorpusEntry("SL(2,8)", special_linear_2_8),
    CorpusEntry("M11", mathieu_group_11, large=True, primes=(2,)),
)


def corpus_entry(name: str) -> CorpusEntry:
    """Look up a corpus entry by name."""
    for entry in DEFAULT_CORPUS:
        if entry.name == name:
            return entry
    raise ValueError(f"unknown corpus entry {name!r}")


def _center_elements(group: PermGroup) -> list:
    """List the central elements of a group: the representatives of its one-element classes."""
    data = group.conjugacy_classes()
    return [rep for rep, size in zip(data.reps, data.sizes) if size == 1]


@dataclass(frozen=True, slots=True, eq=False)
class PairedScenario:
    """Ambient group with a distinguished normal subgroup, a prime, and a check kind."""

    name: str
    kind: str
    prime: int
    builder: Callable[[], tuple]

    def __repr__(self) -> str:
        return f"PairedScenario({self.name!r}, kind={self.kind!r}, prime={self.prime})"

    def build(self) -> tuple:
        """Construct the ambient group and its normal subgroup, verifying normality."""
        group, sub = self.builder()
        verify_normal(group, sub)
        return group, sub


def _s3_with_c3() -> tuple:
    """Pair the symmetric group on three points with its rotation subgroup."""
    group = symmetric_group(3)
    sub = PermGroup(3, [perm_from_cycles(3, [(1, 2, 3)])])
    return group, sub


def _sl23_with_center() -> tuple:
    """Pair SL(2,3) with its order-two center."""
    group = special_linear_2_3()
    return group, group.subgroup(_center_elements(group))


def _s4_with_a4() -> tuple:
    """Pair the symmetric group on four points with its alternating subgroup."""
    return symmetric_group(4), alternating_group(4)


DEFAULT_SCENARIOS = (
    PairedScenario("induced-tau-S3", "stabilizer_induction_tau", 2, _s3_with_c3),
    PairedScenario("central-scaling-SL23", "central_quotient_scaling", 2, _sl23_with_center),
    PairedScenario("degree-sum-S3", "restriction_degree_sum", 3, _s3_with_c3),
    PairedScenario("coprime-quotient-S4", "coprime_quotient_tau", 3, _s4_with_a4),
    PairedScenario("sylow-product-S4", "sylow_product_ratio", 2, _s4_with_a4),
)


@dataclass(frozen=True, slots=True, eq=False)
class CartanFixture:
    """Reference Cartan matrix with its defect group order and sectional rank."""

    name: str
    note: str
    prime: int
    rows: tuple
    defect_order: int
    sectional: int
    trace_expected: Optional[int] = None

    def __post_init__(self):
        for name in ("prime", "defect_order", "sectional", "trace_expected"):
            value = getattr(self, name)
            if name == "trace_expected" and value is None:
                continue
            if not is_int(value):
                raise ValueError(f"fixture {self.name!r}: {name} {value!r} is not an integer")
            object.__setattr__(self, name, int(value))
        if not is_prime(self.prime):
            raise CompositeCharacteristic(f"fixture {self.name!r}: {self.prime} is not prime")
        if not all(is_int(v) for row in self.rows for v in row):
            raise ShapeMismatch(f"fixture {self.name!r}: matrix entries must be integers")
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        size = len(rows)
        if size == 0 or any(len(row) != size for row in rows):
            raise ShapeMismatch("fixture matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)
        if self.defect_order < 1:
            raise ValueError(f"fixture {self.name!r}: defect group order must be positive")
        if self.sectional < 0:
            raise ValueError(f"fixture {self.name!r}: sectional rank must not be negative")

    def __repr__(self) -> str:
        return f"CartanFixture({self.name!r})"

    def size(self) -> int:
        """Return the number of rows."""
        return len(self.rows)

    def trace(self) -> int:
        """Sum the diagonal entries."""
        return sum(self.rows[i][i] for i in range(len(self.rows)))

    def max_diagonal(self) -> int:
        """Return the largest diagonal entry."""
        return max(self.rows[i][i] for i in range(len(self.rows)))

    def bound(self) -> int:
        """Return the product of the defect group order and the prime power of the sectional rank."""
        return self.prime ** self.sectional * self.defect_order


FIXTURES = (
    CartanFixture(
        "J1",
        "principal 2-block of the first Janko group",
        2,
        [[8, 4, 4, 4, 4],
         [4, 4, 3, 3, 1],
         [4, 3, 4, 2, 2],
         [4, 3, 2, 4, 2],
         [4, 1, 2, 2, 4]],
        defect_order=8,
        sectional=3,
        trace_expected=24,
    ),
    CartanFixture(
        "Co3",
        "2-block of the third Conway group with elementary abelian defect group of order eight",
        2,
        [[4, 2, 4, 2, 2],
         [2, 4, 4, 2, 2],
         [4, 4, 8, 4, 3],
         [2, 2, 4, 4, 2],
         [2, 2, 3, 2, 2]],
        defect_order=8,
        sectional=3,
        trace_expected=22,
    ),
    CartanFixture(
        "klein-A4-type",
        "Klein four block with three simple modules, principal type of the alternating group on four points",
        2,
        [[2, 1, 1],
         [1, 2, 1],
         [1, 1, 2]],
        defect_order=4,
        sectional=2,
    ),
    CartanFixture(
        "klein-A5-type",
        "Klein four block with three simple modules, principal type of the alternating group on five points",
        2,
        [[4, 2, 2],
         [2, 2, 1],
         [2, 1, 2]],
        defect_order=4,
        sectional=2,
    ),
)
