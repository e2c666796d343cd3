"""Block decomposition of modular group algebras and block invariants."""

import random
from dataclasses import dataclass
from fractions import Fraction

from .chartab import (
    CharacterTable,
    character_table,
    class_fusion,
    class_inner_product,
    lifting_prime,
    restrict_row,
)
from .cyclotomic import Cyc, cyc_to_field
from .errors import (
    AmbiguousInduction,
    CompositeCharacteristic,
    CrossBlockEntry,
    DefectMismatch,
    DimMismatch,
    NonIntegralSolution,
    ReductionInconsistent,
)
from .ffield import field_create
from .intmath import int_det, is_p_power, is_prime, p_valuation
from .linalg import Mat, mat_rank, mat_solve_left
from .modrep import BrauerTable, GModule, ReductionContext, brauer_table, module_iso
from .perm import PermGroup, perm_conj, perm_inv, sectional_rank

SPOT_CHECK_PAIRS = 4
SOLVE_PRIME_ATTEMPTS = 5


def _central_character(row, degree: int, classes) -> list:
    """Return the exact central character values of one ordinary character."""
    values = []
    for k in range(len(classes.reps)):
        values.append(row[k] * Fraction(classes.sizes[k], degree))
    return values


def _reduced_lambda(row, degree: int, classes, context) -> tuple:
    """Reduce the central character of one ordinary row into the modular field."""
    return tuple(context.reduce(v) for v in _central_character(row, degree, classes))


def _spot_check_lambdas(group, lambdas, field, seed: int) -> None:
    """Verify sampled multiplicativity of the reduced central characters."""
    mats = group.class_matrices()
    n = len(mats)
    if n < 2:
        return
    rng = random.Random(seed)
    distinct = sorted(set(lambdas))
    for _ in range(SPOT_CHECK_PAIRS):
        i = rng.randrange(1, n)
        j = rng.randrange(1, n)
        for lam in distinct:
            lhs = field.mul(lam[i], lam[j])
            rhs = 0
            for k in range(n):
                coeff = int(mats[i][j, k]) % field.p
                if coeff:
                    rhs = field.add(rhs, field.mul(coeff, lam[k]))
            if lhs != rhs:
                raise ReductionInconsistent(
                    "reduced central character fails multiplicativity at classes "
                    f"{i}, {j}"
                )


def _integral_expansion(basis, targets, order: int, exponent: int) -> tuple:
    """Express target rows in a square basis of cyclotomic rows over the integers.

    The system is solved modulo a witness prime and the integer candidate is
    then verified exactly, so a wrong or fractional solution cannot slip
    through rounding.
    """
    size = len(basis)
    minimum = 0
    field = None
    bmat = None
    for _ in range(SOLVE_PRIME_ATTEMPTS):
        r = lifting_prime(order, exponent, minimum=minimum)
        minimum = r + 1
        cand = field_create(r)
        z = cand.root_of_unity(exponent)
        rows = [[cyc_to_field(v, cand, z, exponent) for v in brow] for brow in basis]
        if mat_rank(Mat(cand, rows)) == size:
            field = cand
            bmat = Mat(cand, rows)
            break
    if field is None:
        raise RuntimeError("no usable solving prime found for the expansion")
    rmat = Mat(field, [[cyc_to_field(v, field, z, exponent) for v in row] for row in targets])
    solved = mat_solve_left(bmat, rmat)
    coeffs = tuple(tuple(int(x) for x in row) for row in solved.data)
    for i, target in enumerate(targets):
        for t in range(size):
            acc = Cyc.zero(1)
            for j in range(size):
                if coeffs[i][j]:
                    acc = acc + coeffs[i][j] * basis[j][t]
            if acc != target[t]:
                raise NonIntegralSolution(
                    f"expansion row {i} does not reproduce the target values"
                )
    return coeffs


def _decomposition_matrix(tab, btab) -> tuple:
    """Solve for the integer decomposition matrix and verify it exactly."""
    regular = btab.regular
    targets = [[row[k] for k in regular] for row in tab.rows]
    return _integral_expansion(btab.rows, targets, tab.group.order(), tab.exponent)


@dataclass(frozen=True, slots=True, eq=False)
class Block:
    """Invariants of a single block of the modular group algebra."""

    index: int
    p: int
    chars: tuple
    ibrs: tuple
    degrees: tuple
    ibr_degrees: tuple
    lambda_row: tuple
    principal: bool
    defect: int
    defect_class: int
    defect_group: PermGroup
    sectional: int
    cartan: tuple
    dim: int
    tau: Fraction

    def __repr__(self):
        kind = "principal, " if self.principal else ""
        return (
            f"Block(index={self.index}, p={self.p}, {kind}k={len(self.chars)}, "
            f"l={len(self.ibrs)}, defect={self.defect})"
        )


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class BlockSystem:
    """Complete block decomposition of a group algebra at one prime."""

    group: PermGroup
    p: int
    chartab: CharacterTable
    brauer: BrauerTable
    context: ReductionContext
    blocks: tuple
    decomposition: tuple
    regular: tuple
    block_of_char: tuple
    block_of_ibr: tuple

    def __len__(self):
        return len(self.blocks)

    def principal_block(self) -> Block:
        """Return the block containing the trivial character."""
        return self.blocks[0]


def block_system(group, p: int, seed: int = 0, context=None) -> BlockSystem:
    """Compute the block decomposition of the group algebra in characteristic p."""
    if not is_prime(p):
        raise CompositeCharacteristic(f"characteristic {p} is not prime")
    tab = character_table(group, seed=seed)
    classes = tab.classes
    if context is None:
        context = ReductionContext(group, p)
    btab = brauer_table(group, p, seed=seed, classes=classes, context=context)
    order = group.order()

    lambdas = [
        _reduced_lambda(row, deg, classes, context)
        for deg, row in zip(tab.degrees, tab.rows)
    ]
    _spot_check_lambdas(group, lambdas, context.field, seed)

    buckets = {}
    for i, lam in enumerate(lambdas):
        buckets.setdefault(lam, []).append(i)
    trivial_index = next(
        i
        for i, row in enumerate(tab.rows)
        if tab.degrees[i] == 1 and all(v == 1 for v in row)
    )
    ordered = sorted(
        buckets.items(),
        key=lambda item: (trivial_index not in item[1], min(item[1])),
    )

    dec = _decomposition_matrix(tab, btab)
    block_of_char = [None] * len(tab.rows)
    for bindex, (_, chars) in enumerate(ordered):
        for i in chars:
            block_of_char[i] = bindex

    block_of_ibr = [None] * len(btab.rows)
    for j in range(len(btab.rows)):
        touched = {block_of_char[i] for i in range(len(tab.rows)) if dec[i][j]}
        if len(touched) != 1:
            raise CrossBlockEntry(
                f"decomposition column {j} meets {len(touched)} blocks"
            )
        block_of_ibr[j] = touched.pop()

    nu_order = p_valuation(order, p)
    regular = btab.regular
    blocks = []
    for bindex, (lam, chars) in enumerate(ordered):
        chars = tuple(chars)
        ibrs = tuple(j for j in range(len(btab.rows)) if block_of_ibr[j] == bindex)
        degrees = tuple(tab.degrees[i] for i in chars)
        ibr_degrees = tuple(btab.dims[j] for j in ibrs)
        defect = nu_order - min(p_valuation(d, p) for d in degrees)
        dim = sum(d * d for d in degrees)

        cartan = tuple(
            tuple(sum(dec[i][a] * dec[i][b] for i in chars) for b in ibrs)
            for a in ibrs
        )
        route = sum(
            cartan[a][b] * ibr_degrees[a] * ibr_degrees[b]
            for a in range(len(ibrs))
            for b in range(len(ibrs))
        )
        if route != dim:
            raise DimMismatch(
                f"block {bindex}: Cartan form gives dimension {route}, "
                f"character degrees give {dim}"
            )
        det = int_det(cartan)
        if not is_p_power(det, p):
            raise RuntimeError(
                f"block {bindex}: Cartan determinant {det} is not a power of {p}"
            )

        candidates = [
            k for k in regular if lam[k] != 0
        ]
        if not candidates:
            raise RuntimeError(f"block {bindex} has no nonvanishing regular class")
        best = min(p_valuation(order // classes.sizes[k], p) for k in candidates)
        if best != defect:
            raise DefectMismatch(
                f"block {bindex}: defect {defect} from degrees, {best} from classes"
            )
        defect_class = min(
            k for k in candidates if p_valuation(order // classes.sizes[k], p) == best
        )
        centralizer = group.centralizer(classes.reps[defect_class])
        dgroup = centralizer.sylow(p)
        if dgroup.order() != p**defect:
            raise DefectMismatch(
                f"block {bindex}: defect group order {dgroup.order()} != {p**defect}"
            )
        sect = sectional_rank(dgroup, p)
        tau = Fraction(dim, sum(d * d for d in ibr_degrees))

        blocks.append(
            Block(
                index=bindex,
                p=p,
                chars=chars,
                ibrs=ibrs,
                degrees=degrees,
                ibr_degrees=ibr_degrees,
                lambda_row=lam,
                principal=(trivial_index in chars),
                defect=defect,
                defect_class=defect_class,
                defect_group=dgroup,
                sectional=sect,
                cartan=cartan,
                dim=dim,
                tau=tau,
            )
        )

    return BlockSystem(
        group=group,
        p=p,
        chartab=tab,
        brauer=btab,
        context=context,
        blocks=tuple(blocks),
        decomposition=dec,
        regular=regular,
        block_of_char=tuple(block_of_char),
        block_of_ibr=tuple(block_of_ibr),
    )


def check_conjectures(block: Block) -> dict:
    """Evaluate the trace and simple-count bounds for one block.

    The strict bound compares against the sectional bound times the defect
    group order; it is stated for blocks of positive defect and is reported
    as vacuously true when the defect group is trivial.
    """
    p = block.p
    nsimple = len(block.ibrs)
    dorder = p**block.defect
    srank = p**block.sectional
    tau = block.tau
    return {
        "tau": tau,
        "l": nsimple,
        "defect_group_order": dorder,
        "sectional": block.sectional,
        "tau_bound_holds": tau <= nsimple * dorder,
        "tau_equality": tau == nsimple * dorder,
        "equality_iff_one_simple": (tau == nsimple * dorder) == (nsimple == 1),
        "simple_count_bound_holds": nsimple <= srank,
        "strict_tau_bound_holds": block.defect == 0 or tau < srank * dorder,
    }


def _ambient_lambda(system: BlockSystem, sub: BlockSystem, block: Block) -> tuple:
    """Reduce a subgroup block's central character in the ambient modular field."""
    classes = sub.chartab.classes
    rows = []
    for ci in block.chars[:2]:
        rows.append(
            _reduced_lambda(
                sub.chartab.rows[ci], sub.chartab.degrees[ci], classes, system.context
            )
        )
    if len(set(rows)) != 1:
        raise ReductionInconsistent(
            "subgroup block characters disagree after ambient reduction"
        )
    return rows[0]


def induced_block(system: BlockSystem, sub: BlockSystem, block: Block):
    """Induce a subgroup block to the ambient group, returning (block, values)."""
    fusion = class_fusion(system.chartab.classes, sub.chartab.classes)
    lam = _ambient_lambda(system, sub, block)
    field = system.context.field
    induced = [0] * len(system.chartab.classes.reps)
    for c, target in enumerate(fusion):
        induced[target] = field.add(induced[target], lam[c])
    induced = tuple(induced)
    matches = [b for b in system.blocks if b.lambda_row == induced]
    if len(matches) > 1:
        raise AmbiguousInduction(
            f"induced central character matches {len(matches)} blocks"
        )
    return (matches[0] if matches else None), induced


def _orbit(start: int, perms) -> tuple:
    """Return the sorted orbit of an index under a list of index permutations."""
    orbit = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for perm in perms:
            image = perm[current]
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return tuple(sorted(orbit))


def _conjugation_row_perms(system: BlockSystem, sub: BlockSystem, rows, columns) -> list:
    """Permutations of subgroup table rows induced by each ambient generator.

    Row values sit on the subgroup classes listed in columns; conjugation by
    an ambient generator permutes those classes and so permutes the rows.
    """
    classes = sub.chartab.classes
    perms = []
    for g in system.group.generators:
        ginv = perm_inv(g)
        moved_cols = [
            columns.index(classes.class_of[perm_conj(classes.reps[c], ginv)])
            for c in columns
        ]
        perm = []
        for row in rows:
            moved = tuple(row[pos] for pos in moved_cols)
            perm.append(next(s for s, other in enumerate(rows) if tuple(other) == moved))
        perms.append(perm)
    return perms


def _char_conjugation_perms(system: BlockSystem, sub: BlockSystem) -> list:
    """Permutations of subgroup character indices induced by ambient generators."""
    columns = tuple(range(len(sub.chartab.classes)))
    return _conjugation_row_perms(system, sub, sub.chartab.rows, columns)


def block_orbit(system: BlockSystem, sub: BlockSystem, index: int) -> tuple:
    """Return the orbit of a subgroup block under ambient conjugation."""
    block_perms = [
        [sub.block_of_char[char_perm[block.chars[0]]] for block in sub.blocks]
        for char_perm in _char_conjugation_perms(system, sub)
    ]
    return _orbit(index, block_perms)


def covered_blocks(system: BlockSystem, sub: BlockSystem) -> dict:
    """Map each ambient block index to the normal subgroup blocks it covers."""
    fusion = class_fusion(system.chartab.classes, sub.chartab.classes)
    classes = sub.chartab.classes

    covered = {}
    for block in system.blocks:
        hit = set()
        for ci in block.chars:
            restricted = restrict_row(system.chartab.rows[ci], fusion)
            for t, trow in enumerate(sub.chartab.rows):
                mult = class_inner_product(restricted, trow, classes)
                if mult is None:
                    raise RuntimeError("restriction inner product is irrational")
                if mult.denominator != 1 or mult < 0:
                    raise RuntimeError(
                        f"restriction multiplicity {mult} is not a natural number"
                    )
                if mult:
                    hit.add(sub.block_of_char[t])
        covered[block.index] = tuple(sorted(hit))

    maps = _char_conjugation_perms(system, sub)
    for block_index, hit in covered.items():
        hit_set = set(hit)
        for char_perm in maps:
            for t in range(len(sub.chartab.rows)):
                if sub.block_of_char[t] in hit_set:
                    if sub.block_of_char[char_perm[t]] not in hit_set:
                        raise RuntimeError(
                            f"covered blocks of block {block_index} are not "
                            "closed under conjugation"
                        )
    return covered


def inflation_correspondence(system: BlockSystem, action, qsystem: BlockSystem,
                             seed: int = 0) -> tuple:
    """Match quotient characters and simples with their inflations to the group."""
    if qsystem.context.field is not system.context.field:
        raise ValueError("quotient system must be built over the ambient field")
    group = system.group
    qclasses = qsystem.chartab.classes
    reps = system.chartab.classes.reps

    char_map = []
    for qrow in qsystem.chartab.rows:
        inflated = tuple(
            qrow[qclasses.class_of[action.image(rep)]] for rep in reps
        )
        matches = [
            i for i, row in enumerate(system.chartab.rows) if tuple(row) == inflated
        ]
        if len(matches) != 1:
            raise RuntimeError("inflated character does not match a unique row")
        char_map.append(matches[0])

    ibr_map = []
    for qmodule in qsystem.brauer.simples:
        mats = [qmodule.image(action.image(g)) for g in group.generators]
        lifted = GModule(group, system.context.field, mats)
        for j, simple in enumerate(system.brauer.simples):
            if simple.dim == lifted.dim and module_iso(simple, lifted, seed=seed):
                ibr_map.append(j)
                break
        else:
            raise RuntimeError("inflated simple module does not match any simple")
    return tuple(char_map), tuple(ibr_map)


def induced_brauer_values(system: BlockSystem, sub: BlockSystem, j: int) -> tuple:
    """Induce a subgroup Brauer character to the ambient regular classes."""
    fusion = class_fusion(system.chartab.classes, sub.chartab.classes)
    aclasses = system.chartab.classes
    sclasses = sub.chartab.classes
    aorder = system.group.order()
    sorder = sub.group.order()
    row = sub.brauer.rows[j]
    values = []
    for k in system.regular:
        cent = aorder // aclasses.sizes[k]
        acc = Cyc.zero(1)
        for pos, c in enumerate(sub.regular):
            if fusion[c] == k:
                acc = acc + row[pos] * Fraction(cent * sclasses.sizes[c], sorder)
        values.append(acc)
    return tuple(values)


def brauer_restriction_multiplicities(system: BlockSystem, sub: BlockSystem) -> tuple:
    """Decompose restricted ambient Brauer characters in the subgroup basis."""
    fusion = class_fusion(system.chartab.classes, sub.chartab.classes)
    targets = [
        [row[system.regular.index(fusion[c])] for c in sub.regular]
        for row in system.brauer.rows
    ]
    return _integral_expansion(
        sub.brauer.rows, targets, system.group.order(), system.chartab.exponent
    )


def brauer_orbit(system: BlockSystem, sub: BlockSystem, j: int) -> tuple:
    """Return the orbit of a subgroup Brauer character under ambient conjugation."""
    perms = _conjugation_row_perms(system, sub, sub.brauer.rows, sub.regular)
    return _orbit(j, perms)
