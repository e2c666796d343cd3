"""Tests for block decomposition and block invariants."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from pblocks import blocks
from pblocks.blocks import (
    Block,
    BlockSystem,
    _check_central_characters,
    _integral_expansion,
    block_orbit,
    block_system,
    brauer_orbit,
    brauer_restriction_multiplicities,
    check_conjectures,
    covered_blocks,
    induced_block,
    inflation_correspondence,
)
from pblocks.chartab import character_table, class_fusion, lifting_prime
from pblocks.corpus import corpus_entry
from pblocks.cyclotomic import Cyc, cyc_to_field
from pblocks.errors import CompositeCharacteristic, NonIntegralSolution, ReductionInconsistent
from pblocks.ffield import field_create
from pblocks.intmath import factorint
from pblocks.intmath import int_det as _int_det
from pblocks.linalg import Mat, mat_rank
from pblocks.modrep import GModule, brauer_table, module_iso
from pblocks.perm import (
    PermGroup,
    abelian_p_invariants,
    perm_from_cycles,
    perm_mul,
    perm_order,
)


def cyc_zero(conductor: int = 1) -> Cyc:
    """Return zero at a conductor, as a start for sums of values there."""
    return Cyc.rational(0, conductor)


def grp(degree, *cycles):
    return PermGroup(degree, [perm_from_cycles(degree, c) for c in cycles])


def sym(n):
    return PermGroup(n, [perm_from_cycles(n, [(1, 2)]), perm_from_cycles(n, [tuple(range(1, n + 1))])])


def alt4():
    return grp(4, [(1, 2), (3, 4)], [(1, 2, 3)])


def alt5():
    return grp(5, [(1, 2, 3, 4, 5)], [(3, 4, 5)])


def cyc3():
    return grp(3, [(1, 2, 3)])


def sl23():
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    loc = {v: i for i, v in enumerate(vecs)}

    def act(mat):
        out = []
        for (a, b) in vecs:
            img = ((mat[0][0] * a + mat[1][0] * b) % 3, (mat[0][1] * a + mat[1][1] * b) % 3)
            out.append(loc[img])
        return tuple(out)

    return PermGroup(8, [act([[1, 1], [0, 1]]), act([[0, 2], [1, 0]])])


def sl28():
    F = field_create(2, 3)
    points = list(range(8)) + [None]
    loc = points.index
    add_one = [loc(F.add(z, 1)) if z is not None else loc(None) for z in points]
    alpha2 = F.mul(F.primitive, F.primitive)
    scale = [loc(F.mul(z, alpha2)) if z is not None else loc(None) for z in points]
    inv = []
    for z in points:
        if z is None:
            inv.append(loc(0))
        elif z == 0:
            inv.append(loc(None))
        else:
            inv.append(loc(F.inv(z)))
    return PermGroup(9, [tuple(add_one), tuple(scale), tuple(inv)])


def conjectures_hold(block):
    report = check_conjectures(block)
    return (
        report["tau_bound_holds"]
        and report["equality_iff_one_simple"]
        and report["simple_count_bound_holds"]
        and report["strict_tau_bound_holds"]
    )


class TestIntegerDeterminant:
    def test_small_matrices(self):
        assert _int_det([[5]]) == 5
        assert _int_det([[1, 2], [3, 4]]) == -2
        assert _int_det([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) == 4
        assert _int_det([[0, 1], [1, 0]]) == -1
        assert _int_det([[1, 2], [2, 4]]) == 0

    def test_matches_cofactor_expansion(self):
        rows = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]]

        def cofactor(m):
            if len(m) == 1:
                return m[0][0]
            total = 0
            for j in range(len(m)):
                minor = [row[:j] + row[j + 1:] for row in m[1:]]
                total += (-1) ** j * m[0][j] * cofactor(minor)
            return total

        assert _int_det(rows) == cofactor(rows)


class TestBlockPartition:
    def test_composite_characteristic_rejected(self):
        with pytest.raises(CompositeCharacteristic):
            block_system(sym(3), 6)

    def test_alt4_mod2(self):
        system = block_system(alt4(), 2)
        assert len(system) == 1
        block = system.principal_block()
        assert block.principal
        assert block.degrees == (1, 1, 1, 3)
        assert block.ibr_degrees == (1, 1, 1)
        assert system.decomposition == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
        assert block.cartan == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
        assert block.dim == 12
        assert block.tau == 4
        assert block.defect == 2
        assert block.sectional == 2
        assert abelian_p_invariants(block.defect_group, 2) == [1, 1]

    def test_sym4_mod2(self):
        system = block_system(sym(4), 2)
        assert len(system) == 1
        block = system.principal_block()
        assert block.degrees == (1, 1, 2, 3, 3)
        assert block.cartan == ((4, 2), (2, 3))
        assert block.tau == Fraction(24, 5)
        assert block.defect == 3
        assert block.sectional == 2
        dgroup = block.defect_group
        assert dgroup.order() == 8
        involutions = [g for g in dgroup.elements() if perm_order(g) == 2]
        assert len(involutions) == 5

    def test_sym4_mod3(self):
        system = block_system(sym(4), 3)
        assert len(system) == 3
        principal = system.principal_block()
        assert principal.degrees == (1, 1, 2)
        assert principal.cartan == ((2, 1), (1, 2))
        assert principal.tau == 3
        assert principal.defect == 1
        assert principal.sectional == 1
        for block in system.blocks[1:]:
            assert block.degrees == (3,)
            assert block.defect == 0
            assert block.cartan == ((1,),)
            assert block.tau == 1

    def test_alt5_mod2(self):
        system = block_system(alt5(), 2)
        assert len(system) == 2
        principal = system.principal_block()
        assert principal.degrees == (1, 3, 3, 5)
        assert principal.cartan == ((4, 2, 2), (2, 2, 1), (2, 1, 2))
        assert principal.tau == Fraction(44, 9)
        assert principal.dim == 44
        assert abelian_p_invariants(principal.defect_group, 2) == [1, 1]
        other = system.blocks[1]
        assert other.degrees == (4,)
        assert other.defect == 0

    def test_alt5_mod5(self):
        system = block_system(alt5(), 5)
        assert len(system) == 2
        principal = system.principal_block()
        assert len(principal.chars) == 4
        assert principal.ibr_degrees == (1, 3)
        assert principal.tau == Fraction(7, 2)
        assert principal.defect == 1
        assert principal.sectional == 1
        assert system.blocks[1].degrees == (5,)

    def test_sl23_mod2(self):
        system = block_system(sl23(), 2)
        assert len(system) == 1
        block = system.principal_block()
        assert sorted(block.degrees) == [1, 1, 1, 2, 2, 2, 3]
        assert block.cartan == ((4, 2, 2), (2, 4, 2), (2, 2, 4))
        assert block.tau == 8
        assert block.defect == 3
        assert block.sectional == 2
        dgroup = block.defect_group
        assert dgroup.order() == 8
        involutions = [g for g in dgroup.elements() if perm_order(g) == 2]
        assert len(involutions) == 1

    def test_cyclic2_equality_case(self):
        system = block_system(grp(2, [(1, 2)]), 2)
        assert len(system) == 1
        block = system.principal_block()
        assert block.cartan == ((2,),)
        assert block.tau == 2
        report = check_conjectures(block)
        assert report["tau_equality"]
        assert report["equality_iff_one_simple"]

    def test_sym3_mod2(self):
        system = block_system(sym(3), 2)
        assert len(system) == 2
        principal = system.principal_block()
        assert principal.degrees == (1, 1)
        assert len(principal.ibrs) == 1
        assert principal.tau == 2
        other = system.blocks[1]
        assert other.degrees == (2,)
        assert other.tau == 1
        assert other.defect == 0

    def test_cyclic12_mod2(self):
        system = block_system(grp(7, [(1, 2, 3), (4, 5, 6, 7)]), 2)
        assert len(system) == 3
        for block in system.blocks:
            assert len(block.chars) == 4
            assert block.cartan == ((4,),)
            assert block.tau == 4
            assert block.defect == 2
            assert abelian_p_invariants(block.defect_group, 2) == [2]
            assert block.sectional == 1

    def test_sl28_mod2(self):
        system = block_system(sl28(), 2)
        assert len(system) == 2
        principal = system.principal_block()
        assert len(principal.chars) == 8
        assert principal.ibr_degrees == (1, 2, 2, 2, 4, 4, 4)
        assert principal.tau == Fraction(440, 61)
        assert principal.defect == 3
        assert principal.sectional == 3
        assert abelian_p_invariants(principal.defect_group, 2) == [1, 1, 1]
        other = system.blocks[1]
        assert other.degrees == (8,)
        assert other.defect == 0

    def test_degree_identity_through_decomposition(self):
        system = block_system(sym(4), 3)
        dims = system.brauer.dims
        for i, degree in enumerate(system.chartab.degrees):
            assert degree == sum(
                system.decomposition[i][j] * dims[j] for j in range(len(dims))
            )

    def test_principal_lambda_is_class_size_residue(self):
        system = block_system(sym(4), 2)
        sizes = system.chartab.classes.sizes
        assert system.principal_block().lambda_row == tuple(s % 2 for s in sizes)

    def test_partition_is_exhaustive_and_disjoint(self):
        system = block_system(sym(5), 5)
        char_union = sorted(i for b in system.blocks for i in b.chars)
        assert char_union == list(range(len(system.chartab.rows)))
        ibr_union = sorted(j for b in system.blocks for j in b.ibrs)
        assert ibr_union == list(range(len(system.brauer.rows)))

    def test_block_count_over_primes(self):
        group = sym(5)
        assert len(block_system(group, 2)) == 2
        assert len(block_system(group, 3)) == 3
        assert len(block_system(group, 5)) == 3


class TestCentralCharacterCheck:
    def test_check_makes_no_random_draw(self, monkeypatch):
        system = block_system(sym(5), 3)
        lambdas = [block.lambda_row for block in system.blocks]

        def refuse(*args, **kwargs):
            raise AssertionError("the central character check created a random generator")

        monkeypatch.setattr(random, "Random", refuse)
        _check_central_characters(system.group, lambdas, system.brauer.context.field)

    def test_every_altered_entry_is_caught(self):
        system = block_system(sym(5), 3)
        field = system.brauer.context.field
        lambdas = [block.lambda_row for block in system.blocks]
        for b, lam in enumerate(lambdas):
            for k in range(len(lam)):
                altered = list(lam)
                altered[k] = field.add(altered[k], 1)
                bad = lambdas[:b] + [tuple(altered)] + lambdas[b + 1:]
                with pytest.raises(ReductionInconsistent):
                    _check_central_characters(system.group, bad, field)


class TestSolvingPrime:
    # |det Phi|^2 det C is the product of the p-regular centralizer orders,
    # so the Brauer table Phi is invertible modulo any prime not dividing |G|
    @pytest.mark.parametrize("name", ["A4", "SL(2,3)", "S4", "A5", "PSL(2,7)"])
    def test_brauer_table_has_full_rank_at_the_lifting_prime(self, name):
        group = corpus_entry(name).build()
        exponent = group.exponent()
        F = field_create(lifting_prime(group.order(), exponent))
        z = F.root_of_unity(exponent)
        for p in factorint(group.order()):
            rows = brauer_table(group, p).rows
            reduced = Mat(F, [[cyc_to_field(v, F, z, exponent) for v in row] for row in rows])
            assert mat_rank(reduced) == len(rows)

    def test_expansion_asks_for_one_prime(self, monkeypatch):
        group = alt5()
        tab = character_table(group)
        btab = brauer_table(group, 2)
        calls = []

        def counting(order, exponent):
            calls.append((order, exponent))
            return lifting_prime(order, exponent)

        monkeypatch.setattr(blocks, "lifting_prime", counting)
        targets = [[row[k] for k in btab.regular] for row in tab.rows]
        coeffs = _integral_expansion(btab.rows, targets, group.order(), tab.exponent)
        assert calls == [(60, 30)]
        assert [sum(c * d for c, d in zip(row, btab.dims)) for row in coeffs] == list(tab.degrees)

    def test_expansion_checks_the_candidate_exactly(self):
        # r + 1 is 1 modulo r, so the solve returns coefficient 1 and only the exact check fails
        r = lifting_prime(12, 12)
        targets = [[Cyc.rational(1)], [Cyc.rational(r + 1)]]
        with pytest.raises(NonIntegralSolution, match="row 1 "):
            _integral_expansion([[Cyc.rational(1)]], targets, 12, 12)

    def test_expansion_over_mixed_conductors(self):
        w, i = Cyc.root(3), Cyc.root(4)
        one = Cyc.rational(1)
        basis = [[one, one, one], [one, w, w * w], [Cyc.rational(1, 4), i, Cyc.rational(-1)]]
        want = ((2, 1, 0), (0, 1, 3), (1, 2, 5))
        targets = [
            [sum((c * row[t] for c, row in zip(coeffs, basis)), cyc_zero(12)) for t in range(3)]
            for coeffs in want
        ]
        assert {v.conductor for row in basis + targets for v in row} == {1, 3, 4, 12}
        assert _integral_expansion(basis, targets, 12, 12) == want


class TestConjectureChecks:
    def test_defect_zero_report(self):
        system = block_system(sym(3), 2)
        report = check_conjectures(system.blocks[1])
        assert report["tau"] == 1
        assert report["l"] == 1
        assert report["defect_group_order"] == 1
        assert report["tau_equality"]
        assert report["strict_tau_bound_holds"]

    def test_bounds_across_sample_groups(self):
        cases = [
            (sym(3), (2, 3)),
            (alt4(), (2, 3)),
            (sym(4), (2, 3)),
            (alt5(), (2, 3, 5)),
            (sl23(), (2, 3)),
        ]
        for group, primes in cases:
            for p in primes:
                system = block_system(group, p)
                for block in system.blocks:
                    assert conjectures_hold(block), (group.order(), p, block.index)

    def test_strict_bound_values(self):
        system = block_system(sym(4), 2)
        block = system.principal_block()
        report = check_conjectures(block)
        assert report["tau"] == Fraction(24, 5)
        assert report["tau_bound_holds"]
        assert not report["tau_equality"]
        assert report["simple_count_bound_holds"]
        assert block.tau < 2**block.sectional * 2**block.defect


class TestCovering:
    def test_sym4_alt4_mod3(self):
        gsys = block_system(sym(4), 3)
        nsys = block_system(alt4(), 3)
        covering = covered_blocks(gsys, nsys)
        assert covering[0] == (0,)
        assert gsys.principal_block().tau == nsys.principal_block().tau == 3

    def test_sym4_alt4_mod2_single_cover(self):
        gsys = block_system(sym(4), 2)
        nsys = block_system(alt4(), 2)
        covering = covered_blocks(gsys, nsys)
        assert covering == {0: (0,)}

    def test_product_ratio_inequality(self):
        gsys = block_system(sym(4), 2)
        nsys = block_system(alt4(), 2)
        b = gsys.principal_block()
        c = nsys.principal_block()
        sylow = b.defect_group
        intersection = [g for g in sylow.elements() if nsys.group.contains(g)]
        assert sylow.order() * nsys.group.order() == 24 * len(intersection)
        lhs = b.tau / (2**b.sectional * 2**b.defect)
        rhs = c.tau / (2**c.sectional * 2**c.defect)
        assert lhs == Fraction(3, 20)
        assert rhs == Fraction(1, 4)
        assert lhs <= rhs

    def test_alt5_covering_by_sym5(self):
        gsys = block_system(sym(5), 2)
        nsys = block_system(alt5(), 2)
        covering = covered_blocks(gsys, nsys)
        assert covering[0] == (0,)
        union = sorted(set(i for hit in covering.values() for i in hit))
        assert union == [0, 1]


class TestInducedBlocks:
    def test_defect_zero_correspondence(self):
        asys = block_system(sym(3), 2)
        ssys = block_system(cyc3(), 2)
        assert len(ssys) == 3
        nontrivial = [b for b in ssys.blocks if not b.principal]
        results = set()
        for block in nontrivial:
            target, values = induced_block(asys, ssys, block)
            assert values == (1, 0, 1)
            assert target is not None
            assert target.defect == 0
            assert target.tau == block.tau == 1
            results.add(target.index)
        assert len(results) == 1

    def test_undefined_induction(self):
        asys = block_system(sym(3), 2)
        ssys = block_system(cyc3(), 2)
        target, values = induced_block(asys, ssys, ssys.principal_block())
        assert target is None
        assert values == (1, 0, 0)

    def test_sylow_normalizer_style_identity(self):
        asys = block_system(sym(4), 3)
        ssys = block_system(alt4(), 3)
        target, _ = induced_block(asys, ssys, ssys.principal_block())
        assert target is not None
        assert target.principal


class TestInflation:
    def test_center_quotient_cartan_scaling(self):
        group = sl23()
        gsys = block_system(group, 2)
        center = [
            g
            for g in group.elements()
            if all(perm_mul(g, h) == perm_mul(h, g) for h in group.generators)
        ]
        Z = group.subgroup(center)
        assert Z.order() == 2
        action = group.coset_action(Z)
        quotient = action.quotient
        assert quotient.order() == 12
        qsys = block_system(quotient, 2)
        char_map, ibr_map = inflation_correspondence(gsys, action, qsys)
        for qi, gi in enumerate(char_map):
            assert qsys.chartab.degrees[qi] == gsys.chartab.degrees[gi]
        gblock = gsys.principal_block()
        qblock = qsys.principal_block()
        for a, qa in enumerate(qblock.ibrs):
            for b, qb in enumerate(qblock.ibrs):
                ga = gblock.ibrs.index(ibr_map[qa])
                gb = gblock.ibrs.index(ibr_map[qb])
                assert gblock.cartan[ga][gb] == Z.order() * qblock.cartan[a][b]
        gratio = gblock.tau / (2**gblock.sectional * 2**gblock.defect)
        qratio = qblock.tau / (2**qblock.sectional * 2**qblock.defect)
        assert gratio == qratio == Fraction(1, 4)

    def test_ibr_map_agrees_with_module_isomorphism(self):
        group = sl23()
        gsys = block_system(group, 2)
        center = [
            g
            for g in group.elements()
            if all(perm_mul(g, h) == perm_mul(h, g) for h in group.generators)
        ]
        action = group.coset_action(group.subgroup(center))
        qsys = block_system(action.quotient, 2)
        _, ibr_map = inflation_correspondence(gsys, action, qsys)
        assert sorted(ibr_map) == list(range(len(gsys.brauer.simples)))
        for qj, j in enumerate(ibr_map):
            qmodule = qsys.brauer.simples[qj]
            lifted = GModule(
                group, gsys.brauer.context.field,
                [qmodule.image(action.image(g)) for g in group.generators],
            )
            for other, simple in enumerate(gsys.brauer.simples):
                assert (module_iso(simple, lifted) is not None) == (other == j)

    def test_field_mismatch_rejected(self):
        # A5 at p = 2 is over GF(16), the quotient of SL(2,3) by its centre over GF(4)
        group = sl23()
        center = [
            g
            for g in group.elements()
            if all(perm_mul(g, h) == perm_mul(h, g) for h in group.generators)
        ]
        action = group.coset_action(group.subgroup(center))
        qsys = block_system(action.quotient, 2)
        other = block_system(alt5(), 2)
        assert (other.brauer.context.field.q, qsys.brauer.context.field.q) == (16, 4)
        with pytest.raises(ValueError):
            inflation_correspondence(other, action, qsys)


def induced_brauer_values(system, sub, j: int) -> tuple:
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
        acc = cyc_zero(1)
        for pos, c in enumerate(sub.regular):
            if fusion[c] == k:
                acc = acc + row[pos] * Fraction(cent * sclasses.sizes[c], sorder)
        values.append(acc)
    return tuple(values)


class TestBrauerInduction:
    def test_linear_orbit_induces_simple(self):
        asys = block_system(sym(3), 2)
        ssys = block_system(cyc3(), 2)
        nontrivial = [
            j for j, row in enumerate(ssys.brauer.rows) if any(v != 1 for v in row)
        ]
        assert len(nontrivial) == 2
        j = nontrivial[0]
        orbit = brauer_orbit(asys, ssys, j)
        assert set(orbit) == set(nontrivial)
        values = induced_brauer_values(asys, ssys, j)
        matches = [
            t for t, row in enumerate(asys.brauer.rows) if tuple(row) == values
        ]
        assert len(matches) == 1
        assert asys.brauer.dims[matches[0]] == 2

    def test_stable_character_induces_reducibly(self):
        asys = block_system(sym(3), 2)
        ssys = block_system(cyc3(), 2)
        trivial = next(
            j for j, row in enumerate(ssys.brauer.rows) if all(v == 1 for v in row)
        )
        assert brauer_orbit(asys, ssys, trivial) == (trivial,)
        values = induced_brauer_values(asys, ssys, trivial)
        assert not any(tuple(row) == values for row in asys.brauer.rows)
        assert values[0].as_rational() == 2


class TestCliffordIdentity:
    def test_sym3_cyc3_mod3(self):
        asys = block_system(sym(3), 3)
        ssys = block_system(cyc3(), 3)
        mult = brauer_restriction_multiplicities(asys, ssys)
        assert mult == ((1,), (1,))
        over = [i for i, row in enumerate(mult) if row[0] > 0]
        lhs = sum(asys.brauer.dims[i] ** 2 for i in over)
        orbit = brauer_orbit(asys, ssys, 0)
        rhs = len(orbit) * 2 * ssys.brauer.dims[0] ** 2
        assert lhs == rhs == 2

    def test_sym4_alt4_mod3(self):
        asys = block_system(sym(4), 3)
        ssys = block_system(alt4(), 3)
        mult = brauer_restriction_multiplicities(asys, ssys)
        assert ssys.brauer.dims == (1, 3)
        for phi in range(2):
            over = [i for i, row in enumerate(mult) if row[phi] > 0]
            lhs = sum(asys.brauer.dims[i] ** 2 for i in over)
            orbit = brauer_orbit(asys, ssys, phi)
            rhs = len(orbit) * 2 * ssys.brauer.dims[phi] ** 2
            assert lhs == rhs

    def test_restriction_reproduces_degrees(self):
        asys = block_system(sym(4), 2)
        ssys = block_system(alt4(), 2)
        mult = brauer_restriction_multiplicities(asys, ssys)
        for i, dim in enumerate(asys.brauer.dims):
            assert dim == sum(
                mult[i][j] * ssys.brauer.dims[j] for j in range(len(ssys.brauer.dims))
            )


class TestBlockOrbits:
    def test_cyc3_blocks_under_sym3(self):
        asys = block_system(sym(3), 2)
        ssys = block_system(cyc3(), 2)
        assert block_orbit(asys, ssys, 0) == (0,)
        assert block_orbit(asys, ssys, 1) == (1, 2)
        assert block_orbit(asys, ssys, 2) == (1, 2)

    def test_normal_sylow_blocks_fixed(self):
        asys = block_system(sym(4), 2)
        ssys = block_system(alt4(), 2)
        assert block_orbit(asys, ssys, 0) == (0,)


class TestPickling:
    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_round_trips(self, clone):
        value = Cyc(4, [Fraction(1, 2), Fraction(3, 2)])
        assert clone(value) == value
        assert clone(value).coords == (Fraction(1, 2), Fraction(3, 2))
        tab = character_table(alt5())
        assert clone(tab).rows == tab.rows
        system = block_system(alt5(), 2)
        assert [b.cartan for b in clone(system).blocks] == [b.cartan for b in system.blocks]


class TestDeterminism:
    def test_repeat_run_identical(self):
        first = block_system(sym(4), 2)
        second = block_system(sym(4), 2)
        assert first.decomposition == second.decomposition
        for a, b in zip(first.blocks, second.blocks):
            assert a.chars == b.chars
            assert a.cartan == b.cartan
            assert a.lambda_row == b.lambda_row

    def test_seed_independent_invariants(self):
        first = block_system(alt5(), 2, seed=0)
        second = block_system(alt5(), 2, seed=1234)
        assert first.decomposition == second.decomposition
        for a, b in zip(first.blocks, second.blocks):
            assert a.cartan == b.cartan
            assert a.tau == b.tau
            assert a.defect == b.defect
