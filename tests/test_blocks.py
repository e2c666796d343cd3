"""Tests for block decomposition and block invariants."""

from fractions import Fraction

import pytest

from pblocks.blocks import (
    Block,
    BlockSystem,
    block_orbit,
    block_system,
    brauer_orbit,
    brauer_restriction_multiplicities,
    check_conjectures,
    covered_blocks,
    induced_block,
    induced_brauer_values,
    inflation_correspondence,
)
from pblocks.errors import CompositeCharacteristic
from pblocks.ffield import field_create
from pblocks.intmath import int_det as _int_det
from pblocks.modrep import ReductionContext
from pblocks.perm import (
    PermGroup,
    abelian_p_invariants,
    perm_from_cycles,
    perm_mul,
    perm_order,
)


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
        qsys = block_system(
            quotient, 2, context=ReductionContext(quotient, 2, field=gsys.context.field)
        )
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

    def test_field_mismatch_rejected(self):
        group = sl23()
        gsys = block_system(group, 2)
        center = [
            g
            for g in group.elements()
            if all(perm_mul(g, h) == perm_mul(h, g) for h in group.generators)
        ]
        action = group.coset_action(group.subgroup(center))
        big = ReductionContext(action.quotient, 2, field=field_create(2, 4))
        qsys = block_system(action.quotient, 2, context=big)
        with pytest.raises(ValueError):
            inflation_correspondence(gsys, action, qsys)


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
        assert values[0].as_int() == 2


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
