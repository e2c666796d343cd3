"""Tests for exact character table computation."""

import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from pblocks import chartab
from pblocks.chartab import (
    CharacterTable,
    character_table,
    class_fusion,
    class_gram,
    lifting_prime,
    restrict_row,
)
from pblocks.corpus import (
    DEFAULT_CORPUS,
    alternating_group,
    mathieu_group_11,
    projective_special_linear_2,
    projective_special_linear_2_7,
    special_linear_2_8,
)
from pblocks.cyclotomic import Cyc
from pblocks.errors import FusionInconsistent, LiftingPrimeNotFound
from pblocks.perm import ClassData, PermGroup, perm_from_cycles


def cyc_zero(conductor: int = 1) -> Cyc:
    """Return zero at a conductor, as a start for sums of values there."""
    return Cyc.rational(0, conductor)


def cyclic(n: int) -> PermGroup:
    """Return a cyclic group of order n as a single n-cycle."""
    return PermGroup(n, [tuple(range(1, n)) + (0,)])


def sym(n: int) -> PermGroup:
    """Return the symmetric group on n points."""
    gens = [perm_from_cycles(n, [(1, 2)]), perm_from_cycles(n, [tuple(range(1, n + 1))])]
    return PermGroup(n, gens)


def alt5() -> PermGroup:
    """Return the alternating group on 5 points."""
    return PermGroup(5, [perm_from_cycles(5, [(1, 2, 3, 4, 5)]), perm_from_cycles(5, [(3, 4, 5)])])


@pytest.fixture(scope="module")
def m11_table():
    return character_table(mathieu_group_11())


def oracle_gram(rows, others, classes):
    """Sum |C_k| chi(g_k) conj(psi(g_k)) / |G| one Cyc at a time."""
    order = sum(classes.sizes)
    out = []
    for chi in rows:
        line = []
        for psi in others:
            acc = cyc_zero(1)
            for k, size in enumerate(classes.sizes):
                acc = acc + chi[k] * psi[k].conj() * size
            total = acc.as_rational()
            line.append(None if total is None else total / order)
        out.append(tuple(line))
    return tuple(out)


def assert_gram_matches(rows, others, classes):
    gram = class_gram(rows, others, classes)
    assert gram == oracle_gram(rows, others, classes)
    assert all(x is None or type(x) is Fraction for line in gram for x in line)
    return gram


class TestLiftingPrime:
    def test_small_cases(self):
        assert lifting_prime(6, 6) == 7
        assert lifting_prime(60, 30) == 31
        assert lifting_prime(504, 126) == 127

    def test_bound_pushes_past_small_primes(self):
        # the prime must exceed twice the root of the order
        assert lifting_prime(10000, 2) > 201

    def test_cap_exhaustion(self):
        with pytest.raises(LiftingPrimeNotFound):
            lifting_prime(4, 999983)


class TestSmallTables:
    def test_trivial_group(self):
        tab = character_table(PermGroup(1, []))
        assert tab.degrees == (1,)
        assert tab.rows[0][0] == 1

    def test_order_two(self):
        tab = character_table(PermGroup(2, [(1, 0)]))
        assert tab.degrees == (1, 1)
        vals = sorted(v.as_rational() for row in tab.rows for v in row if v.as_rational() is not None)
        assert vals == [-1, 1, 1, 1]

    def test_sym3_exact_table(self):
        tab = character_table(sym(3))
        assert tab.classes.sizes == [1, 3, 2]
        assert tab.degrees == (1, 1, 2)
        expected = [(1, -1, 1), (1, 1, 1), (2, 0, -1)]
        for row, exp in zip(tab.rows, expected):
            assert all(v == x for v, x in zip(row, exp))

    def test_cyclic_four(self):
        tab = character_table(cyclic(4))
        assert tab.degrees == (1, 1, 1, 1)
        i4 = Cyc.root(4)
        gen_col = tab.classes.classes_of([(1, 2, 3, 0)])[0]
        col = [row[gen_col] for row in tab.rows]
        seen = {str(v) for v in col}
        assert len(seen) == 4
        total = cyc_zero(4)
        for v in col:
            total = total + v
        assert total == 0
        assert any(v == i4 for v in col)

    def test_cyclic_twelve(self):
        tab = character_table(cyclic(12))
        assert tab.degrees == tuple([1] * 12)
        for k in range(1, 12):
            total = cyc_zero(1)
            for row in tab.rows:
                total = total + row[k]
            assert total == 0


class TestClassicalTables:
    def test_sym4_by_class_signature(self):
        tab = character_table(sym(4))
        assert tab.degrees == (1, 1, 2, 3, 3)
        sig = [(o, s) for o, s in zip(tab.classes.orders, tab.classes.sizes)]
        assert sorted(sig) == [(1, 1), (2, 3), (2, 6), (3, 8), (4, 6)]
        # classical rows keyed by (order, size) of the column's class
        expected = {
            (1, (1, 1)): 1, (1, (2, 6)): None, (1, (3, 8)): 1, (1, (2, 3)): 1, (1, (4, 6)): None,
        }
        for row in tab.rows:
            assert all(v.as_rational() is not None for v in row)
        by_first = {}
        for d, row in zip(tab.degrees, tab.rows):
            key = tuple(row[k].as_rational() for k in range(len(sig)))
            by_first.setdefault(d, []).append(dict(zip(sig, key)))
        two = by_first[2][0]
        assert two[(1, 1)] == 2 and two[(2, 6)] == 0 and two[(3, 8)] == -1
        assert two[(2, 3)] == 2 and two[(4, 6)] == 0
        threes = sorted((r[(2, 6)], r[(4, 6)]) for r in by_first[3])
        assert threes == [(-1, 1), (1, -1)]
        for r in by_first[3]:
            assert r[(2, 3)] == -1 and r[(3, 8)] == 0

    def test_alt5_degrees_and_golden_values(self):
        tab = character_table(alt5())
        assert tab.degrees == (1, 3, 3, 4, 5)
        five_cols = [k for k, o in enumerate(tab.classes.orders) if o == 5]
        assert len(five_cols) == 2
        golden_a = 1 + Cyc.root(5) + Cyc.root(5, 4)
        golden_b = 1 + Cyc.root(5, 2) + Cyc.root(5, 3)
        for d, row in zip(tab.degrees, tab.rows):
            if d != 3:
                continue
            pair = [row[k] for k in five_cols]
            assert (pair[0] == golden_a and pair[1] == golden_b) or (
                pair[0] == golden_b and pair[1] == golden_a
            )

    def test_psl27_degrees_and_quadratic_values(self):
        tab = character_table(projective_special_linear_2_7())
        assert tab.group.order() == 168
        assert tab.degrees == (1, 3, 3, 6, 7, 8)
        seven_cols = [k for k, o in enumerate(tab.classes.orders) if o == 7]
        assert len(seven_cols) == 2
        quad = Cyc.root(7) + Cyc.root(7, 2) + Cyc.root(7, 4)
        hits = 0
        for d, row in zip(tab.degrees, tab.rows):
            if d == 3:
                hits += sum(1 for k in seven_cols if row[k] == quad)
        assert hits == 2

    def test_sl28_degrees(self):
        tab = character_table(special_linear_2_8())
        assert tab.group.order() == 504
        assert tab.prime == 127
        assert tab.degrees == (1, 7, 7, 7, 7, 8, 9, 9, 9)


class TestReach:
    @pytest.mark.parametrize("q, degrees", [
        (11, [1, 5, 5, 10, 10, 11, 12, 12]),
        (13, [1, 7, 7, 12, 12, 12, 13, 14, 14]),
        (16, [1] + [15] * 8 + [16] + [17] * 7),
    ])
    def test_psl2_degrees_are_the_closed_form(self, q, degrees):
        assert character_table(projective_special_linear_2(q)).degrees == tuple(degrees)


class TestClassMatricesRead:
    @pytest.mark.parametrize("make, built, total", [
        pytest.param(lambda: sym(7), 1, 15, id="S7"),
        pytest.param(mathieu_group_11, 6, 10, id="M11"),
    ])
    def test_table_builds_only_the_class_matrices_its_split_reads(self, make, built, total):
        G = make()
        character_table(G)
        kept = G._class_matrices
        assert len(kept) == total
        assert sum(M is not None for M in kept) == built


class TestMathieu11:
    """M11 against the ATLAS (Conway et al. 1985): the lift at element orders 8 and 11."""

    def test_degrees(self, m11_table):
        assert m11_table.degrees == (1, 10, 10, 10, 11, 16, 16, 44, 45, 55)

    def test_order_eight_values_of_the_non_real_tens(self, m11_table):
        tab = m11_table
        eights = [k for k, o in enumerate(tab.classes.orders) if o == 8]
        assert len(eights) == 2
        i_root2 = Cyc.root(8) + Cyc.root(8, 3)
        tens = [row for d, row in zip(tab.degrees, tab.rows) if d == 10]
        non_real = [row for row in tens if any(v != v.conj() for v in row)]
        assert len(non_real) == 2
        pairs = [tuple(row[k] for k in eights) for row in non_real]
        plus, minus = (i_root2, -i_root2), (-i_root2, i_root2)
        assert pairs in ([plus, minus], [minus, plus])
        real = next(row for row in tens if row not in non_real)
        assert all(real[k] == 0 for k in eights)

    def test_order_eleven_values_of_the_sixteens(self, m11_table):
        tab = m11_table
        elevens = [k for k, o in enumerate(tab.classes.orders) if o == 11]
        assert len(elevens) == 2
        b11 = cyc_zero(11)
        for s in sorted({x * x % 11 for x in range(1, 11)}):
            b11 = b11 + Cyc.root(11, s)
        # b11 = (-1 + sqrt(-11)) / 2
        assert b11 + b11.conj() == -1 and b11 * b11.conj() == 3
        sixteens = [row for d, row in zip(tab.degrees, tab.rows) if d == 16]
        assert len(sixteens) == 2
        pairs = [tuple(row[k] for k in elevens) for row in sixteens]
        plus, minus = (b11, b11.conj()), (b11.conj(), b11)
        assert pairs in ([plus, minus], [minus, plus])
        assert all(row[k].conductor == 11 for row in sixteens for k in elevens)


class TestClassGram:
    @pytest.mark.parametrize("entry", DEFAULT_CORPUS, ids=lambda entry: entry.name)
    def test_corpus_tables_against_the_cyc_sum(self, entry, m11_table):
        tab = m11_table if entry.name == "M11" else character_table(entry.build())
        gram = assert_gram_matches(tab.rows, tab.rows, tab.classes)
        assert gram == tuple(
            tuple(1 if i == j else 0 for j in range(len(tab))) for i in range(len(tab))
        )

    def test_restricted_rows_against_subgroup_rows(self):
        g, h = sym(4), alternating_group(4)
        tab, sub = character_table(g), character_table(h)
        fusion = class_fusion(tab.classes, sub.classes)
        restricted = [restrict_row(row, fusion) for row in tab.rows]
        gram = assert_gram_matches(restricted, sub.rows, sub.classes)
        assert len(gram) == 5 and all(len(line) == 4 for line in gram)
        # the degree 2 character of S4 restricts to the two non-real linear characters
        # of A4; the others stay irreducible
        assert [sum(line) for line in gram] == [1, 1, 2, 1, 1]

    def test_class_functions_with_denominators(self):
        tab = character_table(alt5())
        thirds = [[v * Fraction(1, 3) for v in row] for row in tab.rows]
        gram = assert_gram_matches(thirds, tab.rows, tab.classes)
        assert gram[1][1] == Fraction(1, 3) and gram[1][2] == 0

    def test_irrational_entry_is_none(self):
        tab = character_table(alt5())
        five = tab.classes.orders.index(5)
        indicator = [Cyc.rational(1 if k == five else 0) for k in range(len(tab.classes))]
        gram = assert_gram_matches(tab.rows, [indicator], tab.classes)
        assert gram[0][0] == Fraction(tab.classes.sizes[five], 60)
        assert gram[1][0] is None and gram[2][0] is None

    def test_large_coordinates_take_exact_integers(self):
        # 2^40 times each value squares past the int64 bound
        tab = character_table(projective_special_linear_2_7())
        big = [[v * 2 ** 40 for v in row] for row in tab.rows]
        gram = assert_gram_matches(big, big, tab.classes)
        assert gram[0][0] == 2 ** 80 and gram[1][2] == 0


class TestConsistency:
    def test_second_orthogonality_sym4(self):
        tab = character_table(sym(4))
        n = len(tab.classes)
        order = tab.group.order()
        for k in range(n):
            for l in range(n):
                total = cyc_zero(1)
                for row in tab.rows:
                    total = total + row[k] * row[l].conj()
                if k == l:
                    assert total == order // tab.classes.sizes[k]
                else:
                    assert total == 0

    def test_two_lifting_primes_agree(self, monkeypatch):
        t1 = character_table(alt5())
        assert t1.prime == 31
        monkeypatch.setattr(chartab, "lifting_prime", lambda order, exponent: 61)
        t2 = character_table(alt5())
        assert t2.prime == 61
        assert t1.degrees == t2.degrees
        for r1, r2 in zip(t1.rows, t2.rows):
            assert all(a == b for a, b in zip(r1, r2))

    def test_table_makes_no_random_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("character_table created a random generator")

        monkeypatch.setattr(random, "Random", refuse)
        assert character_table(sym(5), seed=3).degrees == (1, 1, 4, 4, 5, 5, 6)
        assert character_table(projective_special_linear_2_7()).degrees == (1, 3, 3, 6, 7, 8)


class TestTableKeptOnGroup:
    def test_same_group_same_table(self):
        g = sym(4)
        assert character_table(g) is character_table(g, seed=5)

    def test_rebuilt_group_gets_its_own_equal_table(self):
        t1 = character_table(sym(4))
        t2 = character_table(sym(4), seed=99)
        assert t1 is not t2
        assert t1.degrees == t2.degrees
        for r1, r2 in zip(t1.rows, t2.rows):
            assert all(a == b for a, b in zip(r1, r2))

    def test_table_does_not_keep_its_group_alive(self):
        g = alt5()
        assert character_table(g).group is g
        group = weakref.ref(g)
        del g
        gc.collect()
        assert group() is None


class TestFusion:
    def test_alt4_into_sym4(self):
        g = sym(4)
        h = PermGroup(4, [perm_from_cycles(4, [(1, 2), (3, 4)]), perm_from_cycles(4, [(1, 2, 3)])])
        assert h.order() == 12
        gc = g.conjugacy_classes()
        hc = h.conjugacy_classes()
        fusion = class_fusion(gc, hc)
        assert len(fusion) == 4
        assert fusion[0] == 0
        sig = {k: (o, s) for k, (o, s) in enumerate(zip(gc.orders, gc.sizes))}
        images = sorted(sig[c] for c in fusion)
        assert images == [(1, 1), (2, 3), (3, 8), (3, 8)]

    def test_restriction_of_degree_two(self):
        g = sym(4)
        h = PermGroup(4, [perm_from_cycles(4, [(1, 2), (3, 4)]), perm_from_cycles(4, [(1, 2, 3)])])
        tab = character_table(g)
        fusion = class_fusion(g.conjugacy_classes(), h.conjugacy_classes())
        row = next(r for d, r in zip(tab.degrees, tab.rows) if d == 2)
        restricted = restrict_row(row, fusion)
        ints = sorted(v.as_rational() for v in restricted)
        assert ints == [-1, -1, 2, 2]

    def test_inconsistent_fusion_detected(self):
        g = sym(3)
        gc = g.conjugacy_classes()
        fake = ClassData(
            [gc.reps[0], gc.reps[1]],
            [1, 5],
            [1, 2],
            np.minimum(gc.labels, 1),
            gc.table,
        )
        with pytest.raises(FusionInconsistent):
            class_fusion(gc, fake)
