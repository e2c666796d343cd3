"""Tests for the built-in corpus, scenarios, and Cartan fixtures."""

import pytest

from pblocks.corpus import (
    DEFAULT_CORPUS,
    DEFAULT_SCENARIOS,
    FIXTURES,
    CartanFixture,
    CorpusEntry,
    alternating_group,
    corpus_entry,
    cyclic_group,
    dihedral_group,
    fixture,
    klein_four_group,
    mathieu_group_11,
    prime_factors,
    quaternion_group,
    special_linear_2_3,
    special_linear_2_8,
    projective_special_linear_2_7,
    symmetric_group,
    verify_normal,
)
from pblocks.errors import NotNormal, ShapeMismatch
from pblocks.harness import SCENARIO_KINDS
from pblocks.perm import PermGroup, abelian_p_invariants, perm_from_cycles, perm_order

EXPECTED_ORDERS = {
    "S3": 6,
    "C2xC2": 4,
    "C12": 12,
    "D8": 8,
    "Q8": 8,
    "A4": 12,
    "SL(2,3)": 24,
    "S4": 24,
    "A5": 60,
    "S5": 120,
    "PSL(2,7)": 168,
    "SL(2,8)": 504,
    "M11": 7920,
}


class TestPrimeFactors:
    def test_small_values(self):
        assert prime_factors(1) == ()
        assert prime_factors(12) == (2, 3)
        assert prime_factors(7920) == (2, 3, 5, 11)
        assert prime_factors(97) == (97,)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_factors(0)


class TestBuilders:
    def test_symmetric_orders(self):
        assert symmetric_group(3).order() == 6
        assert symmetric_group(5).order() == 120

    def test_alternating_orders(self):
        assert alternating_group(4).order() == 12
        assert alternating_group(5).order() == 60

    def test_cyclic_group_shape(self):
        group = cyclic_group(12)
        assert group.degree == 7
        assert group.order() == 12
        assert group.is_abelian()

    def test_klein_four(self):
        group = klein_four_group()
        assert group.order() == 4
        assert abelian_p_invariants(group, 2) == [1, 1]

    def test_dihedral(self):
        group = dihedral_group(4)
        assert group.order() == 8
        assert not group.is_abelian()

    def test_quaternion_unique_involution(self):
        group = quaternion_group()
        assert group.order() == 8
        assert not group.is_abelian()
        involutions = [x for x in group.elements() if perm_order(x) == 2]
        assert len(involutions) == 1

    def test_special_linear_2_3_unique_involution(self):
        group = special_linear_2_3()
        assert group.order() == 24
        involutions = [x for x in group.elements() if perm_order(x) == 2]
        assert len(involutions) == 1

    def test_projective_special_linear_class_count(self):
        group = projective_special_linear_2_7()
        assert group.order() == 168
        assert len(group.conjugacy_classes().reps) == 6

    def test_special_linear_2_8_class_count(self):
        group = special_linear_2_8()
        assert group.order() == 504
        assert len(group.conjugacy_classes().reps) == 9

    def test_mathieu_order(self):
        assert mathieu_group_11().order() == 7920

    def test_builder_bad_arguments(self):
        with pytest.raises(ValueError):
            symmetric_group(1)
        with pytest.raises(ValueError):
            cyclic_group(1)
        with pytest.raises(ValueError):
            dihedral_group(2)


class TestDefaultCorpus:
    def test_names_and_orders(self):
        assert [entry.name for entry in DEFAULT_CORPUS] == list(EXPECTED_ORDERS)
        for entry in DEFAULT_CORPUS:
            assert entry.build().order() == EXPECTED_ORDERS[entry.name]

    def test_large_flags(self):
        large = [entry.name for entry in DEFAULT_CORPUS if entry.large]
        assert large == ["M11"]

    def test_target_primes(self):
        assert corpus_entry("S3").target_primes() == (2, 3)
        assert corpus_entry("A5").target_primes() == (2, 3, 5)
        assert corpus_entry("M11").target_primes() == (2,)

    def test_lookup_unknown(self):
        with pytest.raises(ValueError):
            corpus_entry("S6")

    def test_entries_are_fresh(self):
        entry = corpus_entry("A4")
        assert entry.build() is not entry.build()

    def test_custom_entry_prime_override(self):
        entry = CorpusEntry("S3-odd", lambda: symmetric_group(3), primes=(3,))
        assert entry.target_primes() == (3,)


class TestNormality:
    def test_alternating_inside_symmetric(self):
        verify_normal(symmetric_group(4), alternating_group(4))

    def test_rejects_non_normal(self):
        ambient = symmetric_group(3)
        sub = PermGroup(3, [perm_from_cycles(3, [(1, 2)])])
        with pytest.raises(NotNormal):
            verify_normal(ambient, sub)

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ShapeMismatch):
            verify_normal(symmetric_group(4), symmetric_group(3))

    def test_rejects_outside_generator(self):
        ambient = alternating_group(4)
        sub = PermGroup(4, [perm_from_cycles(4, [(1, 2)])])
        with pytest.raises(NotNormal):
            verify_normal(ambient, sub)


class TestScenarios:
    def test_kinds_are_known(self):
        for scenario in DEFAULT_SCENARIOS:
            assert scenario.kind in SCENARIO_KINDS

    def test_pair_orders(self):
        expected = {
            "induced-tau-S3": (6, 3),
            "central-scaling-SL23": (24, 2),
            "degree-sum-S3": (6, 3),
            "coprime-quotient-S4": (24, 12),
            "sylow-product-S4": (24, 12),
        }
        assert {s.name for s in DEFAULT_SCENARIOS} == set(expected)
        for scenario in DEFAULT_SCENARIOS:
            group, sub = scenario.build()
            assert (group.order(), sub.order()) == expected[scenario.name]

    def test_build_returns_contained_subgroup(self):
        scenario = DEFAULT_SCENARIOS[0]
        group, sub = scenario.build()
        for x in sub.generators:
            assert group.contains(x)


class TestFixtures:
    def test_catalog(self):
        assert [fix.name for fix in FIXTURES] == [
            "J1",
            "Co3",
            "klein-A4-type",
            "klein-A5-type",
        ]

    def test_traces_and_diagonals(self):
        assert fixture("J1").trace() == 24
        assert fixture("J1").max_diagonal() == 8
        assert fixture("Co3").trace() == 22
        assert fixture("Co3").max_diagonal() == 8
        assert fixture("klein-A4-type").trace() == 6
        assert fixture("klein-A5-type").trace() == 8

    def test_bounds(self):
        assert fixture("J1").bound() == 64
        assert fixture("Co3").bound() == 64
        assert fixture("klein-A4-type").bound() == 16
        assert fixture("klein-A5-type").bound() == 16

    def test_lookup_unknown(self):
        with pytest.raises(ValueError):
            fixture("M22")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ShapeMismatch):
            CartanFixture("bad", "", 2, [[1, 2], [3]], defect_order=2, sectional=1)

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatch):
            CartanFixture("bad", "", 2, [], defect_order=2, sectional=1)
