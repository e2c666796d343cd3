"""Tests for permutation groups and their structure algorithms."""

import random

import pytest

from pblocks.errors import CapExceeded, EnumerationRequired, NotAPermutation, NotNormal
from pblocks.perm import (
    PermGroup,
    _closure,
    abelian_p_invariants,
    perm_conj,
    perm_from_cycles,
    perm_inv,
    perm_mul,
    perm_order,
    perm_pow,
    perm_to_cycles,
    sectional_rank,
)


def _cycles(degree, *cycles):
    """Shorthand for a 1-based cycle permutation."""
    return perm_from_cycles(degree, cycles)


def _sym(n):
    """The symmetric group on n points."""
    return PermGroup(n, [_cycles(n, (1, 2)), _cycles(n, tuple(range(1, n + 1)))])


def _alt5():
    return PermGroup(5, [_cycles(5, (1, 2, 3, 4, 5)), _cycles(5, (3, 4, 5))])


# -- primitives -----------------------------------------------------------------

def test_composition_applies_left_to_right():
    a = _cycles(3, (1, 2))
    b = _cycles(3, (2, 3))
    assert perm_mul(a, b) == _cycles(3, (1, 3, 2))
    assert perm_mul(b, a) == _cycles(3, (1, 2, 3))


def test_inverse_and_power():
    g = _cycles(6, (1, 2, 3), (4, 5))
    assert perm_mul(g, perm_inv(g)) == tuple(range(6))
    assert perm_order(g) == 6
    assert perm_pow(g, 6) == tuple(range(6))
    assert perm_pow(g, 3) == _cycles(6, (4, 5))
    assert perm_pow(g, -2) == perm_inv(perm_pow(g, 2))


def test_cycle_round_trip():
    g = _cycles(7, (1, 4, 2), (5, 6))
    assert perm_to_cycles(g) == [(1, 4, 2), (5, 6)]
    rng = random.Random(3)
    for _ in range(50):
        images = list(range(8))
        rng.shuffle(images)
        g = tuple(images)
        assert perm_from_cycles(8, perm_to_cycles(g)) == g


def test_bad_cycles_rejected():
    with pytest.raises(NotAPermutation):
        perm_from_cycles(4, [(1, 5)])
    with pytest.raises(NotAPermutation):
        perm_from_cycles(4, [(1, 2), (2, 3)])
    with pytest.raises(NotAPermutation):
        PermGroup(3, [(0, 0, 1)])


# -- order and membership -----------------------------------------------------------

def test_known_orders():
    assert _sym(4).order() == 24
    assert _sym(5).order() == 120
    assert _alt5().order() == 60
    c12 = PermGroup(7, [_cycles(7, (1, 2, 3), (4, 5, 6, 7))])
    assert c12.order() == 12
    m11 = PermGroup(11, [
        _cycles(11, tuple(range(1, 12))),
        _cycles(11, (3, 7, 11, 8), (4, 10, 5, 6)),
    ])
    assert m11.order() == 7920


def test_order_matches_enumeration():
    for G in (_sym(4), _alt5(), PermGroup(7, [_cycles(7, (1, 2, 3), (4, 5, 6, 7))])):
        assert len(G.elements()) == G.order()
        assert len(_closure(G.degree, G.generators)) == G.order()


def test_membership():
    G = _alt5()
    assert G.contains(_cycles(5, (1, 2), (3, 4)))
    assert not G.contains(_cycles(5, (1, 2)))
    assert G.contains(G.identity)
    rng = random.Random(9)
    els = G.elements()
    for _ in range(30):
        a = els[rng.randrange(len(els))]
        b = els[rng.randrange(len(els))]
        assert G.contains(perm_mul(a, b))


def test_large_group_order_without_enumeration():
    s9 = _sym(9)
    assert s9.order() == 362880
    with pytest.raises(EnumerationRequired):
        s9.elements()


def test_elements_sorted_identity_first():
    G = _sym(4)
    els = G.elements()
    assert els[0] == G.identity
    assert els == sorted(els)


def test_words_reconstruct_elements():
    G = _sym(4)
    for g in G.elements():
        acc = G.identity
        for gi in G.word(g):
            acc = perm_mul(acc, G.generators[gi])
        assert acc == g


# -- conjugacy classes -----------------------------------------------------------------

def test_class_counts_and_sizes():
    data = _sym(4).conjugacy_classes()
    assert len(data) == 5
    assert sorted(data.sizes) == [1, 3, 6, 6, 8]
    assert data.sizes[0] == 1 and data.reps[0] == _sym(4).identity
    data5 = _alt5().conjugacy_classes()
    assert len(data5) == 5
    assert sorted(data5.sizes) == [1, 12, 12, 15, 20]
    assert sorted(data5.orders) == [1, 2, 3, 5, 5]


def test_class_representatives_are_least():
    G = _sym(4)
    data = G.conjugacy_classes()
    els = G.elements()
    for idx, rep in enumerate(data.reps):
        members = [g for g in els if data.class_of[g] == idx]
        assert rep == min(members)
        for g in members:
            assert perm_order(g) == data.orders[idx]
    assert sum(data.sizes) == G.order()


def test_class_lookup_is_conjugation_invariant():
    G = _alt5()
    data = G.conjugacy_classes()
    rng = random.Random(21)
    els = G.elements()
    for _ in range(50):
        g = els[rng.randrange(len(els))]
        h = els[rng.randrange(len(els))]
        assert data.class_of[perm_conj(g, h)] == data.class_of[g]


def test_class_matrices_computed_once():
    G = _sym(4)
    mats = G.class_matrices()
    assert G.class_matrices() is mats
    data = G.conjugacy_classes()
    n = len(data)
    assert [M.shape for M in mats] == [(n, n)] * n
    assert (mats[0] == [[int(j == k) for k in range(n)] for j in range(n)]).all()
    for i, M in enumerate(mats):
        assert list(M.sum(axis=0)) == [data.sizes[i]] * n
        assert not M.flags.writeable


def test_exponent():
    assert _sym(4).exponent() == 12
    assert _alt5().exponent() == 30


# -- subgroups ------------------------------------------------------------------------

def test_centralizer_orders():
    G = _sym(4)
    t = _cycles(4, (1, 2))
    C = G.centralizer(t)
    assert C.order() == 4
    assert G.centralizer(G.identity).order() == 24
    four = _cycles(4, (1, 2, 3, 4))
    assert G.centralizer(four).order() == 4


def test_subgroup_from_elements():
    G = _sym(4)
    v4 = [
        G.identity,
        _cycles(4, (1, 2), (3, 4)),
        _cycles(4, (1, 3), (2, 4)),
        _cycles(4, (1, 4), (2, 3)),
    ]
    H = G.subgroup(v4)
    assert H.order() == 4
    assert H.is_abelian()
    with pytest.raises(ValueError):
        G.subgroup([G.identity, _cycles(4, (1, 2, 3))][1:])


def test_normality():
    G = _sym(4)
    v4 = G.subgroup([
        G.identity,
        _cycles(4, (1, 2), (3, 4)),
        _cycles(4, (1, 3), (2, 4)),
        _cycles(4, (1, 4), (2, 3)),
    ])
    assert G.is_normal(v4)
    flip = PermGroup(4, [_cycles(4, (1, 2))])
    assert not G.is_normal(flip)


def test_intersection():
    G = _sym(4)
    a4 = PermGroup(4, [_cycles(4, (1, 2, 3)), _cycles(4, (2, 3, 4))])
    d8 = G.sylow(2)
    meet = a4.intersection(d8)
    assert meet.order() == 4


def test_sylow_subgroups():
    G = _sym(4)
    P2 = G.sylow(2)
    assert P2.order() == 8
    assert not P2.is_abelian()
    assert G.sylow(3).order() == 3
    assert G.sylow(5).order() == 1
    A = _alt5()
    assert A.sylow(2).order() == 4
    assert A.sylow(2).is_abelian()
    assert A.sylow(5).order() == 5


def test_sylow_of_m11():
    m11 = PermGroup(11, [
        perm_from_cycles(11, [tuple(range(1, 12))]),
        perm_from_cycles(11, [(3, 7, 11, 8), (4, 10, 5, 6)]),
    ])
    P = m11.sylow(2)
    assert P.order() == 16
    assert not P.is_abelian()
    assert sectional_rank(P, 2) == 2


# -- quotients -------------------------------------------------------------------------

def test_quotient_of_sym4_by_v4():
    G = _sym(4)
    v4 = G.subgroup([
        G.identity,
        _cycles(4, (1, 2), (3, 4)),
        _cycles(4, (1, 3), (2, 4)),
        _cycles(4, (1, 4), (2, 3)),
    ])
    act = G.coset_action(v4)
    Q = act.quotient
    assert Q.order() == 6
    assert not Q.is_abelian()
    for n in v4.elements():
        assert act.image(n) == Q.identity
    for q in Q.elements():
        assert act.image(act.section(q)) == q
    # the map is a homomorphism
    rng = random.Random(33)
    els = G.elements()
    for _ in range(40):
        a = els[rng.randrange(24)]
        b = els[rng.randrange(24)]
        assert act.image(perm_mul(a, b)) == perm_mul(act.image(a), act.image(b))


def test_quotient_by_alternating():
    G = _sym(4)
    a4 = PermGroup(4, [_cycles(4, (1, 2, 3)), _cycles(4, (2, 3, 4))])
    act = G.coset_action(a4)
    assert act.quotient.order() == 2


def test_non_normal_quotient_raises():
    G = _sym(4)
    H = PermGroup(4, [_cycles(4, (1, 2))])
    with pytest.raises(NotNormal):
        G.coset_action(H)


# -- p-group invariants ------------------------------------------------------------------

def test_abelian_invariants():
    c4 = PermGroup(4, [_cycles(4, (1, 2, 3, 4))])
    assert abelian_p_invariants(c4, 2) == [2]
    v4 = PermGroup(4, [_cycles(4, (1, 2)), _cycles(4, (3, 4))])
    assert abelian_p_invariants(v4, 2) == [1, 1]
    e8 = PermGroup(6, [_cycles(6, (1, 2)), _cycles(6, (3, 4)), _cycles(6, (5, 6))])
    assert abelian_p_invariants(e8, 2) == [1, 1, 1]
    c2 = PermGroup(2, [_cycles(2, (1, 2))])
    assert abelian_p_invariants(c2, 2) == [1]
    c12 = PermGroup(7, [_cycles(7, (1, 2, 3), (4, 5, 6, 7))])
    assert abelian_p_invariants(c12.sylow(2), 2) == [2]
    assert abelian_p_invariants(c12.sylow(3), 3) == [1]


def test_sectional_rank_of_small_two_groups():
    trivial = PermGroup(2, [])
    assert sectional_rank(trivial, 2) == 0
    c4 = PermGroup(4, [_cycles(4, (1, 2, 3, 4))])
    assert sectional_rank(c4, 2) == 1
    v4 = PermGroup(4, [_cycles(4, (1, 2)), _cycles(4, (3, 4))])
    assert sectional_rank(v4, 2) == 2
    e8 = PermGroup(6, [_cycles(6, (1, 2)), _cycles(6, (3, 4)), _cycles(6, (5, 6))])
    assert sectional_rank(e8, 2) == 3
    d8 = _sym(4).sylow(2)
    assert sectional_rank(d8, 2) == 2
    # the quaternion group acting regularly on itself
    q8 = PermGroup(8, [
        (1, 4, 7, 2, 5, 0, 3, 6),
        (2, 3, 4, 5, 6, 7, 0, 1),
    ])
    assert q8.order() == 8
    assert not q8.is_abelian()
    assert sectional_rank(q8, 2) == 2


def test_sectional_rank_guards():
    with pytest.raises(ValueError):
        sectional_rank(_sym(3), 2)
    big = PermGroup(20, [_cycles(20, (2 * i + 1, 2 * i + 2)) for i in range(10)])
    assert big.order() == 1024
    with pytest.raises(CapExceeded):
        sectional_rank(big, 2)
