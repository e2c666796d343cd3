"""Tests for permutation groups and their structure algorithms."""

import math
import random

import numpy as np
import pytest

from pblocks.errors import (
    CapExceeded,
    EnumerationRequired,
    NotAPermutation,
    NotNormal,
    ShapeMismatch,
)
from pblocks.chartab import class_fusion
from pblocks.corpus import (
    alternating_group,
    cyclic_group,
    mathieu_group_11,
    quaternion_group,
    special_linear_2_3,
    special_linear_2_8,
)
from pblocks.perm import (
    PermGroup,
    _all_p_subgroups,
    abelian_p_invariants,
    orbit,
    perm_conj,
    perm_from_cycles,
    perm_inv,
    perm_mul,
    perm_order,
    perm_pow,
    sectional_rank,
    verify_normal,
)


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


def _cycles(degree, *cycles):
    """Shorthand for a 1-based cycle permutation."""
    return perm_from_cycles(degree, cycles)


def _sym(n):
    """The symmetric group on n points."""
    return PermGroup(n, [_cycles(n, (1, 2)), _cycles(n, tuple(range(1, n + 1)))])


def _alt5():
    return PermGroup(5, [_cycles(5, (1, 2, 3, 4, 5)), _cycles(5, (3, 4, 5))])


def _psl27():
    """PSL(2,7) acting on the seven points of the Fano plane."""
    return PermGroup(7, [_cycles(7, (1, 2, 3, 4, 5, 6, 7)), _cycles(7, (1, 2), (3, 6))])


def _s3_x_c5_on_20():
    """S3 x C5 on 20 points: S3 on points 1..3, C5 on points 14..18, twelve fixed."""
    return PermGroup(20, [
        _cycles(20, (1, 2)), _cycles(20, (1, 2, 3)), _cycles(20, (14, 15, 16, 17, 18)),
    ])


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


def test_conjugation_matches_two_compositions():
    rng = random.Random(5)
    for _ in range(300):
        a = tuple(rng.sample(range(7), 7))
        g = tuple(rng.sample(range(7), 7))
        assert perm_conj(a, g) == perm_mul(perm_mul(perm_inv(g), a), g)


def test_cycle_round_trip():
    g = _cycles(7, (1, 4, 2), (5, 6))
    assert perm_to_cycles(g) == [(1, 4, 2), (5, 6)]
    rng = random.Random(3)
    for _ in range(50):
        images = list(range(8))
        rng.shuffle(images)
        g = tuple(images)
        assert perm_from_cycles(8, perm_to_cycles(g)) == g


def test_non_integer_points_rejected():
    # int() would read 2.9 as 2, True as 1 and "1" as 1
    for bad in ([1.0, 0.0, 2.9], [True, False, 2], ["1", "0", "2"], np.array([1.0, 0.0, 2.0])):
        with pytest.raises(NotAPermutation):
            PermGroup(3, [bad])
    for bad in ([(1.0, 2.9)], [(True, 2)], [("1", "2")]):
        with pytest.raises(NotAPermutation):
            perm_from_cycles(3, bad)
    group = PermGroup(3, [np.array([1, 0, 2]), (np.int64(0), np.int32(2), np.uint8(1))])
    assert group.generators == ((1, 0, 2), (0, 2, 1))
    assert all(type(x) is int for g in group.generators for x in g)
    g = perm_from_cycles(3, [(np.int64(1), np.int64(2))])
    assert g == (1, 0, 2) and all(type(x) is int for x in g)


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


def test_word_rejects_a_non_member_and_a_wrong_degree():
    G = _alt5()
    with pytest.raises(ValueError, match="does not belong"):
        G.word(_cycles(5, (1, 2)))
    with pytest.raises(NotAPermutation):
        G.word((1, 0, 2, 3))


@pytest.mark.parametrize(
    "start, act, size",
    [
        (0, lambda i, g: g[i], 4),
        (_cycles(4, (1, 2)), perm_conj, 6),
        (tuple(range(4)), perm_mul, 24),
    ],
    ids=["points", "conjugation", "regular"],
)
def test_orbit_is_a_breadth_first_schreier_tree(start, act, size):
    gens = _sym(4).generators
    tree = orbit(start, gens, act)
    assert len(tree) == size
    assert tree[start] == (None, -1)
    depth = {}
    for y in tree:
        word = []
        x = y
        while tree[x][0] is not None:
            x, i = tree[x]
            word.append(i)
        point = start
        for i in reversed(word):
            point = act(point, gens[i])
        assert point == y
        depth[y] = len(word)
    # breadth first: points come in order of depth, and depth is distance
    assert list(depth.values()) == sorted(depth.values())
    assert all(depth[act(y, s)] <= depth[y] + 1 for y in tree for s in gens)


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
        members = [g for g, c in zip(els, data.labels) if c == idx]
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
        assert data.classes_of([perm_conj(g, h)]) == data.classes_of([g])


def test_class_matrices_computed_once():
    G = _sym(4)
    data = G.conjugacy_classes()
    n = len(data)
    mats = [G.class_matrix(i) for i in range(n)]
    assert all(G.class_matrix(i) is M for i, M in enumerate(mats))
    assert [M.shape for M in mats] == [(n, n)] * n
    assert (mats[0] == [[int(j == k) for k in range(n)] for j in range(n)]).all()
    for i, M in enumerate(mats):
        assert list(M.sum(axis=0)) == [data.sizes[i]] * n
        assert not M.flags.writeable


# Oracles below use plain tuple arithmetic written here, not the element table.

def _compose(a, b):
    return tuple(b[a[i]] for i in range(len(a)))


def _invert(a):
    out = [0] * len(a)
    for i in range(len(a)):
        out[a[i]] = i
    return tuple(out)


def _closure(degree, gens):
    """All products of the generators, by a breadth-first search over tuples."""
    known = {tuple(range(degree))}
    queue = list(known)
    for x in queue:
        for s in gens:
            y = _compose(x, s)
            if y not in known:
                known.add(y)
                queue.append(y)
    return known


def _brute_classes(els):
    """Each element's class as the frozenset {h^-1 x h : h in G}."""
    return {x: frozenset(_compose(_compose(_invert(h), x), h) for h in els) for x in els}


ORACLE_GROUPS = [
    pytest.param(lambda: _sym(4), 24, id="S4"),
    pytest.param(_alt5, 60, id="A5"),
    pytest.param(_psl27, 168, id="PSL(2,7)"),
    pytest.param(_s3_x_c5_on_20, 30, id="S3xC5-on-20"),
]


@pytest.mark.parametrize("make, order", ORACLE_GROUPS)
def test_classes_match_brute_force_conjugation(make, order):
    G = make()
    assert G.order() == order
    els = G.elements()
    brute = _brute_classes(els)
    data = G.conjugacy_classes()
    distinct = sorted(set(brute.values()), key=min)
    assert data.reps == [min(c) for c in distinct]
    assert data.sizes == [len(c) for c in distinct]
    assert len(data.labels) == len(els)
    for x, c in zip(els, data.classes_of(els)):
        assert data.reps[c] == min(brute[x])


@pytest.mark.parametrize("make, order", ORACLE_GROUPS)
def test_class_matrices_match_triple_count(make, order):
    G = make()
    els = G.elements()
    brute = _brute_classes(els)
    distinct = sorted(set(brute.values()), key=min)
    label = {x: i for i, c in enumerate(distinct) for x in c}
    rep_index = {min(c): k for k, c in enumerate(distinct)}
    n = len(distinct)
    count = [[[0] * n for _ in range(n)] for _ in range(n)]
    for x in els:
        for y in els:
            k = rep_index.get(perm_mul(x, y))
            if k is not None:
                count[label[x]][label[y]][k] += 1
    mats = [G.class_matrix(i) for i in range(n)]
    for i in range(n):
        assert mats[i].tolist() == [[count[i][j][k] for k in range(n)] for j in range(n)]


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _sym(4), id="S4"),
    pytest.param(_alt5, id="A5"),
    pytest.param(_psl27, id="PSL(2,7)"),
    pytest.param(special_linear_2_8, id="SL(2,8)"),
    pytest.param(lambda: cyclic_group(12), id="C12"),
])
def test_power_map_matches_brute_force_powers(make):
    G = make()
    els = G.elements()
    data = G.conjugacy_classes()
    assert len(data.power_map) == len(data)
    for k, rep in enumerate(data.reps):
        assert len(data.power_map[k]) == data.orders[k]
        power = G.identity
        for j, c in enumerate(data.power_map[k]):
            # the class of rep^j is named by its least conjugate
            least = min(_compose(_compose(_invert(h), power), h) for h in els)
            assert data.reps[c] == least, (k, j)
            power = _compose(power, rep)
        assert power == G.identity


def test_element_table_lookup_rejects_rows_outside_the_group():
    G = PermGroup(3, [_cycles(3, (1, 2, 3))])
    table = G._element_table()
    assert table.index(table.rows).tolist() == [0, 1, 2]
    for row in ((0, 2, 1), (2, 1, 0)):
        with pytest.raises(RuntimeError):
            table.index(np.array([row]))


def _c2_power_6_on_12():
    """C2^6 as six disjoint transpositions on 12 points: a base of length 6."""
    return PermGroup(12, [_cycles(12, (2 * i + 1, 2 * i + 2)) for i in range(6)])


@pytest.mark.parametrize("make, order, base_length, sample", [
    pytest.param(_c2_power_6_on_12, 64, 6, None, id="C2^6-on-12"),
    pytest.param(_s3_x_c5_on_20, 30, 3, None, id="S3xC5-on-20"),
    pytest.param(mathieu_group_11, 7920, 4, 400, id="M11-sampled"),
])
def test_element_index_matches_the_sorted_closure(make, order, base_length, sample):
    G = make()
    els = sorted(_closure(G.degree, G.generators))
    assert len(els) == order
    position = {g: i for i, g in enumerate(els)}
    assert G.elements() == els
    table = G._element_table()
    assert len(table.base) == base_length
    rng = random.Random(order)
    chosen = els if sample is None else rng.sample(els, sample)
    assert table.index(np.array(chosen)).tolist() == [position[g] for g in chosen]
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(200)]
    products = [_compose(a, b) for a, b in pairs]
    assert table.index(np.array(products)).tolist() == [position[g] for g in products]
    # a transposition of two moved points lies in none of these groups
    moved = [x for x in range(G.degree) if any(g[x] != x for g in G.generators)]
    outsider = list(range(G.degree))
    outsider[moved[0]], outsider[moved[-1]] = outsider[moved[-1]], outsider[moved[0]]
    assert tuple(outsider) not in position
    with pytest.raises(RuntimeError):
        table.index(np.array([els[1], outsider]))
    with pytest.raises(ValueError, match="does not belong"):
        table.lookup([outsider])


def test_class_lookup_of_no_element_is_empty():
    assert _sym(4).conjugacy_classes().classes_of([]) == []


def test_class_lookup_names_both_degrees_for_a_row_of_another_degree():
    data = _sym(4).conjugacy_classes()
    with pytest.raises(ShapeMismatch, match=r"\(1, 5\).*degree 4"):
        data.classes_of([(0, 1, 2, 3, 4)])
    with pytest.raises(ShapeMismatch, match=r"\(4,\).*degree 4"):
        data.classes_of((0, 1, 2, 3))


@pytest.mark.parametrize("row", [(0, 1, 2, 4), (0, 1, 2, -1), (7, 1, 2, 3)])
def test_class_lookup_of_a_point_outside_the_degree_is_not_a_member(row):
    data = _sym(4).conjugacy_classes()
    with pytest.raises(ValueError, match="does not belong"):
        data.classes_of([row])


def _bfs_tree(G):
    """Breadth-first Schreier tree of the group under right multiplication by its generators."""
    tree = {G.identity: None}
    queue = [G.identity]
    for x in queue:
        for i, s in enumerate(G.generators):
            y = _compose(x, s)
            if y not in tree:
                tree[y] = (x, i)
                queue.append(y)
    return tree


LISTING_GROUPS = ORACLE_GROUPS + [
    pytest.param(lambda: PermGroup(3, []), 1, id="trivial"),
    pytest.param(
        lambda: PermGroup(4, [_cycles(4, (1, 2)), _cycles(4, (1, 2)), _cycles(4, (1, 2, 3, 4))]),
        24,
        id="S4-repeated-generators",
    ),
]


@pytest.mark.parametrize("make, order", LISTING_GROUPS)
def test_elements_and_words_match_a_tuple_search(make, order):
    G = make()
    tree = _bfs_tree(G)
    assert len(tree) == order
    assert G.elements() == sorted(tree)
    for g in G.elements():
        word = []
        x = g
        while tree[x] is not None:
            x, i = tree[x]
            word.append(i)
        assert G.word(g) == tuple(reversed(word))


@pytest.mark.parametrize("make, order", LISTING_GROUPS)
def test_shortest_in_classes_has_the_least_depth(make, order):
    G = make()
    tree = _bfs_tree(G)
    depth = {G.identity: 0}
    for x in tree:
        if tree[x] is not None:
            depth[x] = depth[tree[x][0]] + 1
    data = G.conjugacy_classes()
    least = {}
    for x, c in zip(G.elements(), data.classes_of(G.elements())):
        least[c] = min(depth[x], least.get(c, depth[x]))
    shortest = G.shortest_in_classes()
    assert data.classes_of(shortest) == list(range(len(data)))
    assert [depth[x] for x in shortest] == [least[c] for c in range(len(data))]


def test_table_build_rejects_a_chain_that_repeats_an_element():
    G = _sym(3)
    chain = G._stabilizer_chain()
    # an extra level whose transversal lists the identity twice doubles every product
    G._chain = dict(chain, trans=chain["trans"] + [{0: G.identity, 1: G.identity}])
    with pytest.raises(RuntimeError, match="twice"):
        G._element_table()


def test_table_build_rejects_a_chain_of_a_proper_subgroup():
    G = _sym(4)
    G._chain = PermGroup(4, [_cycles(4, (1, 2, 3)), _cycles(4, (2, 3, 4))])._stabilizer_chain()
    with pytest.raises(RuntimeError, match="not in the element table"):
        G._element_table()


def test_classes_of_rejects_a_non_member():
    a4 = PermGroup(4, [_cycles(4, (1, 2, 3)), _cycles(4, (2, 3, 4))])
    data = a4.conjugacy_classes()
    assert data.classes_of([a4.identity]) == [0]
    with pytest.raises(ValueError, match="does not belong"):
        data.classes_of([_cycles(4, (1, 2))])
    assert not data.labels.flags.writeable


@pytest.mark.parametrize(
    "make_sub",
    [
        lambda G: PermGroup(4, [_cycles(4, (1, 2, 3)), _cycles(4, (2, 3, 4))]),
        lambda G: G.sylow(2),
    ],
    ids=["A4", "Sylow-2"],
)
def test_class_fusion_matches_brute_force_conjugation(make_sub):
    G = _sym(4)
    H = make_sub(G)
    ambient = G.conjugacy_classes()
    brute = _brute_classes(G.elements())
    expected = tuple(ambient.reps.index(min(brute[rep])) for rep in H.conjugacy_classes().reps)
    assert class_fusion(ambient, H.conjugacy_classes()) == expected


def test_centralizer_matches_commuting_elements():
    G = _s3_x_c5_on_20()
    els = G.elements()
    for rep in G.conjugacy_classes().reps:
        commuting = {g for g in els if _compose(g, rep) == _compose(rep, g)}
        assert set(G.centralizer(rep).elements()) == commuting


def test_exponent():
    assert _sym(4).exponent() == 12
    assert _alt5().exponent() == 30


# -- subgroups ------------------------------------------------------------------------

def test_centralizer_orders():
    G = _sym(4)
    t = _cycles(4, (1, 2))
    C = G.centralizer(t)
    assert C.order() == 4
    assert G.centralizer(G.identity) is G
    four = _cycles(4, (1, 2, 3, 4))
    assert G.centralizer(four).order() == 4


def test_centralizer_rejects_element_outside_the_group():
    G = PermGroup(4, [_cycles(4, (1, 2), (3, 4)), _cycles(4, (1, 2, 3))])
    with pytest.raises(ValueError, match="does not belong"):
        G.centralizer(_cycles(4, (1, 2)))


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


def _rebuilt_generators(G, elements):
    """Greedy generators of a closed set, recomputing the closure after each one."""
    gens = []
    known = {G.identity}
    for x in sorted(set(elements)):
        if x not in known:
            gens.append(x)
            known = _closure(G.degree, gens)
    return gens, known


@pytest.mark.parametrize("build", [lambda: _sym(7), _s3_x_c5_on_20], ids=["S7", "S3xC5-on-20"])
def test_subgroup_coset_step_matches_rebuilt_closures(build):
    G = build()
    els = G.elements()
    for rep in G.conjugacy_classes().reps:
        cent = [g for g in els if _compose(g, rep) == _compose(rep, g)]
        gens, known = _rebuilt_generators(G, cent)
        assert len(known) == len(cent)
        H = G.subgroup(cent)
        assert list(H.generators) == gens
        assert H.order() == len(cent)


def test_subgroup_rejects_a_set_that_closes_larger():
    G = _sym(4)
    with pytest.raises(ValueError, match="not closed"):
        G.subgroup([G.identity, _cycles(4, (1, 2)), _cycles(4, (2, 3))])


def test_normality():
    G = _sym(4)
    v4 = G.subgroup([
        G.identity,
        _cycles(4, (1, 2), (3, 4)),
        _cycles(4, (1, 3), (2, 4)),
        _cycles(4, (1, 4), (2, 3)),
    ])
    verify_normal(G, v4)
    flip = PermGroup(4, [_cycles(4, (1, 2))])
    with pytest.raises(NotNormal):
        verify_normal(G, flip)


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
    # the coset representatives map onto the quotient
    assert sorted(act.image(r) for r in act.reps) == Q.elements()
    # the map is a homomorphism
    rng = random.Random(33)
    els = G.elements()
    for _ in range(40):
        a = els[rng.randrange(24)]
        b = els[rng.randrange(24)]
        assert act.image(perm_mul(a, b)) == perm_mul(act.image(a), act.image(b))


def test_quotient_image_rejects_a_non_member():
    a4 = PermGroup(4, [_cycles(4, (1, 2, 3)), _cycles(4, (2, 3, 4))])
    v4 = PermGroup(4, [_cycles(4, (1, 2), (3, 4)), _cycles(4, (1, 3), (2, 4))])
    act = a4.coset_action(v4)
    assert act.quotient.order() == 3
    with pytest.raises(ValueError, match="does not belong"):
        act.image(_cycles(4, (1, 2)))


def _tuple_coset_action(G, N):
    """Right cosets N g as a dict from every element tuple to its coset index.

    Returns the least element of each coset, the quotient generators and the
    map from an element to its coset permutation.
    """
    n_els = _closure(N.degree, N.generators)
    to_coset = {}
    reps = []
    for g in sorted(_closure(G.degree, G.generators)):
        if g not in to_coset:
            for n in n_els:
                to_coset[_compose(n, g)] = len(reps)
            reps.append(g)

    def image(g):
        return tuple(to_coset[_compose(r, g)] for r in reps)

    return reps, [image(s) for s in G.generators], image


def _center_by_tuples(G):
    return [g for g in _closure(G.degree, G.generators)
            if all(_compose(g, s) == _compose(s, g) for s in G.generators)]


COSET_PAIRS = [
    pytest.param(
        lambda: (_sym(4), PermGroup(4, [_cycles(4, (1, 2), (3, 4)), _cycles(4, (1, 3), (2, 4))])),
        id="S4/V4",
    ),
    pytest.param(
        lambda: (_sym(4), PermGroup(4, [_cycles(4, (1, 2, 3)), _cycles(4, (2, 3, 4))])),
        id="S4/A4",
    ),
    pytest.param(
        lambda: (special_linear_2_3(),
                 PermGroup(8, _center_by_tuples(special_linear_2_3()))),
        id="SL(2,3)/Z",
    ),
    pytest.param(lambda: (_sym(7), alternating_group(7)), id="S7/A7"),
]


@pytest.mark.parametrize("make", COSET_PAIRS)
def test_coset_labels_match_a_tuple_dict(make):
    G, N = make()
    reps, gens, image = _tuple_coset_action(G, N)
    act = G.coset_action(N)
    assert act.reps == reps
    assert act.quotient.generators == PermGroup(len(reps), gens).generators
    assert act.quotient.order() * N.order() == G.order()
    for g in G.elements():
        assert act.image(g) == image(g)
    assert not act.labels.flags.writeable


def test_quotient_image_rejects_a_wrong_degree():
    act = _sym(4).coset_action(PermGroup(4, [_cycles(4, (1, 2, 3)), _cycles(4, (2, 3, 4))]))
    for bad in ((1, 0, 2), (1, 0, 2, 3, 4)):
        with pytest.raises(NotAPermutation):
            act.image(bad)


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

def _power(x, n):
    out = tuple(range(len(x)))
    for _ in range(n):
        out = _compose(out, x)
    return out


def _log(n, p):
    return round(math.log(n, p))


def _frattini_by_closure(degree, H, p):
    """Phi(H) as the closure of the p-th powers and the commutators of H."""
    els = sorted(H)
    gens = {_power(x, p) for x in els}
    for i, x in enumerate(els):
        for y in els[i + 1:]:
            gens.add(_compose(_invert(_compose(y, x)), _compose(x, y)))
    return _closure(degree, sorted(gens))


def _commutator_rank(P, p):
    """The largest log_p |H : Phi(H)| over the subgroups H, Phi(H) closed by commutators."""
    return max(_log(len(H) // len(_frattini_by_closure(P.degree, H, p)), p)
               for H in _all_p_subgroups(P, p))


def _invariants_by_power_counts(P, p):
    """The exponent type from the number of x with x^(p^k) = 1, for each k."""
    els = _closure(P.degree, P.generators)
    identity = tuple(range(P.degree))
    logs = [0]
    while p ** logs[-1] != len(els):
        k = len(logs)
        logs.append(_log(sum(1 for x in els if _power(x, p ** k) == identity), p))
    steps = [b - a for a, b in zip(logs, logs[1:])]
    return sorted((sum(1 for d in steps if d >= i) for i in range(1, max(steps) + 1)),
                  reverse=True)


def _p_groups():
    """(id, group, p, sectional rank) for the p-groups the Frattini route is checked on."""
    m11 = mathieu_group_11()
    c12 = PermGroup(7, [_cycles(7, (1, 2, 3), (4, 5, 6, 7))])
    return [
        ("Syl2(S4)", _sym(4).sylow(2), 2, 2),
        ("Syl2(S5)", _sym(5).sylow(2), 2, 2),
        ("Syl2(S6)", _sym(6).sylow(2), 2, 3),
        ("Syl2(S7)", _sym(7).sylow(2), 2, 3),
        ("Syl2(M11)", m11.sylow(2), 2, 2),
        ("Syl2(SL(2,3))", special_linear_2_3().sylow(2), 2, 2),
        ("Syl2(PSL(2,7))", _psl27().sylow(2), 2, 2),
        ("Syl2(SL(2,8))", special_linear_2_8().sylow(2), 2, 3),
        ("Q8", quaternion_group(), 2, 2),
        ("Syl2(C12)", c12.sylow(2), 2, 1),
        ("Syl3(S6)", _sym(6).sylow(3), 3, 2),
        ("Syl3(S7)", _sym(7).sylow(3), 3, 2),
        ("Syl3(M11)", m11.sylow(3), 3, 2),
        ("D16", PermGroup(8, [_cycles(8, tuple(range(1, 9))),
                              _cycles(8, (2, 8), (3, 7), (4, 6))]), 2, 2),
        ("C4wrC2", PermGroup(8, [_cycles(8, (1, 2, 3, 4)),
                                 _cycles(8, (1, 5), (2, 6), (3, 7), (4, 8))]), 2, 3),
        ("Syl3(S9)", PermGroup(9, [_cycles(9, (1, 2, 3)),
                                   _cycles(9, (1, 4, 7), (2, 5, 8), (3, 6, 9))]), 3, 3),
        ("D8xD8", PermGroup(8, [_cycles(8, (1, 2, 3, 4)), _cycles(8, (1, 3)),
                                _cycles(8, (5, 6, 7, 8)), _cycles(8, (5, 7))]), 2, 4),
        ("Syl2(S6)xC2", PermGroup(8, [_cycles(8, (1, 2, 3, 4)), _cycles(8, (1, 3)),
                                      _cycles(8, (5, 6)), _cycles(8, (7, 8))]), 2, 4),
        ("D8wrC2", PermGroup(8, [_cycles(8, (1, 2, 3, 4)), _cycles(8, (1, 3)),
                                 _cycles(8, (1, 5), (2, 6), (3, 7), (4, 8))]), 2, 4),
    ]


def test_sectional_rank_matches_the_commutator_closure_rank():
    for name, P, p, rank in _p_groups():
        assert (name, sectional_rank(P, p)) == (name, rank)
        assert (name, _commutator_rank(P, p)) == (name, rank)


@pytest.mark.parametrize("make", [lambda: _sym(4).sylow(2), quaternion_group], ids=["D8", "Q8"])
def test_recorded_frattini_subgroups_match_the_commutator_closure(make):
    P = make()
    for H, phi in _all_p_subgroups(P, 2).items():
        assert phi == _frattini_by_closure(P.degree, H, 2)


@pytest.mark.parametrize("degree, cycles, p, invariants", [
    (6, [(1, 2, 3, 4), (5, 6)], 2, [2, 1]),
    (6, [(1, 2), (3, 4), (5, 6)], 2, [1, 1, 1]),
    (8, [tuple(range(1, 9))], 2, [3]),
    (12, [tuple(range(1, 10)), (10, 11, 12)], 3, [2, 1]),
], ids=["C4xC2", "C2^3", "C8", "C9xC3"])
def test_abelian_invariants_match_power_counts(degree, cycles, p, invariants):
    P = PermGroup(degree, [_cycles(degree, c) for c in cycles])
    assert abelian_p_invariants(P, p) == _invariants_by_power_counts(P, p) == invariants


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
    # D8 x C2^7: order 1024 and not abelian, so only the capped subgroup sweep applies
    big = PermGroup(18, [_cycles(18, (1, 2, 3, 4)), _cycles(18, (1, 3))]
                    + [_cycles(18, (2 * i + 5, 2 * i + 6)) for i in range(7)])
    assert big.order() == 1024
    assert not big.is_abelian()
    with pytest.raises(CapExceeded):
        sectional_rank(big, 2)


def test_sectional_rank_of_an_abelian_group_beyond_the_sweep_cap():
    c2_10 = PermGroup(20, [_cycles(20, (2 * i + 1, 2 * i + 2)) for i in range(10)])
    assert c2_10.order() == 1024
    assert sectional_rank(c2_10, 2) == 10


def test_p_subgroup_counts():
    d8 = _sym(4).sylow(2)
    q8 = PermGroup(8, [(1, 4, 7, 2, 5, 0, 3, 6), (2, 3, 4, 5, 6, 7, 0, 1)])
    assert len(_all_p_subgroups(d8, 2)) == 10
    assert len(_all_p_subgroups(q8, 2)) == 6
