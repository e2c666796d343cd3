"""Tests for modular representations and Brauer characters."""

import random

import numpy as np
import pytest

from pblocks.corpus import corpus_entry, cyclic_group, special_linear_2_8
from pblocks.cyclotomic import Cyc, root_sum, sort_keys
from pblocks.errors import ClosureStalled, NotSemisimpleElement, RandomBudgetExceeded
from pblocks.ffield import field_create
from pblocks.linalg import (
    Mat,
    mat_eigenspace,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_rref,
    mat_scale,
    mat_sub,
)
from pblocks import modrep
from pblocks.modrep import (
    TENSOR_DIM_CAP,
    BrauerTable,
    GModule,
    ReductionContext,
    _Span,
    _alternating_square,
    _element,
    _spin,
    _standard_basis,
    brauer_table,
    brauer_value,
    composition_factors,
    module_iso,
    p_regular_indices,
    perm_module,
    quotient_module,
    simple_modules,
    sub_module,
    tensor_module,
)
from pblocks.perm import PermGroup, perm_from_cycles, perm_mul


def cyc_zero(conductor: int = 1) -> Cyc:
    """Return zero at a conductor, as a start for sums of values there."""
    return Cyc.rational(0, conductor)


def trivial_module(group, field):
    """Return the one dimensional trivial module."""
    one = Mat.identity(field, 1)
    return GModule(group, field, [one] * len(group.generators))


def sym(n):
    return PermGroup(n, [perm_from_cycles(n, [(1, 2)]), perm_from_cycles(n, [tuple(range(1, n + 1))])])


def alt4():
    return PermGroup(4, [perm_from_cycles(4, [(1, 2), (3, 4)]), perm_from_cycles(4, [(1, 2, 3)])])


def alt5():
    return PermGroup(5, [perm_from_cycles(5, [(1, 2, 3, 4, 5)]), perm_from_cycles(5, [(3, 4, 5)])])


class TestReductionContext:
    def test_splitting_parameters(self):
        ctx = ReductionContext(alt4(), 2)
        assert (ctx.eprime, ctx.field.m) == (3, 2)
        assert ctx.field.q == 4
        ctx = ReductionContext(special_linear_2_8(), 2)
        assert (ctx.eprime, ctx.field.m) == (63, 6)
        assert ctx.field.q == 64
        ctx = ReductionContext(special_linear_2_8(), 3)
        assert (ctx.eprime, ctx.field.m) == (14, 6)
        assert ctx.field.q == 729
        ctx = ReductionContext(special_linear_2_8(), 7)
        assert (ctx.eprime, ctx.field.m) == (18, 3)
        assert ctx.field.q == 343

    def test_reduce_consistency_on_two_presentations(self):
        # the sixth root equals minus the square of the cube root, and the
        # reduction map must not care which form it receives
        ctx = ReductionContext(sym(3), 2)
        a = ctx.reduce(Cyc.root(6))
        b = ctx.reduce(-(Cyc.root(3, 2)))
        assert a == b
        assert ctx.reduce(Cyc.root(3)) == ctx.w

    def test_reduce_kills_p_part(self):
        # a primitive p-power root of unity reduces to one
        ctx = ReductionContext(sym(4), 2)
        assert ctx.reduce(Cyc.root(4)) == 1
        assert ctx.reduce(Cyc.root(2)) == 1

    @pytest.mark.parametrize("build, p", [
        (alt5, 2), (alt5, 3), (alt5, 5),
        pytest.param(special_linear_2_8, 3, id="sl28-3"),
    ])
    def test_zeta_has_w_as_its_p_part_power(self, build, p):
        ctx = ReductionContext(build(), p)
        assert ctx.field.pow(ctx.zeta, ctx.exponent // ctx.eprime) == ctx.w

    @pytest.mark.parametrize("name, p, normal, normal_order", [
        ("SL(2,3)", 2, "centre", 2),
        ("Q8", 2, "centre", 2),
        ("D8", 2, "centre", 2),
        ("C12", 2, "sylow", 4),
        ("C12", 3, "sylow", 3),
    ])
    def test_central_p_quotient_shares_the_field(self, name, p, normal, normal_order):
        # a p'-element x of G keeps its order in G/Z, since x^k in the p-group
        # Z forces x^k = 1, and each p'-element of G/Z lifts to one, so G/Z
        # has the p'-exponent, hence the field, of G
        group = corpus_entry(name).build()
        if normal == "centre":
            Z = group.subgroup([
                g for g in group.elements()
                if all(perm_mul(g, h) == perm_mul(h, g) for h in group.generators)
            ])
        else:
            Z = group.sylow(p)
        assert Z.order() == normal_order
        ambient = ReductionContext(group, p)
        quotient = ReductionContext(group.coset_action(Z).quotient, p)
        assert quotient.field is ambient.field
        assert quotient.w == ambient.w

    def test_reduce_rejects_foreign_conductor(self):
        ctx = ReductionContext(sym(3), 2)
        with pytest.raises(ValueError):
            ctx.reduce(Cyc.root(5))

    def test_regular_indices(self):
        g = sym(4)
        classes = g.conjugacy_classes()
        reg2 = p_regular_indices(classes, 2)
        assert [classes.orders[k] for k in reg2] == [1, 3]
        reg3 = p_regular_indices(classes, 3)
        assert sorted(classes.orders[k] for k in reg3) == [1, 2, 2, 4]


class TestModules:
    def test_perm_module_is_homomorphism(self):
        g = sym(4)
        ctx = ReductionContext(g, 2)
        mod = perm_module(g, ctx.field)
        rng = random.Random(5)
        elements = g.elements()
        for _ in range(6):
            x = elements[rng.randrange(len(elements))]
            y = elements[rng.randrange(len(elements))]
            assert mod.image(perm_mul(x, y)) == mat_mul(mod.image(x), mod.image(y))
        identity = tuple(range(4))
        assert mod.image(identity) == Mat.identity(ctx.field, 4)

    def test_tensor_matches_kron_of_images(self):
        from pblocks.linalg import mat_kron

        g = sym(3)
        ctx = ReductionContext(g, 2)
        mod = perm_module(g, ctx.field)
        tens = tensor_module(mod, mod)
        x = (1, 2, 0)
        assert tens.image(x) == mat_kron(mod.image(x), mod.image(x))

    def test_sub_and_quotient_are_homomorphisms(self):
        import numpy as np

        g = sym(3)
        ctx = ReductionContext(g, 2)
        mod = perm_module(g, ctx.field)
        basis = Mat(ctx.field, np.array([[1, 1, 1]], dtype=np.int64))
        sub = sub_module(mod, basis, (0,))
        quo = quotient_module(mod, basis, (0,))
        assert sub.dim == 1 and quo.dim == 2
        for x in g.elements():
            for y in g.elements():
                xy = perm_mul(x, y)
                assert quo.image(xy) == mat_mul(quo.image(x), quo.image(y))
                assert sub.image(xy) == mat_mul(sub.image(x), sub.image(y))
                break

    def test_trivial_module(self):
        g = sym(3)
        ctx = ReductionContext(g, 2)
        mod = trivial_module(g, ctx.field)
        assert mod.dim == 1
        for x in g.elements():
            assert mod.image(x) == Mat.identity(ctx.field, 1)


class TestChop:
    def test_sym3_perm_module_factors(self):
        g = sym(3)
        ctx = ReductionContext(g, 2)
        factors = composition_factors(perm_module(g, ctx.field))
        assert sorted(m.dim for m in factors) == [1, 2]

    def test_alt4_perm_module_factors(self):
        g = alt4()
        ctx = ReductionContext(g, 2)
        factors = composition_factors(perm_module(g, ctx.field))
        assert sorted(m.dim for m in factors) == [1, 1, 1, 1]
        triv = trivial_module(g, ctx.field)
        trivial_count = sum(
            1 for m in factors if module_iso(m, triv) is not None
        )
        assert trivial_count == 2

    def test_iso_bridge_intertwines(self):
        g = sym(3)
        ctx = ReductionContext(g, 2)
        mod = perm_module(g, ctx.field)
        simple = next(m for m in composition_factors(mod) if m.dim == 2)
        bridge = module_iso(simple, simple)
        assert bridge is not None
        assert mat_rank(bridge) == 2
        for Ma, Mb in zip(simple.mats, simple.mats):
            assert mat_mul(Ma, bridge) == mat_mul(bridge, Mb)

    def test_distinct_linears_not_isomorphic(self):
        g = alt4()
        ctx = ReductionContext(g, 2)
        factors = composition_factors(perm_module(g, ctx.field))
        triv = trivial_module(g, ctx.field)
        nontrivial = [m for m in factors if module_iso(m, triv) is None]
        assert len(nontrivial) == 2
        assert module_iso(nontrivial[0], nontrivial[1]) is None

    def test_double_of_a_simple_module_splits(self):
        # on S + S every eigenspace of every algebra element has even
        # dimension, so the chop splits it by spinning one nucleus vector
        g = sym(3)
        ctx = ReductionContext(g, 2)
        simple = next(m for m in composition_factors(perm_module(g, ctx.field)) if m.dim == 2)
        zero = np.zeros((2, 2), dtype=np.int64)
        double = GModule(g, ctx.field, [
            Mat(ctx.field, np.block([[M.data, zero], [zero, M.data]])) for M in simple.mats
        ])
        for seed in range(4):
            factors = composition_factors(double, seed=seed)
            assert [m.dim for m in factors] == [2, 2]
            for m in factors:
                assert module_iso(m, simple) is not None

    def test_module_over_a_non_splitting_field_is_not_certified(self):
        # C3 on GF(2)^2 by the companion matrix of x^2 + x + 1: simple, but
        # not absolutely simple, so no algebra element has a one-dimensional
        # eigenspace and the algebra is GF(4), not all 2x2 matrices
        g = PermGroup(3, [perm_from_cycles(3, [(1, 2, 3)])])
        F = field_create(2)
        module = GModule(g, F, [Mat(F, [[0, 1], [1, 1]])])
        with pytest.raises(RandomBudgetExceeded, match="2-dimensional module over GF\\(2\\)"):
            composition_factors(module)


def _same_modules(a: list, b: list) -> bool:
    """Return whether two module lists have equal generator matrices, in order."""
    return len(a) == len(b) and all(
        x.dim == y.dim and all(np.array_equal(M.data, N.data) for M, N in zip(x.mats, y.mats))
        for x, y in zip(a, b)
    )


class TestChopStop:
    @staticmethod
    def square_of_alt5_four():
        # 4 x 4 over GF(4) has nine composition factors
        g = alt5()
        F = ReductionContext(g, 2).field
        four = next(m for m in composition_factors(perm_module(g, F)) if m.dim == 4)
        return tensor_module(four, four)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_list_ends_at_the_first_factor_stop_accepts(self, seed):
        module = self.square_of_alt5_four()
        full = composition_factors(module, seed=seed)
        assert len(full) == 9
        for k in range(1, len(full) + 1):
            seen = []

            def stop(factor):
                seen.append(factor)
                return len(seen) == k

            out = composition_factors(module, seed=seed, stop=stop)
            assert [id(m) for m in out] == [id(m) for m in seen]
            assert _same_modules(out, full[:k])

    def test_a_stop_that_always_accepts_returns_one_factor(self):
        module = self.square_of_alt5_four()
        out = composition_factors(module, seed=3, stop=lambda factor: True)
        assert _same_modules(out, composition_factors(module, seed=3)[:1])

    def test_no_stop_chops_in_full(self):
        module = self.square_of_alt5_four()
        seen = []
        out = composition_factors(module, seed=2, stop=lambda factor: seen.append(factor))
        assert [id(m) for m in out] == [id(m) for m in seen]
        assert _same_modules(out, composition_factors(module, seed=2, stop=None))
        assert sorted(m.dim for m in out) == [1, 1, 1, 1, 2, 2, 2, 2, 4]


class TestOneSpin:
    def test_spin_of_a5_permutation_module(self):
        g = alt5()
        F = ReductionContext(g, 2).field
        mats = [M.data for M in perm_module(g, F).mats]
        point = np.array([1, 0, 0, 0, 0], dtype=np.int64)
        ones = np.ones(5, dtype=np.int64)
        assert _spin(F, mats, point)[0].dim == 5
        span, script = _spin(F, mats, ones)
        assert span.dim == 1 and script == ()
        assert span.basis() == Mat(F, [[1, 1, 1, 1, 1]])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_iso_to_a_conjugated_copy_is_a_scalar_times_the_conjugator(self, seed):
        # by Schur's lemma the intertwiners S -> S^X are the multiples of X
        g = alt5()
        F = ReductionContext(g, 2).field
        simple = next(m for m in composition_factors(perm_module(g, F)) if m.dim == 4)
        rng = random.Random(100 + seed)
        while True:
            X = Mat(F, [[rng.randrange(F.q) for _ in range(4)] for _ in range(4)])
            if mat_rank(X) == 4:
                break
        moved = GModule(g, F, [mat_mul(mat_mul(mat_inv(X), M), X) for M in simple.mats])
        bridge = module_iso(simple, moved)
        assert bridge is not None
        nonzero = next((i, j) for i in range(4) for j in range(4) if X.data[i, j])
        c = F.mul(int(bridge.data[nonzero]), F.inv(int(X.data[nonzero])))
        assert c != 0
        assert bridge == Mat(F, F.vmul(np.int64(c), X.data))

    @staticmethod
    def counting_spins(monkeypatch) -> list:
        """Record (width, dimension) of every spin module_iso runs."""
        spins = []

        def counting_spin(field, mats_data, seed_row):
            span, script = _spin(field, mats_data, seed_row)
            spins.append((len(seed_row), span.dim))
            return span, script

        monkeypatch.setattr(modrep, "_spin", counting_spin)
        return spins

    @staticmethod
    def witness_nullity(a, b) -> int:
        """Return the nullity of theta(b) - root for the witness of a."""
        w = a.witness
        return mat_eigenspace(_element(b, w.words, w.coeffs), w.root).nrows

    def test_a_witness_root_that_is_no_eigenvalue_on_b_rejects_without_a_spin(self, monkeypatch):
        g = alt4()
        F = ReductionContext(g, 2).field
        triv = trivial_module(g, F)
        a, b = [m for m in composition_factors(perm_module(g, F)) if module_iso(m, triv) is None]
        assert self.witness_nullity(a, b) == 0
        spins = self.counting_spins(monkeypatch)
        assert module_iso(a, b) is None
        assert spins == []

    @pytest.mark.parametrize("build, seed, swap", [(alt4, 1, True), (alt5, 1, False)])
    def test_a_witness_line_on_b_is_rejected_by_the_pair_spin(self, build, seed, swap, monkeypatch):
        # two non-isomorphic simples: the A4 linears, or A5's two 2-dimensional
        # simples at p = 2, at the first seed from the given one on at which the
        # witness element of a has a one-dimensional root eigenspace on b as well
        g = build()
        ctx = ReductionContext(g, 2)
        for seed in range(seed, seed + 32):
            if build is alt4:
                triv = trivial_module(g, ctx.field)
                factors = composition_factors(perm_module(g, ctx.field), seed=seed)
                a, b = [m for m in factors if module_iso(m, triv) is None]
            else:
                a, b = [m for m in simple_modules(g, ctx, seed=seed) if m.dim == 2]
            if swap:
                a, b = b, a
            if self.witness_nullity(a, b) == 1:
                break
        assert self.witness_nullity(a, b) == 1
        spins = self.counting_spins(monkeypatch)
        assert module_iso(a, b) is None
        assert spins == []


def _psl27_three_times_eight():
    """Return 3 x 8 for PSL(2,7) over GF(64), whose seven factors hold five 3s."""
    g = corpus_entry("PSL(2,7)").build()
    simples = simple_modules(g, ReductionContext(g, 2))
    three = next(m for m in simples if m.dim == 3)
    eight = next(m for m in simples if m.dim == 8)
    return tensor_module(three, eight)


PRODUCTS = [
    pytest.param(TestChopStop.square_of_alt5_four, id="A5-4x4"),
    pytest.param(_psl27_three_times_eight, id="PSL27-3x8"),
]


class TestWitness:
    @pytest.mark.parametrize("product", PRODUCTS)
    @pytest.mark.parametrize("with_known", [False, True])
    def test_every_factor_carries_its_witness(self, product, with_known):
        # with known, repeated factors are matched, and their witness is carried over
        module = product()
        F = module.field
        for factor in composition_factors(module, seed=1, known=[] if with_known else None):
            w = factor.witness
            kernel = mat_eigenspace(_element(factor, w.words, w.coeffs), w.root)
            assert kernel.nrows == 1
            # written as mat_right_kernel writes a line, which module_iso's identity relies on
            assert w.vector[np.flatnonzero(w.vector)[-1]] == 1
            assert w.vector.any() and mat_rank(Mat(F, np.vstack([kernel.data, w.vector]))) == 1
            assert _spin(F, [M.data for M in factor.mats], w.vector)[0].dim == factor.dim
            # the script of the certifying spin replays a basis from the vector
            basis = _standard_basis(factor, w.script, w.vector)
            assert basis.nrows == factor.dim == mat_rank(basis)

    @pytest.mark.parametrize("module", [
        pytest.param(lambda: perm_module(alt5(), ReductionContext(alt5(), 3).field), id="A5-perm-p3"),
        *PRODUCTS,
    ])
    def test_the_chop_takes_no_charpoly_or_eigenspace_and_certifies_lines(self, module, monkeypatch):
        module = module()

        def refused(*args):
            raise AssertionError("the chop took a charpoly or an eigenspace")

        monkeypatch.setattr(modrep, "mat_charpoly", refused)
        monkeypatch.setattr(modrep, "mat_eigenspace", refused)
        witnesses = []
        chop_step = modrep._chop_step

        def recording_step(piece, rng):
            step = chop_step(piece, rng)
            if isinstance(step, modrep.Witness):
                witnesses.append((piece, step))
            return step

        monkeypatch.setattr(modrep, "_chop_step", recording_step)
        for seed in range(2):
            composition_factors(module, seed=seed)
        assert witnesses
        for piece, w in witnesses:
            F = piece.field
            theta = _element(piece, w.words, w.coeffs)
            vector = Mat(F, w.vector[None, :])
            assert w.vector.any() and mat_mul(vector, theta) == mat_scale(vector, w.root)
            assert mat_eigenspace(theta, w.root).nrows == 1

    @pytest.mark.parametrize("product", PRODUCTS)
    def test_known_gives_the_same_factors_in_fewer_steps(self, product, monkeypatch):
        module = product()
        steps = []
        chop_step = modrep._chop_step

        def counting_step(module, rng):
            steps[-1] += 1
            return chop_step(module, rng)

        monkeypatch.setattr(modrep, "_chop_step", counting_step)
        for seed in range(2):
            steps.append(0)
            full = composition_factors(module, seed=seed)
            steps.append(0)
            known = []
            factors = composition_factors(module, seed=seed, known=known)
            assert _same_modules(factors, full)
            assert steps[-1] < steps[-2]
            # the certified factors, pairwise non-isomorphic, in the order found
            assert [id(m) for m in factors if any(m is k for k in known)] == [id(k) for k in known]
            assert len(known) < len(factors)

    @staticmethod
    def alt5_four_and_a_conjugated_copy() -> tuple:
        """Return A5's simple 4 over GF(4) as the chop returns it, and a copy with no witness."""
        g = alt5()
        F = ReductionContext(g, 2).field
        simple = next(m for m in composition_factors(perm_module(g, F)) if m.dim == 4)
        X = Mat(F, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
        return simple, GModule(g, F, [mat_mul(mat_mul(mat_inv(X), M), X) for M in simple.mats])

    @staticmethod
    def counting_draws(monkeypatch) -> dict:
        """Count the random draws and charpolys of modrep from now on."""
        calls = {"draws": 0, "charpolys": 0}
        draw, charpoly = modrep._draw_element, modrep.mat_charpoly

        def counting_draw(rng, module):
            calls["draws"] += 1
            return draw(rng, module)

        def counting_charpoly(A):
            calls["charpolys"] += 1
            return charpoly(A)

        monkeypatch.setattr(modrep, "_draw_element", counting_draw)
        monkeypatch.setattr(modrep, "mat_charpoly", counting_charpoly)
        return calls

    def test_module_iso_with_a_witness_draws_nothing(self, monkeypatch):
        simple, moved = self.alt5_four_and_a_conjugated_copy()
        calls = self.counting_draws(monkeypatch)
        assert module_iso(simple, moved) is not None
        assert calls == {"draws": 0, "charpolys": 0}

    def test_a_first_module_without_a_witness_is_refused_until_chopped(self, monkeypatch):
        # the copy is simple but was not returned by the chop, and 1 + 1 is reducible
        simple, moved = self.alt5_four_and_a_conjugated_copy()
        g, F = simple.group, simple.field
        double = GModule(g, F, [Mat.identity(F, 2)] * len(g.generators))
        calls = self.counting_draws(monkeypatch)
        for first, second in ((moved, simple), (double, double)):
            with pytest.raises(ValueError, match="witness"):
                module_iso(first, second)
        assert calls == {"draws": 0, "charpolys": 0}
        # a simple module is its own one factor, which carries a witness
        [chopped] = composition_factors(moved)
        assert module_iso(chopped, simple) is not None
        assert module_iso(simple, chopped) is not None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_reducible_piece_of_a_known_dimension_is_never_matched(self, seed):
        # 1 + 1 has A5's 2-dimensional simples' dimension, but every algebra
        # element acts on it as a scalar, so no root eigenspace is a line
        g = alt5()
        ctx = ReductionContext(g, 2)
        known = simple_modules(g, ctx, seed=seed)
        double = GModule(g, ctx.field, [Mat.identity(ctx.field, 2)] * len(g.generators))
        twos = [m for m in known if m.dim == 2]
        assert len(twos) == 2
        assert all(module_iso(simple, double) is None for simple in twos)
        before = list(known)
        factors = composition_factors(double, seed=seed, known=known)
        assert [m.dim for m in factors] == [1, 1]
        assert known == before


def _pair_spin_iso(a: GModule, b: GModule):
    """Return the bridge a -> b that spinning (v_a, v_b) in a + b finds, or None.

    This is the known test as a reference.  v_b spans the kernel of
    theta(b) - root for the witness of a, when that kernel is a line.  By
    Schur's lemma the closure of (v_a, v_b) is all of a + b or the graph of
    the isomorphism taking v_a to v_b, whose reduced basis is [I | bridge].
    """
    w = a.witness
    F, n = a.field, a.dim
    ker_b = mat_eigenspace(_element(b, w.words, w.coeffs), w.root)
    if ker_b.nrows != 1:
        return None
    zero = np.zeros((n, n), dtype=np.int64)
    pair = [Mat(F, np.block([[Ma.data, zero], [zero, Mb.data]])) for Ma, Mb in zip(a.mats, b.mats)]
    graph = _closure_oracle(F, pair, np.concatenate([w.vector, ker_b.data[0]]))
    if graph.nrows != n:
        return None
    bridge = Mat(F, graph.data[:, n:])
    if any(mat_mul(Ma, bridge) != mat_mul(bridge, Mb) for Ma, Mb in zip(a.mats, b.mats)):
        return None
    return bridge


def _conjugated(module: GModule, rng) -> GModule:
    """Return a copy of a module conjugated by a random invertible matrix."""
    F, n = module.field, module.dim
    X = Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
    while mat_rank(X) < n:
        X = Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
    return GModule(module.group, F, [mat_mul(mat_mul(mat_inv(X), M), X) for M in module.mats])


class TestKnownTest:
    @pytest.mark.parametrize("product", PRODUCTS)
    @pytest.mark.parametrize("with_known", [False, True])
    def test_module_iso_returns_the_pair_spins_bridge(self, product, with_known):
        # with known, repeated factors carry a witness moved by an earlier bridge
        factors = composition_factors(product(), seed=1, known=[] if with_known else None)
        rng = random.Random(71)
        others = factors + [_conjugated(m, rng) for m in factors]
        outcomes = set()
        for a in factors:
            for b in others:
                if a.dim == b.dim:
                    bridge = module_iso(a, b)
                    assert bridge == _pair_spin_iso(a, b)
                    outcomes.add(bridge is None)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("build", [
        pytest.param(alt5, id="A5"),
        pytest.param(lambda: corpus_entry("PSL(2,7)").build(), id="PSL27"),
    ])
    def test_a_copy_of_a_simples_matrices_takes_the_identity(self, build, monkeypatch):
        g = build()
        simples = simple_modules(g, ReductionContext(g, 2))
        trivial = next(m for m in simples if all(M.data.tolist() == [[1]] for M in m.mats))
        for simple in simples:
            piece = tensor_module(trivial, simple)
            with monkeypatch.context() as patch:
                # no witness element is evaluated, so no eigenspace is taken
                patch.setattr(modrep, "_element", None)
                assert module_iso(simple, piece) == Mat.identity(simple.field, simple.dim)
            # the piece is a known factor, and carries the simple's witness vector unchanged
            known = list(simples)
            [factor] = composition_factors(piece, known=known)
            assert factor.mats == piece.mats and known == simples
            assert np.array_equal(factor.witness.vector, simple.witness.vector)
            assert factor.witness.script == simple.witness.script


def _row_space(F, rows, width: int) -> Mat:
    """Return the nonzero rows of the reduced echelon form of some rows."""
    R, pivots = mat_rref(Mat(F, np.asarray(rows, dtype=np.int64).reshape(-1, width)))
    return Mat(F, R.data[:len(pivots)])


def _closure_oracle(F, mats, seed) -> Mat:
    """Close a row under matrices by whole-space rrefs until the rank stops growing."""
    width = len(seed)
    S = _row_space(F, seed, width)
    while True:
        grown = _row_space(F, np.vstack([S.data] + [mat_mul(S, M).data for M in mats]), width)
        if grown.nrows == S.nrows:
            return S
        S = grown


def _flagged_mats(F, n, count, rng):
    """Random matrices with a chain of invariant subspaces, conjugated at random.

    Before conjugation each matrix is block upper triangular, so the rows
    that vanish on the first blocks are invariant.  Return the matrices, the
    conjugator X (a row v of the triangular frame is v X after it) and the
    block of each coordinate.
    """
    cuts = sorted(rng.sample(range(1, n), min(2, n - 1)))
    block = np.searchsorted(cuts, np.arange(n), side="right")
    X = Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
    while mat_rank(X) < n:
        X = Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
    mats = []
    for _ in range(count):
        M = np.array([[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        M[block[:, None] > block[None, :]] = 0
        mats.append(mat_mul(mat_mul(mat_inv(X), Mat(F, M)), X))
    return mats, X, block


SPAN_FIELDS = [(2, 1), (3, 2), (2, 6)]


class TestSpan:
    @pytest.mark.parametrize("p, m", SPAN_FIELDS)
    def test_reduced_echelon_after_every_add(self, p, m):
        F = field_create(p, m)
        rng = random.Random(61 + p + m)
        width = 7
        span = _Span(F, width)
        inserted = []
        for step in range(14):
            if inserted and step % 3 == 2:
                # a combination of earlier rows, which the span must refuse
                row = np.zeros(width, dtype=np.int64)
                for old in inserted:
                    row = F.vadd(row, F.vmul(np.int64(rng.randrange(F.q)), old))
            else:
                row = np.array([rng.randrange(F.q) if rng.random() < 0.6 else 0
                                for _ in range(width)], dtype=np.int64)
            before = _row_space(F, inserted, width).nrows
            inserted.append(row)
            expected = _row_space(F, inserted, width)
            assert span.add(row) == (expected.nrows > before)
            assert span.dim == len(span.pivots) == expected.nrows
            assert np.array_equal(span.rows[:, span.pivots], np.eye(span.dim))
            assert _row_space(F, span.rows, width) == expected
            assert span.echelon() == mat_rref(span.basis())

    @pytest.mark.parametrize("p, m", SPAN_FIELDS)
    def test_spin_matches_the_closure_oracle(self, p, m):
        F = field_create(p, m)
        rng = random.Random(67 + p + m)
        for _ in range(8):
            n = rng.randrange(2, 9)
            mats, X, block = _flagged_mats(F, n, rng.randrange(1, 4), rng)
            # a seed in the frame that vanishes on the first blocks up to a random one
            start = rng.randrange(block[-1] + 1)
            frame = np.array([rng.randrange(F.q) if b >= start else 0 for b in block])
            seed = mat_mul(Mat(F, [frame]), X).data[0]
            span, script = _spin(F, [M.data for M in mats], seed)
            assert _row_space(F, span.rows, n) == _closure_oracle(F, mats, seed)
            # replayed from the seed, the script gives a basis of the span
            rows = [seed]
            for i, j in script:
                rows.append(mat_mul(Mat(F, [rows[i]]), mats[j]).data[0])
            assert _row_space(F, rows, n) == _row_space(F, span.rows, n)
            assert len(rows) == max(span.dim, 1)


def _square_pieces(square: GModule, n: int) -> list:
    """Return Alt^2 V and Sym^2 V of a square V x V, dim V = n."""
    B, pivots = _alternating_square(square.field, n)
    return [sub_module(square, B, pivots), quotient_module(square, B, pivots)]


def _a_simple(g, p, dim):
    """Return a simple module of the given dimension and its reduction context."""
    ctx = ReductionContext(g, p)
    return next(m for m in simple_modules(g, ctx) if m.dim == dim), ctx


class TestSquareSplit:
    @pytest.mark.parametrize("build, p, n", [
        pytest.param(alt5, 2, 4, id="A5-4-mod2"),
        pytest.param(alt5, 3, 4, id="A5-4-mod3"),
        pytest.param(lambda: corpus_entry("PSL(2,7)").build(), 2, 3, id="PSL27-3-mod2"),
    ])
    def test_the_alternating_tensors_are_invariant(self, build, p, n):
        V, ctx = _a_simple(build(), p, n)
        F = ctx.field
        B, pivots = _alternating_square(F, n)
        assert B.nrows == n * (n - 1) // 2
        R, rref_pivots = mat_rref(B)
        assert R == B and tuple(rref_pivots) == pivots
        for M in tensor_module(V, V).mats:
            assert mat_rank(Mat(F, np.vstack([B.data, mat_mul(B, M).data]))) == B.nrows
        alt, sym2 = _square_pieces(tensor_module(V, V), n)
        assert (alt.dim, sym2.dim) == (n * (n - 1) // 2, n * (n + 1) // 2)

    @staticmethod
    def brauer_rows(factors, ctx) -> list:
        classes = factors[0].group.conjugacy_classes()
        return sorted(sort_keys([
            [root_sum(classes.orders[k], brauer_value(m, classes.reps[k], classes.orders[k], ctx))
             for k in p_regular_indices(classes, ctx.p)]
            for m in factors
        ], ctx.exponent))

    @pytest.mark.parametrize("p, count", [(2, 9), (3, 6)])
    def test_the_square_has_the_factors_of_its_two_pieces(self, p, count):
        # 0 -> Alt^2 V -> V x V -> Sym^2 V -> 0 is exact in every characteristic
        V, ctx = _a_simple(alt5(), p, 4)
        square = tensor_module(V, V)
        whole = composition_factors(square, seed=1)
        split = [m for piece in _square_pieces(square, 4) for m in composition_factors(piece, seed=1)]
        assert len(whole) == count
        assert self.brauer_rows(whole, ctx) == self.brauer_rows(split, ctx)

    def test_a_square_of_a_linear_module_is_chopped_whole(self, monkeypatch):
        # D8's permutation module at p = 3 holds three of its five simples,
        # so the closure starts with the square of the trivial module
        g = corpus_entry("D8").build()
        tensors, chopped = [], []
        tensor, chop = modrep.tensor_module, modrep.composition_factors

        def recording_tensor(a, b):
            tensors.append((a, b, tensor(a, b)))
            return tensors[-1][2]

        def recording_chop(module, seed=0, **kwargs):
            chopped.append(module)
            return chop(module, seed, **kwargs)

        monkeypatch.setattr(modrep, "tensor_module", recording_tensor)
        monkeypatch.setattr(modrep, "composition_factors", recording_chop)
        simple_modules(g, ReductionContext(g, 3))
        a, b, product = tensors[0]
        assert a is b and a.dim == 1
        assert chopped[1] is product
        assert all(m.dim > 0 for m in chopped)


class TestSimpleModules:
    def test_sym3_mod2(self):
        g = sym(3)
        simples = simple_modules(g, ReductionContext(g, 2))
        assert sorted(m.dim for m in simples) == [1, 2]

    def test_alt4_mod2(self):
        g = alt4()
        simples = simple_modules(g, ReductionContext(g, 2))
        assert sorted(m.dim for m in simples) == [1, 1, 1]

    def test_sym4_both_primes(self):
        g = sym(4)
        assert sorted(m.dim for m in simple_modules(g, ReductionContext(g, 2))) == [1, 2]
        assert sorted(m.dim for m in simple_modules(g, ReductionContext(g, 3))) == [1, 1, 3, 3]

    def test_alt5_mod2_and_mod5(self):
        g = alt5()
        assert sorted(m.dim for m in simple_modules(g, ReductionContext(g, 2))) == [1, 2, 2, 4]
        assert sorted(m.dim for m in simple_modules(g, ReductionContext(g, 5))) == [1, 3, 5]

    def test_sl28_mod2(self):
        g = special_linear_2_8()
        simples = simple_modules(g, ReductionContext(g, 2))
        assert sorted(m.dim for m in simples) == [1, 2, 2, 2, 4, 4, 4, 8]

    def test_sl28_mod3(self):
        g = special_linear_2_8()
        simples = simple_modules(g, ReductionContext(g, 3))
        assert sorted(m.dim for m in simples) == [1, 7, 9, 9, 9]


def _full_chop_closure(group, context, seed):
    """Return the simple modules as a tensor closure that chops every product in full.

    A square V x V of dimension n > 1 is chopped as Alt^2 V and then Sym^2 V.
    """
    target = len(p_regular_indices(group.conjugacy_classes(), context.p))
    rng = random.Random(seed)
    found = []

    def register(candidate):
        for known in found:
            if known.dim == candidate.dim and module_iso(known, candidate) is not None:
                return
        found.append(candidate)

    for factor in composition_factors(perm_module(group, context.field),
                                      seed=rng.randrange(2 ** 32)):
        register(factor)
    processed = set()
    while len(found) < target:
        _, i, j = min(
            (found[i].dim * found[j].dim, i, j)
            for i in range(len(found))
            for j in range(i, len(found))
            if (i, j) not in processed and found[i].dim * found[j].dim <= TENSOR_DIM_CAP
        )
        processed.add((i, j))
        pieces = [tensor_module(found[i], found[j])]
        if i == j and found[i].dim > 1:
            pieces = _square_pieces(pieces[0], found[i].dim)
        for piece in pieces:
            if len(found) == target:
                break
            for factor in composition_factors(piece, seed=rng.randrange(2 ** 32)):
                register(factor)
                if len(found) == target:
                    break
    return found


class TestClosureStop:
    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "SL(2,8)"])
    def test_same_simples_as_a_full_chop_in_fewer_steps(self, name, monkeypatch):
        entry = corpus_entry(name)
        g = entry.build()
        steps = []
        chop_step = modrep._chop_step

        def counting_step(module, rng):
            steps[-1] += 1
            return chop_step(module, rng)

        chops = []
        chop = modrep.composition_factors

        def recording_chop(module, seed=0, **kwargs):
            chops.append(chop(module, seed, **kwargs))
            return chops[-1]

        monkeypatch.setattr(modrep, "_chop_step", counting_step)
        monkeypatch.setattr(modrep, "composition_factors", recording_chop)
        saved = 0
        for p in entry.target_primes(g):
            ctx = ReductionContext(g, p)
            for seed in range(2):
                steps.append(0)
                reference = _full_chop_closure(g, ctx, seed)
                steps.append(0)
                simples = simple_modules(g, ctx, seed=seed)
                assert _same_modules(simples, reference), (p, seed)
                # the last chop ends at the factor that completes the list
                assert chops[-1][-1] is simples[-1], (p, seed)
                assert steps[-1] <= steps[-2], (p, seed)
                saved += steps[-2] - steps[-1]
        assert saved > 0

    @pytest.mark.parametrize("p, dims", [(2, [1, 4]), (3, [1, 4]), (5, [1, 3])])
    def test_capped_closure_stalls_with_the_factors_found(self, p, dims, monkeypatch):
        monkeypatch.setattr(modrep, "TENSOR_DIM_CAP", 4)
        g = alt5()
        with pytest.raises(ClosureStalled, match=f"order 60 at p = {p} ") as caught:
            simple_modules(g, ReductionContext(g, p))
        assert sorted(m.dim for m in caught.value.partial) == dims


class TestBrauerTable:
    def test_sym3_mod2_values(self):
        tab = brauer_table(sym(3), 2)
        assert tab.dims == (1, 2)
        assert [tab.classes.orders[k] for k in tab.regular] == [1, 3]
        assert tab.rows[0][0] == 1 and tab.rows[0][1] == 1
        assert tab.rows[1][0] == 2 and tab.rows[1][1] == -1

    def test_alt4_mod2_values(self):
        tab = brauer_table(alt4(), 2)
        assert tab.dims == (1, 1, 1)
        cube_a, cube_b = Cyc.root(3), Cyc.root(3, 2)
        nontrivial = [row for row in tab.rows if not all(v == 1 for v in row)]
        assert len(nontrivial) == 2
        for row in nontrivial:
            pair = [row[1], row[2]]
            assert (pair[0] == cube_a and pair[1] == cube_b) or (
                pair[0] == cube_b and pair[1] == cube_a
            )

    def test_alt5_mod2_golden_values(self):
        tab = brauer_table(alt5(), 2)
        assert tab.dims == (1, 2, 2, 4)
        five_cols = [
            i for i, k in enumerate(tab.regular) if tab.classes.orders[k] == 5
        ]
        assert len(five_cols) == 2
        want_a = Cyc.root(5) + Cyc.root(5, 4)
        want_b = Cyc.root(5, 2) + Cyc.root(5, 3)
        twos = [row for d, row in zip(tab.dims, tab.rows) if d == 2]
        for row in twos:
            vals = [row[i] for i in five_cols]
            assert (vals[0] == want_a and vals[1] == want_b) or (
                vals[0] == want_b and vals[1] == want_a
            )

    def test_identity_column_is_dims(self):
        tab = brauer_table(sym(4), 3)
        identity_col = tab.regular.index(0)
        for d, row in zip(tab.dims, tab.rows):
            assert row[identity_col] == d

    # the power-read classes include the non-coprime powers 4 -> 2 (SL(2,3)
    # at p = 3, S5 at p = 5, C12 at p = 3 and 5), 6 -> 3 (S5 at p = 5),
    # 9 -> 3 (SL(2,8) at p = 2 and 7) and 12 -> 4 (C12 at p = 5)
    @pytest.mark.parametrize("name, p", [
        ("S5", 2), ("S5", 3), ("S5", 5),
        ("PSL(2,7)", 2), ("PSL(2,7)", 3), ("PSL(2,7)", 7),
        ("SL(2,8)", 2), ("SL(2,8)", 3), ("SL(2,8)", 7),
        ("SL(2,3)", 2), ("SL(2,3)", 3),
        ("C12", 2), ("C12", 3), ("C12", 5),
    ])
    def test_every_class_matches_the_eigenspace_oracle(self, name, p):
        g = corpus_entry(name).build()
        tab = brauer_table(g, p)
        ctx, classes = tab.context, tab.classes
        assert len(tab) == len(tab.regular)
        for module, row in zip(tab.simples, tab.rows):
            for k, value in zip(tab.regular, row):
                want = _eigenspace_value(module, classes.reps[k], classes.orders[k], ctx)
                assert value == want, k

    def test_one_charpoly_per_class_no_earlier_class_powers_to(self, monkeypatch):
        # SL(2,8) at p = 2: 9A powers to 9B, 9C, 3A and 1A, and 7A to 7B and
        # 7C, so each simple module takes two charpolys and the identity none
        g = special_linear_2_8()
        classes = g.conjugacy_classes()
        calls = []
        value = modrep.brauer_value

        def counting_value(module, elt, order, ctx):
            calls.append((module, elt, order))
            return value(module, elt, order, ctx)

        monkeypatch.setattr(modrep, "brauer_value", counting_value)
        tab = brauer_table(g, 2)
        assert len(calls) == 2 * len(tab.simples)
        for module in tab.simples:
            assert sorted(order for m, _, order in calls if m is module) == [7, 9]
        # each charpoly is taken at a member of its class with the shortest word
        lengths = {}
        for x in g.elements():
            lengths.setdefault(classes.classes_of([x])[0], []).append(len(g.word(x)))
        for _, elt, _ in calls:
            assert len(g.word(elt)) == min(lengths[classes.classes_of([elt])[0]])

    def test_determinism_across_seeds(self):
        g = sym(4)
        t1 = brauer_table(g, 3, seed=0)
        t2 = brauer_table(g, 3, seed=1234)
        assert t1.dims == t2.dims
        for r1, r2 in zip(t1.rows, t2.rows):
            assert all(a == b for a, b in zip(r1, r2))


def _eigenspace_value(module, g, order, ctx) -> Cyc:
    """Return the Brauer character value at g, each eigenvalue w_n^j counted
    dim - rank(action - w_n^j I) times."""
    F = ctx.field
    eye = Mat.identity(F, module.dim)
    action = eye
    for i in module.group.word(g):
        action = mat_mul(action, module.mats[i])
    w_n = F.pow(ctx.w, ctx.eprime // order)
    want = cyc_zero(order)
    for j in range(order):
        shifted = mat_sub(action, mat_scale(eye, F.pow(w_n, j)))
        want = want + Cyc.root(order, j) * (module.dim - mat_rank(shifted))
    return want


class TestBrauerValue:
    @pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "SL(2,8)"])
    def test_values_match_eigenspace_ranks(self, name):
        entry = corpus_entry(name)
        g = entry.build()
        classes = g.conjugacy_classes()
        for p in entry.target_primes(g):
            ctx = ReductionContext(g, p)
            for module in simple_modules(g, ctx):
                for k in p_regular_indices(classes, p):
                    rep, order = classes.reps[k], classes.orders[k]
                    want = _eigenspace_value(module, rep, order, ctx)
                    assert root_sum(order, brauer_value(module, rep, order, ctx)) == want

    def test_an_action_of_the_wrong_order_is_not_semisimple(self):
        # C5 at p = 2 is over GF(16); its generator acts by an element of
        # order 15, which has no eigenvalue among the fifth roots of unity
        g = cyclic_group(5)
        ctx = ReductionContext(g, 2)
        F = ctx.field
        assert F.q == 16
        module = GModule(g, F, [Mat(F, [[F.primitive]])])
        with pytest.raises(NotSemisimpleElement):
            brauer_value(module, g.generators[0], 5, ctx)
