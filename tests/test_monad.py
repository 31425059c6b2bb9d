import itertools
from functools import lru_cache

import pytest

from powdom import catalog, monad
from powdom.algebra import OpTag, is_homomorphism
from powdom.errors import NotMonotone, SizeGuardExceeded, TypeMismatch
from powdom.funcspace import MonoMap, compose, enumerate_monotone, identity_map
from powdom.monad import (
    PredicateTransformer,
    StateTransformer,
    all_predicate_transformers,
    all_state_transformers,
    check_monad_laws,
    compose_transformers,
    delta,
    functional_space,
    functor_action,
    kleisli_lift,
    p_transform,
    q_transform,
)
from powdom.poset import FinPoset, is_order_iso, set_inclusion_poset, all_down_sets

POSETS = catalog.builtin_posets()
ALGS = catalog.builtin_algebras()


def tagged_two_ang(tag):
    return catalog.two_valued(f"2_ang_{tag.value}", (("join", tag), ("zero", OpTag.EQ)))


class TestDelta:
    def test_two_chain_tables(self):
        # predicates over C2 in table order: (0,0) < (0,1) < (1,1);
        # evaluation at bot reads the first coordinate, at top the second
        ds = delta(POSETS["C2"], ALGS["2_ang"])
        assert ds[0].table == (0, 0, 1)
        assert ds[1].table == (0, 1, 1)

    def test_singleton(self):
        ds = delta(POSETS["one"], ALGS["2_ang"])
        space = functional_space(POSETS["one"], ALGS["2_ang"])
        assert len(ds) == 1
        assert ds[0].table == tuple(
            m.table[0] for m in space.predicates.maps
        )

    @pytest.mark.parametrize("pname", sorted(POSETS))
    @pytest.mark.parametrize("aname", ["2_ang", "2_dem"])
    def test_order_embedding(self, pname, aname):
        poset = POSETS[pname]
        ds = delta(poset, ALGS[aname])
        for i in range(poset.size):
            for j in range(poset.size):
                assert poset.leq[i][j] == ds[i].leq(ds[j])


class TestKleisli:
    def test_lift_of_unit_is_identity(self):
        space = functional_space(POSETS["C2"], ALGS["2_ang"])
        unit = space.unit
        for phi in space.space.maps:
            assert kleisli_lift(unit, phi).table == phi.table

    def test_lift_at_point_evaluations(self):
        x, y = POSETS["A2"], POSETS["C2"]
        r = ALGS["2_ang"]
        xs = functional_space(x, r)
        ys = functional_space(y, r)
        for t in all_state_transformers(x, ys)[:10]:
            for i in range(x.size):
                assert kleisli_lift(t, xs.delta(i)).table == t(i).table

    def test_constant_transformer(self):
        # a transformer constant at psi lifts phi to g |-> phi(const psi(g))
        x = POSETS["C2"]
        r = ALGS["2_ang"]
        xs = functional_space(x, r)
        psi = xs.space.maps[0]
        t = xs.transformer(x, (0,) * x.size)
        for phi in xs.space.maps:
            lifted = kleisli_lift(t, phi)
            for g in range(len(xs.predicates)):
                const_pred = xs.predicates.index((psi.table[g],) * x.size)
                assert lifted.table[g] == phi.table[const_pred]

    def test_type_mismatch(self):
        x, y = POSETS["C2"], POSETS["A2"]
        r = ALGS["2_ang"]
        ys = functional_space(y, r)
        t = all_state_transformers(x, ys)[0]
        wrong = functional_space(y, r).space.maps[0]
        with pytest.raises(TypeMismatch):
            kleisli_lift(t, wrong)


def pointwise_lift(t, phi):
    """The defining formula of the lifting, g |-> phi(x |-> t(x)(g)), one
    predicate at a time."""
    xs = functional_space(t.source, t.space.algebra)
    out = []
    for g in range(len(t.space.predicates)):
        inner = tuple(t(i).table[g] for i in range(t.source.size))
        out.append(phi.table[xs.predicates.index(inner)])
    return tuple(out)


LIFT_ALGEBRAS = [ALGS["2_ang"], ALGS["2_dem"], tagged_two_ang(OpTag.LE)]
SMALL = ["one", "C2", "A2"]


@pytest.fixture
def cold_spaces(monkeypatch):
    """An empty functional_space cache for one test, so what the test counts
    does not depend on what earlier tests built; the shared cache returns
    after it."""
    fresh = lru_cache(maxsize=None)(monad._functional_space.__wrapped__)
    monkeypatch.setattr(monad, "_functional_space", fresh)


class TestLiftIsPrecomposition:
    """lift(t)(phi) = phi . p(t), against the pointwise definition, over
    every transformer between the small posets."""

    @pytest.mark.parametrize("r", LIFT_ALGEBRAS, ids=lambda r: r.name)
    @pytest.mark.parametrize("xn", SMALL)
    @pytest.mark.parametrize("yn", SMALL)
    def test_matches_the_pointwise_definition(self, r, xn, yn):
        xs = functional_space(POSETS[xn], r)
        ys = functional_space(POSETS[yn], r)
        for t in all_state_transformers(POSETS[xn], ys):
            for phi in xs.space.maps:
                lifted = kleisli_lift(t, phi)
                assert lifted.source == ys.predicates.poset
                assert lifted.table == pointwise_lift(t, phi)
                # a second lift through the same t reads the kept p(t)
                assert kleisli_lift(t, phi).table == lifted.table
                s = p_transform(t)
                assert lifted.table == tuple(phi.table[i] for i in s.table)

    @pytest.mark.parametrize("r", LIFT_ALGEBRAS, ids=lambda r: r.name)
    def test_p_transform_is_the_kept_table(self, r):
        x, y = POSETS["A2"], POSETS["C2"]
        xs = functional_space(x, r)
        ys = functional_space(y, r)
        for t in all_state_transformers(x, ys):
            s = p_transform(t)
            assert s is p_transform(t)
            assert s.x_space is xs and s.y_space is ys
            for g in range(len(ys.predicates)):
                inner = tuple(t(i).table[g] for i in range(x.size))
                assert s.table[g] == xs.predicates.index(inner)

    def test_functional_over_the_wrong_poset(self):
        r = ALGS["2_ang"]
        x, y = POSETS["C2"], POSETS["A2"]
        ys = functional_space(y, r)
        for t in all_state_transformers(x, ys):
            kleisli_lift(t, functional_space(x, r).space.maps[0])
            with pytest.raises(TypeMismatch):
                kleisli_lift(t, ys.space.maps[0])
            with pytest.raises(TypeMismatch):
                kleisli_lift(t, functional_space(POSETS["chain3"], r).space.maps[0])

    def test_transformers_take_the_guard_of_their_target_space(self):
        # [[one -> 2] -> 2] fits a guard of 8, but [[A2 -> 2] -> 2] has 2^4
        # tables on the a priori bound, so everything that builds the
        # source's spaces refuses
        r = ALGS["2_ang"]
        x = POSETS["A2"]
        t = functional_space(POSETS["one"], r, 8).transformer(x, (0, 0))
        into_a2 = all_state_transformers(POSETS["one"], functional_space(x, r))[0]
        phi = functional_space(x, r).space.maps[0]
        for derived in (
            t.predicate_transformer,
            t.lift_table,
            lambda: kleisli_lift(t, phi),
            lambda: compose_transformers(into_a2, t),
        ):
            with pytest.raises(SizeGuardExceeded):
                derived()


    def test_size_guard_still_applies_after_p_is_kept(self):
        # p(t) kept on the unit of A2, whose source spaces are built under
        # the default guard, does not let a transformer from A2 into a space
        # with a guard of 8 skip the build of A2's spaces under its own guard
        r = ALGS["2_ang"]
        x = POSETS["A2"]
        t = functional_space(x, r).unit
        phi = functional_space(x, r).space.maps[0]
        assert kleisli_lift(t, phi).table == phi.table
        small = functional_space(POSETS["one"], r, 8).transformer(x, (0, 0))
        for _ in range(2):
            with pytest.raises(SizeGuardExceeded):
                kleisli_lift(small, phi)
        assert t.predicate_transformer() is p_transform(t)


class TestFunctorAction:
    def test_identity(self):
        x = POSETS["A2"]
        r = ALGS["2_ang"]
        space = functional_space(x, r)
        u = identity_map(x)
        for phi in space.space.maps:
            assert functor_action(u, phi, r).table == phi.table

    def test_on_point_evaluations(self):
        # naturality: pushing x^ forward along u gives (u x)^
        x, y = POSETS["A2"], POSETS["C2"]
        r = ALGS["2_ang"]
        xs, ys = functional_space(x, r), functional_space(y, r)
        for u in enumerate_monotone(x, y).maps:
            for i in range(x.size):
                assert (
                    functor_action(u, xs.delta(i), r).table
                    == ys.delta(u.table[i]).table
                )

    def test_functorial(self):
        x, y, z = POSETS["C2"], POSETS["A2"], POSETS["C2"]
        r = ALGS["2_ang"]
        xs = functional_space(x, r)
        for u in enumerate_monotone(x, y).maps:
            for v in enumerate_monotone(y, z).maps:
                for phi in xs.space.maps:
                    assert (
                        functor_action(compose(u, v), phi, r).table
                        == functor_action(v, functor_action(u, phi, r), r).table
                    )

    def test_agrees_with_lifted_unit(self):
        # the functor action is the lifting of (unit . u)
        x, y = POSETS["C2"], POSETS["A2"]
        r = ALGS["2_ang"]
        xs, ys = functional_space(x, r), functional_space(y, r)
        for u in enumerate_monotone(x, y).maps:
            t = ys.transformer(x, (ys.delta_indices[u.table[i]] for i in range(x.size)))
            for phi in xs.space.maps:
                assert functor_action(u, phi, r).table == kleisli_lift(t, phi).table


class TestTransformers:
    def test_p_of_unit_after_map_is_precompose(self):
        x, y = POSETS["A2"], POSETS["C2"]
        r = ALGS["2_ang"]
        xs, ys = functional_space(x, r), functional_space(y, r)
        for u in enumerate_monotone(x, y).maps:
            t = ys.transformer(x, (ys.delta_indices[u.table[i]] for i in range(x.size)))
            s = p_transform(t)
            for g_idx, g in enumerate(ys.predicates.maps):
                pulled = tuple(g.table[u.table[i]] for i in range(x.size))
                assert s.table[g_idx] == xs.predicates.index(pulled)

    def test_q_of_identity_is_unit(self):
        x = POSETS["C2"]
        r = ALGS["2_ang"]
        xs = functional_space(x, r)
        ident = all_predicate_transformers(xs, xs)
        s = next(
            s for s in ident if s.table == tuple(range(len(xs.predicates)))
        )
        assert q_transform(s) is xs.unit

    @pytest.mark.parametrize("xn", ["one", "C2", "A2"])
    @pytest.mark.parametrize("yn", ["one", "C2", "A2"])
    def test_roundtrips(self, xn, yn):
        x, y = POSETS[xn], POSETS[yn]
        r = ALGS["2_ang"]
        xs, ys = functional_space(x, r), functional_space(y, r)
        for t in all_state_transformers(x, ys):
            assert q_transform(p_transform(t)) is t
        for s in all_predicate_transformers(ys, xs):
            assert p_transform(q_transform(s)) == s

    @pytest.mark.parametrize("yn", ["one", "C2"])
    def test_roundtrips_over_the_empty_poset(self, yn):
        # the transpose has no rows when the source is empty, and no
        # columns when the target is, so both sides are covered
        empty, y = FinPoset((), ()), POSETS[yn]
        r = ALGS["2_ang"]
        es, ys = functional_space(empty, r), functional_space(y, r)
        # one predicate over no points, and the unit has no points to send
        assert len(es.predicates) == 1 and len(es.space) == 2
        assert es.delta_indices == es.unit.table == ()
        assert p_transform(es.unit).table == (0,)
        for x, xs, target in ((empty, es, ys), (y, ys, es)):
            ts = all_state_transformers(x, target)
            assert ts
            for t in ts:
                assert q_transform(p_transform(t)) is t
            for s in all_predicate_transformers(target, xs):
                assert p_transform(q_transform(s)) == s

    def test_hom_correspondence(self):
        # transformers valued in op-preserving functionals match exactly the
        # op-preserving predicate transformers
        x, y = POSETS["C2"], POSETS["A2"]
        r = ALGS["2_ang"]
        xs, ys = functional_space(x, r), functional_space(y, r)
        images = {
            p_transform(t).table
            for t in all_state_transformers(x, ys, ys.hom_indices)
        }
        homs = {
            s.table
            for s in all_predicate_transformers(ys, xs)
            if is_homomorphism(s.as_map(), ys.pred_algebra, xs.pred_algebra)
        }
        assert images == homs


class TestFamilies:
    def test_hoare_functionals_count(self):
        space = functional_space(POSETS["C2"], ALGS["2_ang"])
        assert len(space.hom_indices) == 3
        downs = all_down_sets(POSETS["C2"])
        assert is_order_iso(
            set_inclusion_poset(downs),
            space.family_poset(space.hom_indices),
            [0, 1, 2],
        )

    def test_antichain_counts(self):
        assert len(functional_space(POSETS["A2"], ALGS["2_ang"]).hom_indices) == 4

    def test_point_evaluations_always_inside(self):
        for aname in ("2_ang", "2_dem", "lattice2"):
            space = functional_space(POSETS["one"], ALGS[aname])
            assert set(space.delta_indices) <= set(space.hom_indices)

    def test_relaxed_equals_hom_for_exact_tags(self):
        space = functional_space(POSETS["A2"], ALGS["2_ang"])
        assert space.relaxed_indices == space.hom_indices

    def test_relaxed_with_lax_join_on_chain(self):
        # with the join tagged lax, monotonicity already forces equality on a
        # chain, so the relaxed family coincides with the homs here
        r = tagged_two_ang(OpTag.LE)
        space = functional_space(POSETS["C2"], r)
        assert set(space.hom_indices) <= set(space.relaxed_indices)
        assert space.relaxed_indices == space.hom_indices

    def test_relaxed_strictly_larger_with_oplax_join(self):
        r = tagged_two_ang(OpTag.GE)
        space = functional_space(POSETS["A2"], r)
        assert set(space.hom_indices) < set(space.relaxed_indices)

    def test_point_evaluations_relaxed_for_any_tagging(self):
        for tag in (OpTag.LE, OpTag.GE, OpTag.EQ):
            space = functional_space(POSETS["C2"], tagged_two_ang(tag))
            assert set(space.delta_indices) <= set(space.relaxed_indices)

    def test_free_on_chain(self):
        space = functional_space(POSETS["C2"], ALGS["2_ang"])
        assert set(space.free_indices) == set(space.hom_indices)

    def test_free_on_antichain(self):
        space = functional_space(POSETS["A2"], ALGS["2_ang"])
        frees = set(space.free_indices)
        zero = space.space.index(tuple(0 for _ in space.predicates.maps))
        join_of_deltas = space.func_algebra.resolve("join")(space.delta_indices)
        assert frees == set(space.delta_indices) | {zero, join_of_deltas}

    def test_free_on_singleton(self):
        assert len(functional_space(POSETS["one"], ALGS["2_ang"]).free_indices) == 2

    def test_relaxed_superset_of_hom(self):
        for tag in (OpTag.LE, OpTag.GE):
            for pname in ("C2", "A2", "vee"):
                space = functional_space(POSETS[pname], tagged_two_ang(tag))
                assert set(space.hom_indices) <= set(space.relaxed_indices)


class TestMonadLaws:
    def test_endpoint_validation(self):
        r = ALGS["2_ang"]
        ys = functional_space(POSETS["C2"], r)
        t = all_state_transformers(POSETS["C2"], ys)[0]
        with pytest.raises(TypeMismatch):
            check_monad_laws(POSETS["A2"], POSETS["C2"], POSETS["C2"], r, t, t)
        # the unit and the functionals are read off t's spaces, so a stated
        # algebra other than t's is refused rather than ignored
        with pytest.raises(TypeMismatch):
            check_monad_laws(POSETS["C2"], POSETS["C2"], POSETS["C2"], ALGS["2_dem"], t, t)

    def test_unit_laws_spot(self):
        x = POSETS["C2"]
        r = ALGS["2_ang"]
        ys = functional_space(POSETS["A2"], r)
        t = all_state_transformers(x, ys)[5]
        checks = check_monad_laws(x, POSETS["A2"], POSETS["A2"], r, t, all_state_transformers(POSETS["A2"], ys)[3])
        assert all(c.passed for c in checks)

    def test_composition_respects_lifting(self):
        x = y = z = POSETS["C2"]
        r = ALGS["2_dem"]
        ys, zs = functional_space(y, r), functional_space(z, r)
        t = all_state_transformers(x, ys)[2]
        rr = all_state_transformers(y, zs)[4]
        comp = compose_transformers(t, rr)
        xs = functional_space(x, r)
        for phi in xs.space.maps:
            assert (
                kleisli_lift(comp, phi).table
                == kleisli_lift(rr, kleisli_lift(t, phi)).table
            )


class TestLiftingPreservation:
    def test_lifting_is_op_preserving(self):
        # lifting commutes with the pointwise ops on functionals
        x, y = POSETS["C2"], POSETS["A2"]
        r = ALGS["2_ang"]
        xs, ys = functional_space(x, r), functional_space(y, r)
        for t in all_state_transformers(x, ys)[:12]:
            for args in itertools.product(range(len(xs.space)), repeat=2):
                combined = xs.func_algebra.resolve("join")(args)
                lhs = kleisli_lift(t, xs.functional(combined)).table
                parts = tuple(
                    ys.space.index(kleisli_lift(t, xs.functional(a)).table)
                    for a in args
                )
                assert lhs == ys.functional(ys.func_algebra.resolve("join")(parts)).table

    def test_lifting_preserves_homs(self):
        x, y = POSETS["A2"], POSETS["C2"]
        r = ALGS["2_dem"]
        xs, ys = functional_space(x, r), functional_space(y, r)
        hom_set = set(ys.hom_indices)
        for t in all_state_transformers(x, ys, ys.hom_indices):
            for i in xs.hom_indices:
                lifted = kleisli_lift(t, xs.functional(i))
                assert ys.space.index(lifted.table) in hom_set


def test_unit_on_algebra_is_op_preserving():
    # evaluation maps restricted to op-preserving functionals preserve ops
    from powdom.algebra import lift_pointwise
    from powdom.poset import sub_poset

    for aname in ("2_ang", "2_dem", "lattice2"):
        a = ALGS[aname]
        expo = enumerate_monotone(a.carrier, a.carrier)
        hom_idx = [i for i, m in enumerate(expo.maps) if is_homomorphism(m, a, a)]
        hom_poset = sub_poset(expo.poset, hom_idx)
        lifted = lift_pointwise(a, hom_poset)
        table = tuple(
            lifted.expo.index(tuple(expo.maps[h].table[v] for h in hom_idx))
            for v in range(a.carrier.size)
        )
        delta_a = MonoMap(a.carrier, lifted.carrier, table)
        assert is_homomorphism(delta_a, a, lifted).passed


class TestTransformerValidation:
    """Transformer tables are validated as MonoMaps into the functionals
    (state transformers) or the target predicates (predicate transformers)."""

    def setup_method(self):
        self.r = ALGS["2_ang"]
        self.c2 = functional_space(POSETS["C2"], self.r)

    def test_state_transformer_table_is_a_monotone_map(self):
        for m in enumerate_monotone(POSETS["C2"], self.c2.space.poset).maps:
            assert self.c2.transformer(POSETS["C2"], m.table).table == m.table
        # bot to the evaluation at top and top to the evaluation at bot
        swapped = tuple(reversed(self.c2.delta_indices))
        with pytest.raises(NotMonotone):
            self.c2.transformer(POSETS["C2"], swapped)
        with pytest.raises(TypeMismatch):
            self.c2.transformer(POSETS["C2"], (0, len(self.c2.space)))
        with pytest.raises(TypeMismatch):
            self.c2.transformer(POSETS["C2"], (0,))

    def test_predicate_transformer_table_is_a_monotone_map(self):
        preds = self.c2.predicates.poset
        for m in enumerate_monotone(preds, preds).maps:
            s = PredicateTransformer(self.c2, self.c2, m.table)
            assert s.as_map() == m
        top = preds.size - 1
        with pytest.raises(NotMonotone):
            PredicateTransformer(self.c2, self.c2, (top,) + (0,) * (preds.size - 1))
        with pytest.raises(TypeMismatch):
            PredicateTransformer(self.c2, self.c2, (0,) * (preds.size - 1))
        with pytest.raises(TypeMismatch):
            PredicateTransformer(self.c2, self.c2, (preds.size,) * preds.size)

    def test_predicate_transformer_endpoints_share_the_algebra(self):
        dem = functional_space(POSETS["C2"], ALGS["2_dem"])
        with pytest.raises(TypeMismatch):
            PredicateTransformer(self.c2, dem, tuple(range(len(self.c2.predicates))))


def test_delta_transformer_is_one_object_per_space():
    x, r = POSETS["A2"], ALGS["2_dem"]
    space = functional_space(x, r)
    assert functional_space(x, r).unit is space.unit
    assert space.transformer(x, space.delta_indices) is space.unit
    assert [t for t in all_state_transformers(x, space) if t is space.unit]


def test_monad_laws_suite_builds_each_unit_p_once(monkeypatch):
    # the units and their kept p(t) and lift tables live on the cached
    # spaces, so an earlier test may have built them already; the spies
    # record what the run asks for, and the units' kept state is read after
    from powdom import verify

    cfg = verify.SuiteConfig(seed=42, trials=50, catalog_max=2)
    # one, C2 and A2 under 2_ang and 2_dem
    units = {
        id(unit): unit
        for unit in (
            functional_space(POSETS[xn], ALGS[an], cfg.size_guard).unit
            for xn in ("one", "C2", "A2")
            for an in ("2_ang", "2_dem")
        )
    }
    seen_p = {}
    seen_lifts = {}
    real_p = StateTransformer.predicate_transformer
    real_lifts = StateTransformer.lift_table

    def spy_p(self):
        p = real_p(self)
        if id(self) in units:
            seen_p.setdefault(id(self), {})[id(p)] = p
        return p

    def spy_lifts(self):
        table = real_lifts(self)
        if id(self) in units:
            seen_lifts.setdefault(id(self), {})[id(table)] = table
        return table

    monkeypatch.setattr(StateTransformer, "predicate_transformer", spy_p)
    monkeypatch.setattr(StateTransformer, "lift_table", spy_lifts)
    assert all(c.passed for c in verify.check_monad_laws_suite(cfg))
    # each unit's p(t) one object and its lift table one kept table
    assert len(units) == 6
    for key, unit in units.items():
        p = real_p(unit)
        table = real_lifts(unit)
        assert set(seen_p.get(key, {})) <= {id(p)}
        assert set(seen_lifts[key]) == {id(table)}
        assert len(table) == len(unit.space.space)


class TestKeptLiftTable:
    """Each transformer keeps its lift table; composition and the monad laws
    read it, against lifts computed from the defining formula."""

    @pytest.mark.parametrize("r", LIFT_ALGEBRAS, ids=lambda r: r.name)
    @pytest.mark.parametrize("xn", SMALL)
    @pytest.mark.parametrize("yn", SMALL)
    def test_table_is_the_index_of_each_lift(self, r, xn, yn):
        xs = functional_space(POSETS[xn], r)
        ys = functional_space(POSETS[yn], r)
        for t in all_state_transformers(POSETS[xn], ys):
            table = t.lift_table()
            assert len(table) == len(xs.space)
            for k, phi in enumerate(xs.space.maps):
                assert table[k] == ys.space.index(kleisli_lift(t, phi).table)
                assert table[k] == ys.space.index(pointwise_lift(t, phi))
            assert t.lift_table() is table

    @pytest.mark.parametrize("r", LIFT_ALGEBRAS, ids=lambda r: r.name)
    @pytest.mark.parametrize("xn", SMALL)
    @pytest.mark.parametrize("yn", SMALL)
    def test_composition_is_the_pointwise_lift(self, r, xn, yn):
        x, y = POSETS[xn], POSETS[yn]
        ys = functional_space(y, r)
        ts = all_state_transformers(x, ys)
        for zn in SMALL:
            zs = functional_space(POSETS[zn], r)
            for rr in all_state_transformers(y, zs):
                for t in ts:
                    rt = compose_transformers(t, rr)
                    assert rt.source == x and rt.space is zs
                    assert rt.table == tuple(
                        zs.space.index(kleisli_lift(rr, t(i)).table) for i in range(x.size)
                    )


    def test_size_guard_still_applies_after_the_table_is_kept(self):
        r = ALGS["2_ang"]
        # [[A2 -> 2] -> 2] has 2^4 tables on the a priori bound, past 8
        x = POSETS["A2"]
        xs = functional_space(x, r)
        kept = all_state_transformers(x, functional_space(POSETS["one"], r))[0]
        table = kept.lift_table()
        # the same table from A2, but into a space built under a guard of 8
        small = functional_space(POSETS["one"], r, 8).transformer(x, kept.table)
        into_a2 = all_state_transformers(POSETS["C2"], xs)[2]
        for _ in range(2):
            with pytest.raises(SizeGuardExceeded):
                small.lift_table()
            with pytest.raises(SizeGuardExceeded):
                compose_transformers(into_a2, small)
        assert kept.lift_table() is table
        assert compose_transformers(into_a2, kept).space is kept.space

    def test_mismatched_endpoints(self):
        r = ALGS["2_ang"]
        c2s = functional_space(POSETS["C2"], r)
        a2s = functional_space(POSETS["A2"], r)
        into_c2 = all_state_transformers(POSETS["A2"], c2s)[0]
        from_a2 = all_state_transformers(POSETS["A2"], a2s)[0]
        from_c2 = all_state_transformers(POSETS["C2"], a2s)[0]
        # kept tables do not let a mismatched pair through
        from_a2.lift_table()
        with pytest.raises(TypeMismatch):
            compose_transformers(into_c2, from_a2)
        compose_transformers(into_c2, from_c2)
        with pytest.raises(TypeMismatch):
            compose_transformers(from_c2, from_c2)

    def test_monad_laws_suite_lifts_each_pair_once(self, cold_spaces, monkeypatch):
        from powdom import verify

        lifted = {}
        kept = []  # discarded composites would hand their ids on
        real_lift = monad.kleisli_lift

        def spy(t, phi):
            kept.append((t, phi))
            key = (id(t), id(phi))
            lifted[key] = lifted.get(key, 0) + 1
            return real_lift(t, phi)

        monkeypatch.setattr(monad, "kleisli_lift", spy)
        cfg = verify.SuiteConfig(seed=42, trials=50, catalog_max=2)
        assert all(c.passed for c in verify.check_monad_laws_suite(cfg))
        assert lifted
        assert max(lifted.values()) == 1


class TestKeptComposites:
    """The target space keeps one Kleisli composite per (source, table), so
    equal composites are one object with one p(t) and one lift table."""

    @pytest.mark.parametrize("r", LIFT_ALGEBRAS, ids=lambda r: r.name)
    @pytest.mark.parametrize("xn", SMALL)
    @pytest.mark.parametrize("yn", SMALL)
    def test_equal_composites_are_one_object(self, r, xn, yn):
        x, y = POSETS[xn], POSETS[yn]
        ts = all_state_transformers(x, functional_space(y, r))
        for zn in SMALL:
            zs = functional_space(POSETS[zn], r)
            by_table = {}
            for rr in all_state_transformers(y, zs):
                for t in ts:
                    rt = compose_transformers(t, rr)
                    assert rt.source == x and rt.space is zs
                    assert by_table.setdefault(rt.table, rt) is rt

    def test_kept_composite_builds_its_lift_table_once(self, monkeypatch):
        r = ALGS["2_ang"]
        c2s = functional_space(POSETS["C2"], r)
        ts = all_state_transformers(POSETS["A2"], c2s)
        rs = all_state_transformers(POSETS["C2"], c2s)
        builds = {}
        real_lifts = StateTransformer.lift_table

        def spy(self):
            if self._lifts is None:
                builds[id(self)] = builds.get(id(self), 0) + 1
            return real_lifts(self)

        monkeypatch.setattr(StateTransformer, "lift_table", spy)
        composites = [compose_transformers(t, rr) for t in ts for rr in rs]
        tables = {}
        for rt in composites:
            assert tables.setdefault(rt.table, rt.lift_table()) is rt.lift_table()
        assert len(tables) < len(composites)
        assert all(builds.get(id(rt), 0) <= 1 for rt in composites)

    def test_monad_laws_suite_builds_few_lift_tables(self, cold_spaces, monkeypatch):
        from powdom import verify

        # counted as calls that find no kept table: one per distinct
        # transformer, enumerated or composed, 220 in all
        built = []
        real_lifts = StateTransformer.lift_table

        def spy(self):
            if self._lifts is None:
                built.append(self)
            return real_lifts(self)

        monkeypatch.setattr(StateTransformer, "lift_table", spy)
        cfg = verify.SuiteConfig(seed=42, trials=100, catalog_max=2)
        assert all(c.passed for c in verify.check_monad_laws_suite(cfg))
        assert len(built) <= 220

    def test_composites_stay_on_the_space_of_their_guard(self):
        r = ALGS["2_ang"]
        one = POSETS["one"]
        wide = functional_space(one, r)
        narrow = functional_space(one, r, 8)
        assert narrow is not wide
        t = all_state_transformers(one, wide)[1]
        r_wide = all_state_transformers(one, wide)[2]
        r_narrow = narrow.transformer(one, r_wide.table)
        kept = compose_transformers(t, r_wide)
        composite = compose_transformers(t, r_narrow)
        assert composite.table == kept.table
        assert composite is not kept
        assert composite.space is narrow and kept.space is wide
        assert compose_transformers(t, r_narrow) is composite
        assert compose_transformers(t, r_wide) is kept


class TestOneConstructor:
    """The target space makes every transformer into it, one per (source,
    table), whichever way the transformer is reached."""

    @pytest.mark.parametrize("r", LIFT_ALGEBRAS, ids=lambda r: r.name)
    def test_enumerated_transformers_are_the_composites(self, r):
        x, y = POSETS["A2"], POSETS["C2"]
        ys = functional_space(y, r)
        enumerated = {t.table: t for t in all_state_transformers(x, ys)}
        for t in all_state_transformers(x, ys):
            for rr in all_state_transformers(y, ys):
                rt = compose_transformers(t, rr)
                assert enumerated[rt.table] is rt
        for t in all_state_transformers(x, ys, ys.hom_indices):
            assert enumerated[t.table] is t

    def test_failed_build_keeps_nothing(self):
        c2 = POSETS["C2"]
        space = functional_space(c2, ALGS["2_ang"])
        swapped = tuple(reversed(space.delta_indices))
        for _ in range(2):
            with pytest.raises(NotMonotone):
                space.transformer(c2, swapped)
        assert (c2, swapped) not in space._transformers

    def test_suite_builds_one_lift_table_per_transformer(self, cold_spaces, monkeypatch):
        from powdom import verify

        built = []
        real_lifts = StateTransformer.lift_table

        def spy(self):
            if self._lifts is None:
                built.append(self)
            return real_lifts(self)

        monkeypatch.setattr(StateTransformer, "lift_table", spy)
        assert verify.run_suite(verify.SuiteConfig(seed=42, trials=100, catalog_max=2)).passed
        assert len(built) <= 220
