import itertools
from dataclasses import replace

import pytest

from powdom import catalog
from powdom.algebra import (
    EndoAction,
    FinAlgebra,
    OpSpec,
    OpTag,
    RatAlgebra,
    Signature,
    check_module_axioms,
    commutes,
    endomorphisms,
    first_failure,
    generated_subalgebra,
    is_entropic,
    is_homomorphism,
    is_relaxed_entropic,
    is_relaxed_morphism,
    lift_pointwise,
    map_action,
    scalar_action,
    subcommutes,
    supercommutes,
)
from powdom.errors import (
    ArityMismatch,
    PowdomError,
    SignatureMismatch,
    UnknownOp,
)
from powdom.defs import Workspace
from powdom.extnum import INF, ONE, ZERO, ExtNN
from powdom.funcspace import MonoMap, enumerate_monotone, identity_map
from powdom.monad import functional_space
from powdom.poset import poset_from_cover, sub_poset
from powdom.powerdomain import PredAlgebra, SubFn, dirac
from powdom.sampling import EXHAUSTIVE, SAMPLED, random_extnn, task_rng

POSETS = catalog.builtin_posets()
ALGS = catalog.builtin_algebras()


def tagged_two_ang(tag):
    return catalog.two_valued(f"2_ang_{tag.value}", (("join", tag), ("zero", OpTag.EQ)))


class TestLifting:
    def test_join_lifts_to_pointwise_max(self):
        lifted = lift_pointwise(ALGS["2_ang"], POSETS["C2"])
        expo = lifted.expo
        assert len(expo) == 3  # the exponential [C2 -> 2] is a 3-chain
        for i, a in enumerate(expo.maps):
            for j, b in enumerate(expo.maps):
                expected = tuple(max(x, y) for x, y in zip(a.table, b.table))
                got = expo.maps[lifted.resolve("join")((i, j))].table
                assert got == expected

    def test_singleton_base_is_isomorphic(self):
        lifted = lift_pointwise(ALGS["2_ang"], POSETS["one"])
        assert lifted.carrier.size == 2
        for i in (0, 1):
            for j in (0, 1):
                assert lifted.resolve("join")((i, j)) == max(i, j)
        assert lifted.resolve("zero")(()) == 0

    def test_constant_lifts_to_constant_map(self):
        lifted = lift_pointwise(ALGS["2_ang"], POSETS["A2"])
        zero_idx = lifted.resolve("zero")(())
        assert lifted.expo.maps[zero_idx].table == (0, 0)


class TestHomomorphism:
    def test_identity_is_hom(self):
        for name in ("2_ang", "2_dem", "lattice2"):
            alg = ALGS[name]
            assert is_homomorphism(identity_map(alg.carrier), alg, alg)

    def test_projections_are_homs(self):
        space = functional_space(POSETS["C2"], ALGS["2_ang"])
        for i in space.delta_indices:
            assert is_homomorphism(
                space.functional(i), space.pred_algebra, space.algebra
            )

    def test_only_top_detector_fails_on_antichain(self):
        # over A2 the functional sending only the constant-1 predicate to 1
        # misses the join of the two one-point predicates
        space = functional_space(POSETS["A2"], ALGS["2_ang"])
        table = tuple(
            1 if m.table == (1, 1) else 0 for m in space.predicates.maps
        )
        phi = MonoMap(space.predicates.poset, catalog.TWO, table)
        outcome = is_homomorphism(phi, space.pred_algebra, space.algebra)
        assert not outcome.passed
        assert outcome.witness["op"] == "join"

    def test_same_shape_over_chain_is_hom(self):
        # on C2 the corresponding functional is a legitimate homomorphism
        space = functional_space(POSETS["C2"], ALGS["2_ang"])
        table = tuple(
            1 if m.table == (1, 1) else 0 for m in space.predicates.maps
        )
        phi = MonoMap(space.predicates.poset, catalog.TWO, table)
        assert is_homomorphism(phi, space.pred_algebra, space.algebra).passed

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            is_homomorphism(identity_map(catalog.TWO), ALGS["2_ang"], ALGS["2_dem"])

    def test_carrier_mismatch(self):
        from powdom.errors import TypeMismatch

        wrong = identity_map(POSETS["A2"])
        with pytest.raises(TypeMismatch):
            is_homomorphism(wrong, ALGS["2_ang"], ALGS["2_ang"])

    def test_unknown_generator(self):
        from powdom.errors import UnknownElement

        with pytest.raises(UnknownElement):
            generated_subalgebra(ALGS["2_ang"], [5])


class TestRelaxedMorphism:
    def test_homs_are_relaxed(self):
        r = tagged_two_ang(OpTag.LE)
        space = functional_space(POSETS["A2"], r)
        for i in space.hom_indices:
            assert is_relaxed_morphism(
                space.functional(i), space.pred_algebra, space.algebra
            )

    def test_max_of_diracs_is_relaxed_for_mixed_tags(self):
        a2 = POSETS["A2"]
        phi = SubFn((dirac(a2, 0), dirac(a2, 1)))
        rmax = ALGS["rplus_max"]
        lifted = PredAlgebra(rmax, a2)
        rng = task_rng(7, "relaxed-subfn")
        assert is_relaxed_morphism(phi, lifted, rmax, rng, 500).passed

    def test_max_of_diracs_is_not_additive(self):
        # retagging addition as an exact op turns the check negative
        a2 = POSETS["A2"]
        phi = SubFn((dirac(a2, 0), dirac(a2, 1)))
        sig = Signature(
            (
                OpSpec("add", 2, OpTag.EQ),
                OpSpec("max", 2, OpTag.GE),
                OpSpec("zero", 0, OpTag.EQ),
            )
        )
        strict = RatAlgebra(
            "rplus_max_strict",
            sig,
            {"add": lambda args: args[0] + args[1], "max": max, "zero": lambda args: ZERO},
        )
        lifted = PredAlgebra(strict, a2)
        outcome = is_relaxed_morphism(phi, lifted, strict)
        assert not outcome.passed
        assert outcome.witness["op"] == "add"


class TestInterchange:
    def test_join_commutes_with_itself(self):
        assert commutes(ALGS["2_ang"], "join", "join").passed

    def test_add_mul_counterexample(self):
        outcome = commutes(ALGS["rplus_semiring"], "add", "mul")
        assert not outcome.passed
        assert outcome.witness is not None
        # the canonical counterexample evaluates to 14 vs 24
        alg = ALGS["rplus_semiring"]
        one, two, three, four = ExtNN(1), ExtNN(2), ExtNN(3), ExtNN(4)
        lhs = alg.resolve("add")((alg.resolve("mul")((one, two)), alg.resolve("mul")((three, four))))
        rhs = alg.resolve("mul")((alg.resolve("add")((one, three)), alg.resolve("add")((two, four))))
        assert lhs == ExtNN(14) and rhs == ExtNN(24) and lhs != rhs

    def test_scaling_commutes_with_max(self):
        rng = task_rng(3, "scale-max")
        assert commutes(ALGS["rplus_max"], "scale", "max", rng, 500).passed

    def test_max_subcommutes_with_add(self):
        rng = task_rng(3, "max-add")
        outcome = subcommutes(ALGS["rplus_max"], "max", "add", rng, 1000)
        assert outcome.passed
        # spot instance: (0+5) max (5+0) = 5 <= (0 max 5) + (5 max 0) = 10
        alg = ALGS["rplus_max"]
        five = ExtNN(5)
        lhs = alg.resolve("max")((alg.resolve("add")((ZERO, five)), alg.resolve("add")((five, ZERO))))
        rhs = alg.resolve("add")((alg.resolve("max")((ZERO, five)), alg.resolve("max")((five, ZERO))))
        assert lhs == five and rhs == ExtNN(10) and lhs <= rhs

    def test_add_does_not_subcommute_with_max(self):
        outcome = subcommutes(ALGS["rplus_max"], "add", "max")
        assert not outcome.passed
        assert outcome.witness is not None

    def test_equal_ops_subcommute(self):
        assert subcommutes(ALGS["rplus"], "add", "add").passed

    def test_unknown_op(self):
        with pytest.raises(UnknownOp):
            commutes(ALGS["2_ang"], "join", "nope")

    @pytest.mark.parametrize(
        "check, name, sigma, omega, relation, matrix, lhs, rhs",
        [
            # 2x2 over a finite carrier
            (commutes, "lattice2", "meet", "join", "=", [["0", "1"], ["1", "0"]], "1", "0"),
            # 2x2 over ExtNN, from the grid
            (commutes, "rplus_semiring", "add", "mul", "=", [["0", "1/3"], ["1/3", "0"]], "0", "1/9"),
            # two constants: no rows, no columns
            (commutes, "frame2", "zero", "one", "=", [], "0", "1"),
            # n = 0 over ExtNN
            (commutes, "rplus_semiring", "one", "add", "=", [], "1", "2"),
            # m = 0: two empty rows
            (commutes, "rplus_semiring", "add", "one", "=", [[], []], "2", "1"),
            (subcommutes, "rplus_max", "add", "max", "<=", [["0", "1/3"], ["1/3", "0"]], "2/3", "1/3"),
            (supercommutes, "rplus_min", "add", "min", ">=", [["0", "1/3"], ["1/3", "0"]], "0", "1/3"),
        ],
    )
    def test_witness_is_pinned(self, check, name, sigma, omega, relation, matrix, lhs, rhs):
        outcome = check(ALGS[name], sigma, omega)
        assert not outcome.passed
        assert outcome.witness == {
            "sigma": sigma, "omega": omega, "relation": relation, "matrix": matrix,
            "sigma_param": None, "omega_param": None, "lhs": lhs, "rhs": rhs,
        }

    def test_transpose_symmetry(self):
        for alg in (ALGS["2_ang"], ALGS["lattice2"]):
            for s in alg.signature.symbols():
                for o in alg.signature.symbols():
                    assert commutes(alg, s, o).passed == commutes(alg, o, s).passed


class TestEntropicity:
    def test_join_semilattice_entropic(self):
        assert is_entropic(ALGS["2_ang"]).passed

    def test_lattice_not_entropic(self):
        report = is_entropic(ALGS["lattice2"])
        assert not report.passed
        assert report.witnesses()

    def test_additive_monoid_entropic_sampled(self):
        report = is_entropic(ALGS["rplus"], task_rng(42, "rplus"), 2000)
        assert report.passed
        assert report.mode == "grid+samples"

    def test_constants_must_agree(self):
        # two distinct constants break entropicity via the nullary pair law
        report = is_entropic(ALGS["frame2"])
        names = {c.name for c in report.witnesses()}
        assert "commutes:zero,one" in names or "commutes:one,zero" in names

    def test_mixed_algebras_relaxed_entropic(self):
        for name in ("rplus_max", "rplus_min"):
            report = is_relaxed_entropic(ALGS[name], task_rng(42, name), 2000)
            assert report.passed, report.witnesses()[:1]

    def test_doubly_lax_tagging_fails(self):
        sig = Signature((OpSpec("add", 2, OpTag.LE), OpSpec("max", 2, OpTag.LE)))
        alg = RatAlgebra(
            "bad_tags", sig, {"add": lambda args: args[0] + args[1], "max": max}
        )
        report = is_relaxed_entropic(alg)
        assert not report.passed


class TestGeneratedSubalgebra:
    def test_whole_carrier_fixed(self):
        alg = ALGS["2_ang"]
        assert generated_subalgebra(alg, range(2)) == (0, 1)

    def test_projections_generate_three_functionals(self):
        space = functional_space(POSETS["C2"], ALGS["2_ang"])
        closed = generated_subalgebra(space.func_algebra, space.delta_indices)
        assert len(closed) == 3
        zero_table = tuple(0 for _ in space.predicates.maps)
        assert space.space.index(zero_table) in closed
        assert set(space.delta_indices) <= set(closed)

    def test_empty_generators_give_constant(self):
        space = functional_space(POSETS["C2"], ALGS["2_ang"])
        closed = generated_subalgebra(space.func_algebra, ())
        zero_table = tuple(0 for _ in space.predicates.maps)
        assert closed == (space.space.index(zero_table),)

    def test_monotone_and_idempotent(self):
        space = functional_space(POSETS["A2"], ALGS["2_ang"])
        alg = space.func_algebra
        import itertools

        universe = range(alg.carrier.size)
        for gens in itertools.combinations(universe, 2):
            closed = generated_subalgebra(alg, gens)
            assert generated_subalgebra(alg, closed) == closed
            bigger = generated_subalgebra(alg, tuple(gens) + (0,))
            assert set(closed) <= set(bigger)


# a 3-element chain whose bottom constant rules out 4 of its 10 monotone self-maps
CHAIN3 = """
poset P3
elems lo mid hi
le lo mid
le mid hi
end

algebra chainjoin on P3
op sup arity 2 tag EQ
op bot arity 0 tag EQ
table sup { (lo,lo)->lo; (lo,mid)->mid; (lo,hi)->hi;
            (mid,lo)->mid; (mid,mid)->mid; (mid,hi)->hi;
            (hi,lo)->hi; (hi,mid)->hi; (hi,hi)->hi }
table bot { () -> lo }
end
"""


def _chain_algebra():
    ws = Workspace()
    ws.load_text("chain3.defs", CHAIN3)
    return ws.algebra("chainjoin")


FIN_ALGS = [a for a in ALGS.values() if isinstance(a, FinAlgebra)] + [_chain_algebra()]


def brute_force_endos(alg):
    """Every |A|^|A| table that is monotone and commutes with each op table."""
    n = alg.carrier.size
    leq = alg.carrier.leq
    found = []
    for t in itertools.product(range(n), repeat=n):
        monotone = all(leq(t[x], t[y]) for x in range(n) for y in range(n) if leq(x, y))
        preserves = all(
            t[value] == table[tuple(t[x] for x in args)]
            for table in alg.tables.values()
            for args, value in table.items()
        )
        if monotone and preserves:
            found.append(t)
    return sorted(found)


class TestEndomorphisms:
    def test_join_algebra_endos(self):
        endos = endomorphisms(ALGS["2_ang"])
        assert [e.table for e in endos.maps] == [(0, 0), (0, 1)]

    def test_meet_algebra_endos(self):
        endos = endomorphisms(ALGS["2_dem"])
        assert [e.table for e in endos.maps] == [(0, 1), (1, 1)]

    def test_identity_always_present(self):
        for name in ("2_ang", "2_dem", "frame2"):
            endos = endomorphisms(ALGS[name])
            assert any(e.table == (0, 1) for e in endos.maps)

    @pytest.mark.parametrize("alg", FIN_ALGS, ids=lambda a: a.name)
    def test_endos_match_brute_force(self, alg):
        assert [e.table for e in endomorphisms(alg).maps] == brute_force_endos(alg)

    def test_chain_keeps_six_of_ten_monotone_maps(self):
        alg = _chain_algebra()
        assert len(enumerate_monotone(alg.carrier, alg.carrier)) == 10
        assert len(brute_force_endos(alg)) == 6

    @pytest.mark.parametrize("alg", FIN_ALGS, ids=lambda a: a.name)
    def test_endo_order_is_the_restricted_pointwise_order(self, alg):
        expo = enumerate_monotone(alg.carrier, alg.carrier)
        hom_idx = [i for i, m in enumerate(expo.maps) if is_homomorphism(m, alg, alg)]
        assert endomorphisms(alg).poset == sub_poset(expo.poset, hom_idx)


class TestModuleAxioms:
    def test_scalar_action_satisfies_axioms(self):
        report = check_module_axioms(
            scalar_action(ALGS["rplus"]), ALGS["rplus"], task_rng(42, "mod"), 500
        )
        assert report.passed, report.as_record()

    @pytest.mark.parametrize("name", ["2_ang", "2_dem", "frame2", "lattice2"])
    def test_map_action_satisfies_axioms(self, name):
        alg = ALGS[name]
        report = check_module_axioms(map_action(alg), alg)
        assert report.passed, report.as_record()

    def test_shifted_action_fails(self):
        alg = ALGS["rplus"]
        base = scalar_action(alg)
        shifted = EndoAction(
            grid_endos=base.grid_endos,
            identity=base.identity,
            compose=base.compose,
            op_on_endos=base.op_on_endos,
            act=lambda r, x: r * x + ONE,
            describe=str,
            sample_endo=base.sample_endo,
        )
        report = check_module_axioms(shifted, alg, task_rng(42, "bad"), 200)
        assert not report.passed
        ax4 = [c for c in report.checks if c.name.startswith("ax4") and not c.passed]
        assert ax4 and ax4[0].witness is not None


class TestConstruction:
    def test_non_monotone_table_rejected(self):
        sig = Signature((OpSpec("bad", 1, OpTag.EQ),))
        with pytest.raises(PowdomError):
            FinAlgebra("bad", catalog.TWO, sig, {"bad": {(0,): 1, (1,): 0}})

    def test_non_monotone_realisation_rejected(self):
        sig = Signature((OpSpec("spike", 2, OpTag.EQ),))
        with pytest.raises(PowdomError):
            RatAlgebra(
                "spike",
                sig,
                {"spike": lambda args: ONE if args[0] == args[1] else ZERO},
            )

    def test_missing_table(self):
        sig = Signature((OpSpec("join", 2, OpTag.EQ),))
        with pytest.raises(UnknownOp):
            FinAlgebra("partial", catalog.TWO, sig, {})

    @pytest.mark.parametrize("stray", [(1, 1, 1), (2, 0), (0,)])
    def test_stray_table_entry_rejected(self, stray):
        sig = Signature((OpSpec("join", 2, OpTag.EQ),))
        table = {(i, j): max(i, j) for i in (0, 1) for j in (0, 1)}
        table[stray] = 0
        with pytest.raises(ArityMismatch) as err:
            FinAlgebra("stray", catalog.TWO, sig, {"join": table})
        assert str(err.value) == f"table for join has entry {stray} outside carrier^2"

    def test_nullary_stray_entry_rejected(self):
        sig = Signature((OpSpec("zero", 0, OpTag.EQ),))
        with pytest.raises(ArityMismatch):
            FinAlgebra("stray", catalog.TWO, sig, {"zero": {(): 0, (0,): 0}})

    def test_infinite_scalar_conventions(self):
        alg = ALGS["rplus_max"]
        assert alg.resolve("scale", INF)((ZERO,)) == ZERO
        assert alg.resolve("scale", ZERO)((INF,)) == ZERO
        assert alg.resolve("scale", INF)((ExtNN(2),)) == INF


# ---------------------------------------------------------------------------
# lifted structures against element-wise references


def reference_lift_tables(algebra, base):
    """Independent oracle: every entry by per-point ``resolve`` and ``index``."""
    expo = enumerate_monotone(base, algebra.carrier)
    tables = {}
    for op in algebra.signature.ops:
        table = {}
        for args in itertools.product(range(len(expo)), repeat=op.arity):
            result = tuple(
                algebra.resolve(op.symbol)(tuple(expo.maps[a].table[x] for a in args))
                for x in range(base.size)
            )
            table[args] = expo.index(result)
        tables[op.symbol] = table
    return expo, tables


def _assert_lift_matches(algebra, base):
    lifted = lift_pointwise(algebra, base)
    expo, tables = reference_lift_tables(algebra, base)
    assert lifted.tables == tables
    assert [m.table for m in lifted.expo.maps] == [m.table for m in expo.maps]
    maps = expo.maps
    assert lifted.carrier.up == tuple(
        sum(a.leq(b) << j for j, b in enumerate(maps)) for a in maps
    )


FINITE_ALGS = sorted(k for k, a in ALGS.items() if isinstance(a, FinAlgebra))
SMALL_POSETS = sorted(k for k, p in POSETS.items() if p.size <= 3)


class TestLiftOracle:
    @pytest.mark.parametrize("alg", FINITE_ALGS)
    @pytest.mark.parametrize("poset", SMALL_POSETS)
    def test_catalog(self, alg, poset):
        _assert_lift_matches(ALGS[alg], POSETS[poset])

    def test_two_ang_functionals_on_a4(self):
        a4 = poset_from_cover(("a", "b", "c", "d"), ())
        preds = lift_pointwise(ALGS["2_ang"], a4).carrier
        _assert_lift_matches(ALGS["2_ang"], preds)

    @pytest.mark.parametrize("n, count", [(1, 3), (2, 6), (3, 20), (4, 168)])
    def test_dedekind_counts(self, n, count):
        # monotone maps 2^n -> 2 are counted by the Dedekind numbers M(n),
        # https://oeis.org/A000372
        antichain = poset_from_cover(tuple("abcd"[:n]), ())
        assert len(functional_space(antichain, ALGS["2_ang"]).space) == count


class TestMonotoneDiagnostics:
    """The first failing cover step, and its message, for hand-built tables."""

    def test_join_on_c2(self):
        sig = Signature((OpSpec("join", 2, OpTag.EQ),))
        table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        with pytest.raises(PowdomError) as err:
            FinAlgebra("bad", POSETS["C2"], sig, {"join": table})
        assert str(err.value) == "operation join is not monotone at (0, 1) -> (1, 1)"

    def test_second_position_second_cover(self):
        # on the vee, bot is covered by l then r; only bumping the second
        # argument to r breaks monotonicity at (bot, bot)
        sig = Signature((OpSpec("g", 2, OpTag.EQ),))
        table = {(i, j): 0 for i in range(3) for j in range(3)}
        table.update({(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1, (0, 2): 2})
        with pytest.raises(PowdomError) as err:
            FinAlgebra("bad", POSETS["vee"], sig, {"g": table})
        assert str(err.value) == "operation g is not monotone at (0, 0) -> (0, 2)"


def test_first_failure_stops_at_the_first_witness():
    pulled = []

    def witnesses():
        for k in range(3):
            pulled.append(k)
            yield {"k": k}

    outcome = first_failure("law", witnesses(), SAMPLED)
    assert (outcome.passed, outcome.mode, outcome.witness) == (False, SAMPLED, {"k": 0})
    assert pulled == [0]
    rest = iter([{"a": 1}, {"b": 2}])
    assert first_failure("law", rest).witness == {"a": 1}
    assert next(rest) == {"b": 2}
    empty = first_failure("law", iter(()))
    assert (empty.passed, empty.mode, empty.witness) == (True, EXHAUSTIVE, None)
    # one result per instance: None where the law held
    results = iter([None, None, {"c": 3}, None, {"d": 4}])
    assert first_failure("law", results).witness == {"c": 3}
    assert next(results) is None
    held = first_failure("law", iter([None, None]))
    assert (held.passed, held.witness) == (True, None)


def test_sampled_failure_draws_up_to_the_failing_sample_only():
    rplus = catalog.builtin_algebras()["rplus"]

    def phi(x):
        # additive on every grid sum, whose denominators divide 6, but not
        # on sampled elevenths
        return x + x if str(x).endswith("/11") else x

    trials = 200
    assert is_homomorphism(phi, rplus, rplus).passed  # the grid phase alone passes
    reference = task_rng(7, "stream")
    for k in range(trials):
        a, b = random_extnn(reference), random_extnn(reference)
        if phi(a + b) != phi(a) + phi(b):
            break
    assert k < trials - 1  # the walk stops well before the stream ends
    rng = task_rng(7, "stream")
    outcome = is_homomorphism(phi, rplus, rplus, rng, trials)
    assert not outcome.passed
    assert outcome.witness["op"] == "add"
    assert outcome.witness["args"] == [str(a), str(b)]
    assert rng.random() == reference.random()


def test_sampled_phase_skips_instances_that_draw_nothing(monkeypatch):
    # a nullary op, or an empty matrix, without a parameter is one grid
    # instance; its sampled copies would repeat it without a draw
    rplus = catalog.builtin_algebras()["rplus"]
    calls = []
    real_resolve = RatAlgebra.resolve

    def counting(self, symbol, param=None):
        op = real_resolve(self, symbol, param)

        def counted(args):
            calls.append(symbol)
            return op(args)

        return counted

    monkeypatch.setattr(RatAlgebra, "resolve", counting)
    rng = task_rng(7, "nothing-drawn")
    assert commutes(rplus, "zero", "zero", rng, 500).passed
    assert calls == ["zero", "zero"]
    calls.clear()
    assert is_relaxed_morphism(lambda x: x, rplus, rplus, rng, 500, "zero").passed
    assert calls == ["zero", "zero"]
    assert rng.random() == task_rng(7, "nothing-drawn").random()


def _eleventh(x):
    return str(x).endswith("/11")


def test_sampled_interchange_draws_the_values_then_the_parameter():
    # scale is off by one at every elevenths scalar, which the grid lacks;
    # each sample draws the 1x2 matrix, then scale's parameter
    sig = Signature((OpSpec("add", 2, OpTag.EQ), OpSpec("scale", 1, OpTag.EQ, parametric=True)))
    alg = RatAlgebra(
        "faulty",
        sig,
        {"add": lambda args: args[0] + args[1], "scale": lambda r, args: r * args[0] + (ONE if _eleventh(r) else ZERO)},
    )
    assert commutes(alg, "scale", "add").passed  # the grid phase alone passes
    rng = task_rng(7, "interchange")
    outcome = commutes(alg, "scale", "add", rng, 300)
    assert outcome.witness == {
        "sigma": "scale", "omega": "add", "relation": "=",
        "matrix": [["15/11", "5/6"]], "sigma_param": "14/11", "omega_param": None,
        "lhs": "1378/363", "rhs": "1741/363",
    }
    assert rng.random() == 0.038163624524466755


def test_sampled_module_axioms_draw_endos_then_values():
    # the action is off by one at every elevenths endo, which the grid lacks;
    # scale's parameter stays on the grid in both phases
    alg = ALGS["rplus_max"]
    action = replace(scalar_action(alg), act=lambda e, x: e * x + (ONE if _eleventh(e) else ZERO))
    assert check_module_axioms(action, alg).passed  # the grid phase alone passes
    rng = task_rng(7, "module")
    report = check_module_axioms(action, alg, rng, 300)
    assert {c.name: c.witness for c in report.witnesses()} == {
        "ax2:composition": {"endos": ["6", "10/11"], "x": "4/7", "lhs": "317/77", "rhs": "702/77"},
        "ax3:ops-pointwise:add": {
            "op": "add", "param": None, "endos": ["13/11", "7/10"], "x": "2",
            "lhs": "207/55", "rhs": "262/55",
        },
        "ax4:endo-preserves:add": {
            "op": "add", "param": None, "endo": "23/11", "args": ["10", "15/8"],
            "lhs": "2273/88", "rhs": "2361/88",
        },
        "ax3:ops-pointwise:max": {
            "op": "max", "param": None, "endos": ["5/2", "23/11"], "x": "9/8",
            "lhs": "45/16", "rhs": "295/88",
        },
        "ax3:ops-pointwise:scale": {
            "op": "scale", "param": "1/3", "endos": ["19/11"], "x": "7/2",
            "lhs": "133/66", "rhs": "155/66",
        },
        "ax4:endo-preserves:scale": {
            "op": "scale", "param": "0", "endo": "13/11", "args": ["11/10"], "lhs": "1", "rhs": "0",
        },
        "ax4:endo-preserves:zero": {
            "op": "zero", "param": None, "endo": "13/11", "args": [], "lhs": "1", "rhs": "0",
        },
    }
    assert rng.random() == 0.601568025920552


def test_relaxed_morphism_refuses_an_unknown_symbol():
    rmax = ALGS["rplus_max"]
    with pytest.raises(UnknownOp):
        is_relaxed_morphism(lambda x: x, rmax, rmax, task_rng(7, "mx"), 10, symbol="mx")


def test_signature_keeps_its_specs_out_of_equality_and_repr():
    ops = (OpSpec("add", 2, OpTag.LE), OpSpec("zero", 0, OpTag.EQ))
    sig = Signature(ops)
    assert sig.spec("zero") is ops[1]
    assert sig == Signature(list(ops)) and hash(sig) == hash(Signature(list(ops)))
    assert repr(sig) == f"Signature(ops={ops!r})"
    with pytest.raises(UnknownOp):
        sig.spec("max")
    with pytest.raises(SignatureMismatch, match="duplicate op symbols in"):
        Signature(ops + (OpSpec("add", 2, OpTag.EQ),))


def test_relaxed_morphism_restricted_to_one_op():
    rplus = catalog.builtin_algebras()["rplus"]

    def top(x):  # additive, but sends zero to infinity
        return INF

    def square(x):  # keeps zero, but is not additive
        return x * x

    assert is_relaxed_morphism(top, rplus, rplus).witness["op"] == "zero"
    assert is_relaxed_morphism(top, rplus, rplus, symbol="add").passed
    assert not is_relaxed_morphism(top, rplus, rplus, symbol="zero").passed
    assert is_relaxed_morphism(square, rplus, rplus, symbol="zero").passed
    assert is_relaxed_morphism(square, rplus, rplus, symbol="add").witness["op"] == "add"
