import json
from fractions import Fraction

import pytest

from powdom import catalog, monad
from powdom.algebra import CheckOutcome
from powdom.extnum import INF, ExtNN, ONE, ZERO
from powdom.funcspace import enumerate_monotone
from powdom.monad import StateTransformer, all_state_transformers, check_monad_laws, functional_space
from powdom.powerdomain import (
    ENVELOPES,
    SUBLINEAR,
    Envelope,
    SubFn,
    catalog_envelopes,
    catalog_valuations,
    check_linear_side,
)
from powdom.report import Report
from powdom.verify import SUITE, SuiteConfig, run_suite

CFG = SuiteConfig(seed=42, trials=50, catalog_max=2)


def test_reduced_catalog_all_pass():
    # a smaller catalog and fewer trials still give an all-green suite
    cfg = SuiteConfig(seed=42, trials=400, catalog_max=3)
    report = run_suite(cfg, "verify-suite --catalog-max 3")
    assert report.passed
    data = json.loads(report.to_json())
    assert data["verdict"] == "pass"
    assert data["config"]["catalog_max"] == 3


def test_corrupted_builtin_is_caught(monkeypatch):
    # swapping the angelic join for a meet must trip the powerdomain checks
    import powdom.verify as verify_mod

    original = catalog.builtin_algebras

    def corrupted():
        algs = original()
        algs["2_ang"] = catalog.FinAlgebra(
            "2_ang",
            catalog.TWO,
            algs["2_ang"].signature,
            {
                "join": {(i, j): min(i, j) for i in (0, 1) for j in (0, 1)},
                "zero": {(): 0},
            },
        )
        return algs

    monkeypatch.setattr(verify_mod.catalog, "builtin_algebras", corrupted)
    cfg = SuiteConfig(seed=42, trials=50, catalog_max=2)
    checks = verify_mod.check_powerdomains(cfg)
    failed = [c for c in checks if not c.passed]
    assert failed
    assert any(c.witness for c in failed)
    # only the Hoare side reads the corrupted join, and each of its failing
    # records names the Hoare sub-checks that broke
    for c in failed:
        assert c.name.startswith("powerdomain.hoare.")
        assert c.witness["failed"]
        assert all(name.startswith("hoare:") for name in c.witness["failed"])


def test_report_records_are_ordered_and_named():
    cfg = SuiteConfig(seed=42, trials=50, catalog_max=2)
    report = run_suite(cfg)
    names = [c["name"] for c in report.checks]
    assert names == sorted(names, key=names.index)  # stable order
    assert len(names) == len(set(names))


def test_report_verdict_aggregation():
    report = Report("demo", {"seed": 1})
    report.add(CheckOutcome("a", True))
    assert report.passed
    report.add(CheckOutcome("b", False, witness={"x": 1}))
    assert not report.passed
    data = json.loads(report.to_json())
    assert data["verdict"] == "fail"


def test_suite_sections_are_registered():
    assert [name for name, _ in SUITE] == [
        "extnum",
        "poset",
        "funcspace",
        "algebra",
        "monad",
        "roundtrip",
        "monad-laws",
        "powerdomain",
        "valuation",
        "mixed",
    ]


def test_mixed_functionals_draw_distinct_streams(monkeypatch):
    # every catalog envelope of every poset gets its own seed
    import powdom.verify as verify_mod

    seeds = []

    def recording(phi, side, trials, seed, size_guard):
        seeds.append(seed)
        return Report("stub", {})

    monkeypatch.setattr(verify_mod, "check_linear_side", recording)
    cfg = SuiteConfig(seed=42, trials=50, catalog_max=2)
    checks = verify_mod.check_mixed(cfg)
    assert all(c.passed for c in checks)
    expected = sum(
        len(catalog_envelopes(p, envelope, cap=6))
        for p in cfg.posets().values()
        for envelope in ENVELOPES
    )
    assert len(seeds) == expected
    assert len(set(seeds)) == len(seeds)


# ---------------------------------------------------------------------------
# each law family names the one instance an injected fault breaks, and that
# instance fails again when replayed on its own


def record(checks, name):
    (found,) = [c for c in checks if c.name == name]
    return found


def test_extnum_witness_names_the_faulty_sum(monkeypatch):
    import powdom.verify as verify_mod

    half, two = ExtNN(Fraction(1, 2)), ExtNN(2)
    real_add = ExtNN.__add__

    def faulty(a, b):
        total = real_add(a, b)
        return real_add(total, ONE) if (a, b) == (half, two) else total

    monkeypatch.setattr(ExtNN, "__add__", faulty)
    outcome = record(verify_mod.check_extnum(CFG), "extnum.add-commutative")
    assert not outcome.passed
    # the grid runs 0, 1/3, 1/2, ...: (1/2, 2) is the first broken pair, at c = 0
    assert outcome.witness == {"a": "1/2", "b": "2", "c": "0"}
    assert not verify_mod.EXTNUM_LAWS["add-commutative"](half, two, ZERO)
    assert record(verify_mod.check_extnum(CFG), "extnum.add-unit").passed


def test_precompose_witness_names_the_faulty_composite(monkeypatch):
    import powdom.verify as verify_mod

    c2 = catalog.builtin_posets()["C2"]
    maps = enumerate_monotone(c2, c2).maps
    u = next(m for m in maps if m.table == (0, 1))
    v = next(m for m in maps if m.table == (1, 1))
    real_compose = verify_mod.compose

    def faulty(a, b):
        # the composite of the identity with the constant top comes out as the identity
        return a if (a, b) == (u, v) else real_compose(a, b)

    monkeypatch.setattr(verify_mod, "compose", faulty)
    outcome = record(verify_mod.check_funcspace(CFG), "funcspace.precompose-functorial")
    assert not outcome.passed
    gs = enumerate_monotone(c2, catalog.TWO).maps
    broken = [
        g for g in gs
        if verify_mod.precompose(faulty(u, v), g).table
        != verify_mod.precompose(u, verify_mod.precompose(v, g)).table
    ]
    assert broken
    assert outcome.witness == {
        "x": "C2", "y": "C2", "z": "C2",
        "u": u.entries(), "v": v.entries(), "g": broken[0].entries(),
    }


def test_monad_laws_witness_names_the_law_and_the_pair(monkeypatch):
    import powdom.verify as verify_mod

    one = catalog.builtin_posets()["one"]
    real_compose = monad.compose_transformers
    target = ((1,), (2,))  # the tables of t and r, both over the one-point poset

    def faulty(t, r):
        rt = real_compose(t, r)
        if (t.table, r.table) != target or {t.source, t.space.x, r.space.x} != {one}:
            return rt
        wrong = ((rt.table[0] + 1) % len(rt.space.space),)
        return StateTransformer(rt.source, rt.space, wrong)

    monkeypatch.setattr(monad, "compose_transformers", faulty)
    checks = verify_mod.check_monad_laws_suite(CFG)
    for alg_name in ("2_ang", "2_dem"):
        outcome = record(checks, f"monad.laws.{alg_name}")
        assert not outcome.passed
        w = outcome.witness
        algebra = catalog.builtin_algebras()[alg_name]
        space = functional_space(one, algebra)
        t, r = (
            next(s for s in all_state_transformers(one, space) if s.table == table)
            for table in target
        )
        assert (w["law"], w["x"], w["y"], w["z"]) == ("monad:lift-is-associative", "one", "one", "one")
        assert w["t"] == {"pt": space.functional(1).key()}
        assert w["r"] == {"pt": space.functional(2).key()}
        replay = [c for c in check_monad_laws(one, one, one, algebra, t, r) if not c.passed]
        assert [(c.name, c.witness) for c in replay] == [(w["law"], w["at"])]


def test_transformer_correspondence_witness_names_the_unmatched_transformer(monkeypatch):
    import powdom.verify as verify_mod

    algebra = catalog.builtin_algebras()["2_ang"]
    c2_space = functional_space(catalog.builtin_posets()["C2"], algebra)
    identity = tuple(range(len(c2_space.predicates)))
    real_relaxed = verify_mod.is_relaxed_morphism

    def faulty(phi, b, r, *rest):
        # the identity on the predicates over C2 is declared not relaxed
        if b is r is c2_space.pred_algebra and phi.table == identity:
            return CheckOutcome("relaxed-morphism", False)
        return real_relaxed(phi, b, r, *rest)

    monkeypatch.setattr(verify_mod, "is_relaxed_morphism", faulty)
    checks = verify_mod.check_monad(CFG)
    outcome = record(checks, "monad.transformer-correspondence.2_ang")
    preds = [m.key() for m in c2_space.predicates.maps]
    assert outcome.witness == {
        "x": "C2",
        "y": "C2",
        "family": "relaxed",
        "images_only": [dict(zip(preds, preds))],
        "morphisms_only": [],
    }
    assert record(checks, "monad.transformer-correspondence.2_dem").passed
    # replay: the unit's p(t) is an image of the relaxed family, yet rejected
    unit = c2_space.unit
    assert unit.predicate_transformer().table == identity
    s = unit.predicate_transformer()
    assert not faulty(s.as_map(), c2_space.pred_algebra, c2_space.pred_algebra).passed


def test_cone_witness_names_the_faulty_combination(monkeypatch):
    # 1 mu comes back as mu + nu for one pair; the identity axiom names mu
    from powdom.powerdomain import SimpleValuation

    import powdom.verify as verify_mod

    c2 = catalog.builtin_posets()["C2"]
    vals = catalog_valuations(c2)
    mu, nu = vals[1], vals[2]
    real_scale = SimpleValuation.scale

    def faulty(m, r):
        return m.add(nu) if (m, r) == (mu, ONE) else real_scale(m, r)

    monkeypatch.setattr(SimpleValuation, "scale", faulty)
    outcome = record(verify_mod.check_valuations(CFG), "valuation.cone-laws")
    assert outcome.witness == {
        "poset": "C2", "axiom": "ax1:identity", "x": mu.literal(), "got": mu.add(nu).literal()
    }
    assert faulty(mu, ONE).atoms != mu.atoms


def test_mixed_witness_names_the_faulty_envelope(monkeypatch):
    import powdom.verify as verify_mod

    c2 = catalog.builtin_posets()["C2"]
    target = catalog_envelopes(c2, SubFn, cap=6)[2]
    real_call = Envelope.__call__

    def faulty(phi, f):
        value = real_call(phi, f)
        return value + ONE if phi == target else value

    monkeypatch.setattr(Envelope, "__call__", faulty)
    checks = verify_mod.check_mixed(CFG)
    outcome = record(checks, "mixed.subfns-sublinear")
    assert outcome.witness["poset"] == "C2"
    assert outcome.witness["envelope"] == target.literal()
    seed = verify_mod.derive_seed(CFG.seed, "mixed.sublinear.C2.2")
    replay = check_linear_side(target, SUBLINEAR, max(CFG.trials // 10, 100), seed)
    assert outcome.witness["failed"] == [c.name for c in replay.witnesses()]
    assert "zero-at-zero" in outcome.witness["failed"]
    assert record(checks, "mixed.supfns-superlinear").passed


def test_lifting_witnesses_name_the_transformer(monkeypatch):
    import powdom.verify as verify_mod

    algebra = catalog.builtin_algebras()["2_ang"]
    c2 = catalog.builtin_posets()["C2"]
    real_lifts = StateTransformer.lift_table

    def faulty(t):
        table = real_lifts(t)
        if t.source == c2 and t.space is functional_space(c2, algebra):
            # every functional lifts to the constant top, which breaks zero
            return (len(t.space.space) - 1,) * len(table)
        return table

    monkeypatch.setattr(StateTransformer, "lift_table", faulty)
    checks = verify_mod.check_monad(CFG)
    ops = record(checks, "monad.lifting-preserves-ops").witness
    assert (ops["algebra"], ops["x"], ops["y"], ops["op"], ops["args"]) == ("2_ang", "C2", "C2", "zero", [])
    assert set(ops) == {"algebra", "x", "y", "t", "op", "args"}
    homs = record(checks, "monad.lifting-preserves-homs").witness
    assert (homs["algebra"], homs["x"], homs["y"]) == ("2_ang", "C2", "C2")
    assert set(homs) == {"algebra", "x", "y", "t", "phi"}


# ---------------------------------------------------------------------------
# each interchange pair is compared once, and each scaled predicate is built
# once per check


SYMMETRY_ALGEBRAS = ("2_ang", "2_dem", "frame2", "rplus_semiring")


def test_interchange_symmetry_calls_each_unordered_pair_twice(monkeypatch):
    import itertools
    from collections import Counter

    import powdom.verify as verify_mod

    calls = Counter()
    real_commutes = verify_mod.commutes

    def spy(alg, s, o, rng, trials):
        calls[(alg.name, s, o)] += 1
        return real_commutes(alg, s, o, rng, trials)

    monkeypatch.setattr(verify_mod, "commutes", spy)
    checks = verify_mod.check_algebra_laws(CFG)
    assert record(checks, "algebra.interchange-symmetric").passed
    algs = catalog.builtin_algebras()
    expected = Counter()
    for name in SYMMETRY_ALGEBRAS:
        for s, o in itertools.combinations(algs[name].signature.symbols(), 2):
            expected[(name, s, o)] += 1
            expected[(name, o, s)] += 1
    assert calls == expected


def test_interchange_symmetry_witness_names_the_lying_pair(monkeypatch):
    import powdom.verify as verify_mod

    symbols = catalog.builtin_algebras()["rplus_semiring"].signature.symbols()
    sigma, omega = symbols[1], symbols[2]
    real_commutes = verify_mod.commutes

    def liar(alg, s, o, rng, trials):
        # the transposed call alone fails
        if (alg.name, s, o) == ("rplus_semiring", omega, sigma):
            return CheckOutcome(f"commutes:{s},{o}", False)
        return real_commutes(alg, s, o, rng, trials)

    monkeypatch.setattr(verify_mod, "commutes", liar)
    outcome = record(verify_mod.check_algebra_laws(CFG), "algebra.interchange-symmetric")
    assert outcome.witness == {"algebra": "rplus_semiring", "sigma": sigma, "omega": omega}


def test_valuation_linear_draws_a_capped_budget(monkeypatch):
    # each valuation draws at most 100 samples per op: two predicates for add,
    # one for scale, none for zero; uncapped at the default config, 58
    # valuations would draw 3 x 10,000 each, about 1.7 million
    from powdom import powerdomain

    import powdom.verify as verify_mod

    drawn = [0]
    real_draw = powerdomain.random_predicate

    def spy(poset, rng):
        drawn[0] += 1
        return real_draw(poset, rng)

    monkeypatch.setattr(powerdomain, "random_predicate", spy)
    for trials in (100, 10_000):
        drawn[0] = 0
        cfg = SuiteConfig(seed=42, trials=trials, catalog_max=2)
        checks = verify_mod.check_valuations(cfg)
        assert all(c.passed for c in checks)
        vals = sum(len(catalog_valuations(p)) for p in cfg.posets().values())
        assert drawn[0] == vals * 3 * 100 == 4200


def test_order_oracle_evaluates_each_valuation_once_per_predicate(monkeypatch):
    # the oracle used to evaluate both valuations of every ordered pair on all
    # 1,000 sampled predicates: 62,000 of the section's 70,760 calls
    from powdom.powerdomain import SimpleValuation

    import powdom.verify as verify_mod

    calls = [0]
    real_call = SimpleValuation.__call__

    def counting(self, f):
        calls[0] += 1
        return real_call(self, f)

    monkeypatch.setattr(SimpleValuation, "__call__", counting)
    checks = verify_mod.check_valuations(SuiteConfig(seed=42, trials=100, catalog_max=2))
    assert all(c.passed for c in checks)
    assert calls[0] <= 23_000


def test_linearity_witness_names_the_faulty_scaled_predicate(monkeypatch):
    from powdom.algebra import is_homomorphism
    from powdom.powerdomain import PredAlgebra, SimpleValuation, chi
    from powdom.poset import all_up_sets

    import powdom.verify as verify_mod

    c2 = catalog.builtin_posets()["C2"]
    cone = catalog.builtin_algebras()["rplus_cone"]
    mu = catalog_valuations(c2)[1]  # the point evaluation at the top
    (f,) = [g for g in map(chi, all_up_sets(c2)) if g.values == (ZERO, ONE)]
    r = ExtNN(Fraction(1, 2))
    scaled = tuple(r * v for v in f.values)
    real_call = SimpleValuation.__call__

    def faulty(nu, g):
        value = real_call(nu, g)
        return value + ONE if nu == mu and g.values == scaled else value

    monkeypatch.setattr(SimpleValuation, "__call__", faulty)
    outcome = record(verify_mod.check_valuations(CFG), "valuation.linear")
    witness = {
        "op": "scale", "relation": "=", "args": [f.literal()], "param": "1/2", "lhs": "3/2", "rhs": "1/2"
    }
    assert outcome.witness == {"poset": "C2", "mu": mu.literal(), **witness}
    # the grid alone finds it, as powerdomain valuations does
    assert is_homomorphism(mu, PredAlgebra(cone, c2), cone).witness == witness


def test_linearity_checks_the_zero_op(monkeypatch):
    # mu nonzero on the zero predicate.  A fault on the values alone would
    # already break add on (chi{}, chi{}) or scale at 0, so this one keys on
    # the predicate object that the zero op builds, which only zero evaluates
    from powdom.powerdomain import PredAlgebra, SimpleValuation

    import powdom.verify as verify_mod

    c2 = catalog.builtin_posets()["C2"]
    mu = catalog_valuations(c2)[1]
    zeros = []  # kept alive, so that their ids stay theirs
    real_resolve, real_call = PredAlgebra.resolve, SimpleValuation.__call__

    def resolve(preds, symbol, param=None):
        op = real_resolve(preds, symbol, param)

        def recorded(args):
            out = op(args)
            if symbol == "zero":
                zeros.append(out)
            return out

        return recorded

    def faulty(nu, f):
        return ONE if nu == mu and any(f is z for z in zeros) else real_call(nu, f)

    monkeypatch.setattr(PredAlgebra, "resolve", resolve)
    monkeypatch.setattr(SimpleValuation, "__call__", faulty)
    outcome = record(verify_mod.check_valuations(CFG), "valuation.linear")
    assert outcome.witness == {
        "poset": "C2", "mu": mu.literal(),
        "op": "zero", "relation": "=", "args": [], "param": None, "lhs": "1", "rhs": "0",
    }


def test_cone_laws_build_each_valuation_once(monkeypatch):
    from powdom.powerdomain import SimpleValuation

    import powdom.verify as verify_mod

    built = [0]
    real_post_init = SimpleValuation.__post_init__

    def spy(self):
        built[0] += 1
        real_post_init(self)

    monkeypatch.setattr(SimpleValuation, "__post_init__", spy)
    checks = verify_mod.check_valuations(SuiteConfig(trials=100, catalog_max=2))
    assert all(c.passed for c in checks)
    # 5,710 through the module-axiom walker; 65,033 when every law rebuilt
    # its scaled and summed valuations
    assert built[0] <= 6287


# a scale that drops the first atom of its result for one scalar, and the
# first cone-law witness it gives: the first failing module axiom, in the
# axioms' walk order, on the first poset where one fails
C2_SUM = "val { 1/2 @ bot; 1/3 @ top }"
ONE_PT = "val { 1 @ pt }"


@pytest.mark.parametrize(
    "scalar, min_atoms, witness",
    [
        (ExtNN(Fraction(1, 2)), 2, {
            "poset": "C2", "axiom": "ax2:composition", "endos": ["1/3", "1/2"], "x": C2_SUM,
            "lhs": "val { 1/12 @ bot; 1/18 @ top }", "rhs": "val { 1/18 @ top }",
        }),
        (ExtNN(Fraction(1, 2)), 1, {
            "poset": "one", "axiom": "ax2:composition", "endos": ["1/3", "1/2"], "x": ONE_PT,
            "lhs": "val { 1/6 @ pt }", "rhs": "val {  }",
        }),
        (INF, 1, {
            "poset": "one", "axiom": "ax3:ops-pointwise:add", "op": "add", "param": None,
            "endos": ["1/3", "inf"], "x": ONE_PT, "lhs": "val {  }", "rhs": "val { 1/3 @ pt }",
        }),
        (ONE, 1, {"poset": "one", "axiom": "ax1:identity", "x": ONE_PT, "got": "val {  }"}),
    ],
    ids=["half-on-sums", "half", "inf", "one"],
)
def test_cone_witness_of_a_faulty_scale_is_the_first_in_walk_order(monkeypatch, scalar, min_atoms, witness):
    from powdom.powerdomain import SimpleValuation

    import powdom.verify as verify_mod

    real_scale = SimpleValuation.scale

    def faulty(self, r):
        out = real_scale(self, r)
        if r == scalar and len(out.atoms) >= min_atoms:
            return SimpleValuation(out.poset, out.atoms[1:])
        return out

    monkeypatch.setattr(SimpleValuation, "scale", faulty)
    cfg = SuiteConfig(seed=42, trials=100, catalog_max=2)
    outcome = record(verify_mod.check_valuations(cfg), "valuation.cone-laws")
    assert outcome.witness == witness
