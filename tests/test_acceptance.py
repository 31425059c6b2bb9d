"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All checks are exact or seeded; no tolerances beyond
the stated time budgets are involved.
"""

import hashlib
import itertools
import json
import time
from fractions import Fraction

from powdom import catalog
from powdom.algebra import (
    OpTag,
    check_module_axioms,
    is_entropic,
    is_homomorphism,
    is_relaxed_entropic,
    lift_pointwise,
    scalar_action,
    subcommutes,
)
from powdom.extnum import ExtNN, ZERO
from powdom.funcspace import MonoMap, enumerate_monotone
from powdom.monad import (
    all_predicate_transformers,
    all_state_transformers,
    check_monad_laws,
    delta,
    functional_space,
    kleisli_lift,
    p_transform,
    q_transform,
)
from powdom.poset import all_down_sets, all_up_sets, sub_poset
from powdom.powerdomain import (
    ENVELOPES,
    Predicate,
    catalog_envelopes,
    catalog_valuations,
    check_linear_side,
    chi,
    hoare_powerdomain,
    non_integer_witness,
    random_predicate,
    smyth_powerdomain,
    sobrification,
    valuation_leq,
)
from powdom.sampling import task_rng

POSETS = catalog.builtin_posets()
ALGS = catalog.builtin_algebras()
SEED = 42


class _Stopwatch:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "pass" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {verdict} ({elapsed:.1f}s / {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s"
        return False


def test_criterion_1_pq_bijection():
    with _Stopwatch("1 state/predicate bijection", 10):
        r = ALGS["2_ang"]
        small = {n: p for n, p in POSETS.items() if p.size <= 3}
        for x in small.values():
            for y in small.values():
                xs = functional_space(x, r)
                ys = functional_space(y, r)
                for t in all_state_transformers(x, ys):
                    assert q_transform(p_transform(t)) == t
                for s in all_predicate_transformers(ys, xs):
                    assert p_transform(q_transform(s)) == s


def test_criterion_2_hoare_equivalences():
    with _Stopwatch("2 hoare equivalences", 30):
        for name, poset in POSETS.items():
            result = hoare_powerdomain(poset, ALGS["2_ang"])
            assert result.passed, f"{name}: {result.as_record()}"
            assert len(result.functionals) == len(all_down_sets(poset))


def test_criterion_3_smyth_equivalences():
    with _Stopwatch("3 smyth equivalences", 30):
        for name, poset in POSETS.items():
            result = smyth_powerdomain(poset, ALGS["2_dem"])
            assert result.passed, f"{name}: {result.as_record()}"
            assert len(result.functionals) == len(all_up_sets(poset))


def test_criterion_4_sobrification():
    with _Stopwatch("4 sobrification", 30):
        for name, poset in POSETS.items():
            points, checks = sobrification(poset, ALGS["frame2"])
            assert all(c.passed for c in checks), name
            assert len(points) == poset.size


def test_criterion_5_entropicity_matrix():
    with _Stopwatch("5 entropicity matrix", 20):
        assert is_entropic(ALGS["2_ang"]).passed
        assert is_entropic(ALGS["2_dem"]).passed

        lattice = is_entropic(ALGS["lattice2"])
        assert not lattice.passed
        assert any(c.witness for c in lattice.witnesses())

        semiring = is_entropic(
            ALGS["rplus_semiring"], task_rng(SEED, "acc5.semiring"), 2000
        )
        assert not semiring.passed
        alg = ALGS["rplus_semiring"]
        one, two, three, four = ExtNN(1), ExtNN(2), ExtNN(3), ExtNN(4)
        lhs = alg.resolve("add")((alg.resolve("mul")((one, two)), alg.resolve("mul")((three, four))))
        rhs = alg.resolve("mul")((alg.resolve("add")((one, three)), alg.resolve("add")((two, four))))
        assert lhs == ExtNN(14) != rhs == ExtNN(24)

        for name in ("rplus_max", "rplus_min"):
            report = is_relaxed_entropic(ALGS[name], task_rng(SEED, f"acc5.{name}"), 10_000)
            assert report.passed, report.witnesses()[:1]


def _two_ang_le():
    return catalog.two_valued("2_ang_le", (("join", OpTag.LE), ("zero", OpTag.EQ)))


def test_criterion_6_containments():
    with _Stopwatch("6 free-family containments", 60):
        for aname in ("2_ang", "2_dem"):
            algebra = ALGS[aname]
            assert is_entropic(algebra).passed
            for poset in POSETS.values():
                space = functional_space(poset, algebra)
                assert set(space.free_indices) <= set(space.hom_indices)
        for algebra in (ALGS["2_ang"], ALGS["2_dem"], _two_ang_le()):
            assert is_relaxed_entropic(algebra).passed
            for poset in POSETS.values():
                space = functional_space(poset, algebra)
                assert set(space.free_indices) <= set(space.relaxed_indices)


def test_criterion_7_monad_laws():
    with _Stopwatch("7 monad laws", 60):
        small = [POSETS["one"], POSETS["C2"], POSETS["A2"]]
        for r in (ALGS["2_ang"], ALGS["2_dem"]):
            for x, y, z in itertools.product(small, repeat=3):
                ys = functional_space(y, r)
                zs = functional_space(z, r)
                for t in all_state_transformers(x, ys):
                    for rr in all_state_transformers(y, zs):
                        checks = check_monad_laws(x, y, z, r, t, rr)
                        assert all(c.passed for c in checks)


def test_criterion_8_unit_and_lifting_suite():
    with _Stopwatch("8 unit embedding and lifting suite", 60):
        # the unit is an order embedding on every catalog poset
        for poset in POSETS.values():
            for aname in ("2_ang", "2_dem"):
                ds = delta(poset, ALGS[aname])
                for i in range(poset.size):
                    for j in range(poset.size):
                        assert poset.leq[i][j] == ds[i].leq(ds[j])

        # the lifting preserves ops and op-preserving functionals
        small = [POSETS["one"], POSETS["C2"], POSETS["A2"]]
        for r in (ALGS["2_ang"], ALGS["2_dem"]):
            for x in small:
                for y in small:
                    xs = functional_space(x, r)
                    ys = functional_space(y, r)
                    hom_set = set(ys.hom_indices)
                    for t in all_state_transformers(x, ys):
                        for op in r.signature.ops:
                            for args in itertools.product(
                                range(len(xs.space)), repeat=op.arity
                            ):
                                combined = xs.func_algebra.resolve(op.symbol)(args)
                                lhs = kleisli_lift(t, xs.functional(combined))
                                parts = tuple(
                                    ys.space.index(kleisli_lift(t, xs.functional(a)).table)
                                    for a in args
                                )
                                rhs = ys.functional(ys.func_algebra.resolve(op.symbol)(parts))
                                assert lhs.table == rhs.table
                    for t in all_state_transformers(x, ys, ys.hom_indices):
                        for i in xs.hom_indices:
                            lifted = kleisli_lift(t, xs.functional(i))
                            assert ys.space.index(lifted.table) in hom_set

        # evaluation on an algebra preserves ops into the hom functionals
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
            assert is_homomorphism(MonoMap(a.carrier, lifted.carrier, table), a, lifted).passed


def _sum(f, g):
    return Predicate(f.poset, tuple(a + b for a, b in zip(f.values, g.values)))


def _scaled(r, f):
    return Predicate(f.poset, tuple(r * v for v in f.values))


def test_criterion_9_valuation_engine():
    with _Stopwatch("9 valuation engine", 30):
        for name, poset in POSETS.items():
            vals = catalog_valuations(poset)
            chis = [chi(u) for u in all_up_sets(poset)]
            rng = task_rng(SEED, f"acc9.lin.{name}")
            sampled = [random_predicate(poset, rng) for _ in range(1000)]
            for mu in vals:
                for f in chis:
                    for g in chis:
                        assert mu(_sum(f, g)) == mu(f) + mu(g)
                    for r in (ZERO, ExtNN(Fraction(1, 2)), ExtNN(3)):
                        assert mu(_scaled(r, f)) == r * mu(f)
            for mu in vals[:3]:
                for f, g in zip(sampled[::2], sampled[1::2]):
                    assert mu(_sum(f, g)) == mu(f) + mu(g)

            rng2 = task_rng(SEED, f"acc9.ord.{name}")
            sample = [random_predicate(poset, rng2) for _ in range(1000)]
            for mu in vals[:4]:
                for nu in vals[:4]:
                    if valuation_leq(mu, nu):
                        assert all(mu(f) <= nu(f) for f in sample)
                    else:
                        assert any(not mu(c) <= nu(c) for c in chis)

        report = check_module_axioms(
            scalar_action(ALGS["rplus"]), ALGS["rplus"], task_rng(SEED, "acc9.mod"), 2000
        )
        assert report.passed


def test_criterion_10_mixed_powerdomains():
    with _Stopwatch("10 mixed powerdomains", 60):
        assert subcommutes(
            ALGS["rplus_max"], "max", "add", task_rng(SEED, "acc10.sub"), 2000
        ).passed
        assert subcommutes(
            ALGS["rplus_min"], "add", "min", task_rng(SEED, "acc10.sup"), 2000
        ).passed

        for name in ("C2", "A2", "chain3"):
            poset = POSETS[name]
            for envelope in ENVELOPES:
                for phi in catalog_envelopes(poset, envelope, cap=4):
                    report = check_linear_side(phi, envelope.side, trials=10_000, seed=SEED)
                    assert report.passed, report.as_record()

        witness = non_integer_witness(
            POSETS["C2"], 0, ExtNN(Fraction(1, 2)), ALGS["rplus"], trials=2000, seed=SEED
        )
        assert witness.passed
        mass = next(c for c in witness.checks if c.name == "mass-outside-naturals")
        assert mass.witness["mass"] == "1/2"


def test_criterion_11_determinism(tmp_path):
    from powdom.cli import main

    with _Stopwatch("11 determinism of the verification suite", 300):
        out1 = tmp_path / "suite1.json"
        out2 = tmp_path / "suite2.json"
        assert main(["verify-suite", "--seed", "42", "--json", str(out1)]) == 0
        assert main(["verify-suite", "--seed", "42", "--json", str(out2)]) == 0
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        # the default report's digest: the behaviour guard of every change
        assert hashlib.sha256(b1).hexdigest() == "1c22aaa5aaaa6f23b956a71d07a9ec25dbe4a72c76425996ec5f067e5eb238e1"
        data = json.loads(b1)
        assert data["verdict"] == "pass"
        assert all(c.get("verdict") == "pass" for c in data["checks"])
