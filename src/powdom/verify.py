"""The built-in verification suite.

Runs every structural invariant of the package over the built-in catalog:
exact arithmetic laws, poset dualities, exponential enumeration oracles,
closure and morphism properties of the functional families, the
state/predicate transformer correspondence, the set-based powerdomain
cross-checks, and the valuation engine.  Records are deterministic given
the configuration, including every seed used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import catalog
from .algebra import (
    CheckOutcome,
    FinAlgebra,
    OpSpec,
    OpTag,
    Signature,
    check_module_axioms,
    commutes,
    generated_subalgebra,
    is_entropic,
    is_homomorphism,
    is_relaxed_entropic,
    is_relaxed_morphism,
    lift_pointwise,
    scalar_action,
    subcommutes,
)
from .extnum import ONE, ZERO
from .funcspace import MonoMap, compose, enumerate_monotone, precompose
from .monad import (
    all_predicate_transformers,
    all_state_transformers,
    check_monad_laws,
    delta,
    functional_space,
    kleisli_lift,
    p_transform,
    q_transform,
)
from .poset import all_down_sets, all_up_sets, poset_from_cover, sub_poset
from .powerdomain import (
    ENVELOPES,
    SET_POWERDOMAINS,
    check_linear_side,
    chi,
    cone_combine,
    pred_add,
    random_predicate,
    sobrification,
    valuation_leq,
    valuations_linear,
)
from .report import Report
from .sampling import (
    DEFAULT_SEED,
    DEFAULT_SIZE_GUARD,
    DEFAULT_TRIALS,
    MONOID_GRID,
    SAMPLED,
    SCALAR_GRID,
    derive_seed,
    random_extnn,
    task_rng,
)

# the algebra and monad sections look up the catalog posets one, C2 and A2
MIN_CATALOG_MAX = 2


@dataclass
class SuiteConfig:
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    size_guard: int = DEFAULT_SIZE_GUARD
    catalog_max: int = 4

    def posets(self):
        return {
            name: p
            for name, p in catalog.builtin_posets().items()
            if p.size <= self.catalog_max
        }

    def rng(self, label):
        return task_rng(self.seed, label)


# ---------------------------------------------------------------------------
# exact arithmetic


def check_extnum(cfg: SuiteConfig):
    checks = []
    rng = cfg.rng("extnum")
    triples = list(itertools.product(MONOID_GRID, repeat=3))
    triples += [
        tuple(random_extnn(rng) for _ in range(3)) for _ in range(cfg.trials)
    ]
    ok = all(a + (b + c) == (a + b) + c for a, b, c in triples)
    checks.append(CheckOutcome("extnum.add-associative", ok, SAMPLED))
    ok = all(a + b == b + a for a, b, _ in triples)
    checks.append(CheckOutcome("extnum.add-commutative", ok, SAMPLED))
    ok = all(a + ZERO == a for a, _, _ in triples)
    checks.append(CheckOutcome("extnum.add-unit", ok, SAMPLED))
    ok = all(a * (b + c) == a * b + a * c for a, b, c in triples)
    checks.append(CheckOutcome("extnum.mul-distributes", ok, SAMPLED))
    ok = all(
        (a * b <= a * c) and (b * a <= c * a) and (a + b <= a + c)
        for a, b, c in triples
        if b <= c
    )
    checks.append(CheckOutcome("extnum.ops-monotone", ok, SAMPLED))
    return checks


# ---------------------------------------------------------------------------
# posets


def check_posets(cfg: SuiteConfig):
    checks = []
    for name, poset in cfg.posets().items():
        ups = all_up_sets(poset, cfg.size_guard)
        downs = all_down_sets(poset, cfg.size_guard)
        ok = len(ups) == len(downs) and sorted(
            u.complement().mask for u in ups
        ) == sorted(d.mask for d in downs)
        checks.append(CheckOutcome(f"poset.updown-duality.{name}", ok))
        masks = {u.mask for u in ups}
        ok = all(
            (a.mask | b.mask) in masks and (a.mask & b.mask) in masks
            for a in ups
            for b in ups
        )
        checks.append(CheckOutcome(f"poset.opens-closed-under-union-meet.{name}", ok))
        rebuilt = poset_from_cover(
            poset.labels,
            [(poset.labels[i], poset.labels[j]) for i, j in poset.covers()],
        )
        checks.append(CheckOutcome(f"poset.cover-roundtrip.{name}", rebuilt.leq == poset.leq))
    return checks


# ---------------------------------------------------------------------------
# function spaces


def check_funcspace(cfg: SuiteConfig):
    checks = []
    named = cfg.posets()
    small = {k: named[k] for k in ("C2", "A2", "chain3") if k in named}
    two = catalog.TWO
    for name, poset in named.items():
        expo = enumerate_monotone(poset, two, cfg.size_guard)
        brute = sum(
            1
            for table in itertools.product(range(two.size), repeat=poset.size)
            if all(
                two.leq[table[i]][table[j]]
                for i in range(poset.size)
                for j in range(poset.size)
                if poset.leq[i][j]
            )
        )
        checks.append(CheckOutcome(f"funcspace.count-vs-bruteforce.{name}", len(expo) == brute))
    ok = True
    for (xn, x), (yn, y), (zn, z) in itertools.product(small.items(), repeat=3):
        us = enumerate_monotone(x, y, cfg.size_guard).maps
        vs = enumerate_monotone(y, z, cfg.size_guard).maps
        gs = enumerate_monotone(z, two, cfg.size_guard).maps
        for u in us:
            for v in vs:
                for g in gs:
                    if precompose(compose(u, v), g).table != precompose(
                        u, precompose(v, g)
                    ).table:
                        ok = False
    checks.append(CheckOutcome("funcspace.precompose-functorial", ok))
    return checks


# ---------------------------------------------------------------------------
# algebras


def _two_ang_le() -> FinAlgebra:
    sig = Signature((OpSpec("join", 2, OpTag.LE), OpSpec("zero", 0, OpTag.EQ)))
    return FinAlgebra(
        "2_ang_le",
        catalog.TWO,
        sig,
        {"join": {(i, j): max(i, j) for i in (0, 1) for j in (0, 1)}, "zero": {(): 0}},
    )


def check_algebra_laws(cfg: SuiteConfig):
    checks = []
    algs = catalog.builtin_algebras()
    rng = cfg.rng("algebra.entropic")

    for name, expected in (
        ("2_ang", True),
        ("2_dem", True),
        ("frame2", False),
        ("lattice2", False),
        ("rplus", True),
        ("rplus_semiring", False),
    ):
        report = is_entropic(algs[name], cfg.rng(f"entropic.{name}"), cfg.trials)
        checks.append(
            CheckOutcome(
                f"algebra.entropic.{name}",
                report.passed == expected,
                report.mode,
                None if report.passed == expected else report.as_record(),
            )
        )
    for name in ("rplus_max", "rplus_min"):
        report = is_relaxed_entropic(algs[name], cfg.rng(f"relaxed.{name}"), cfg.trials)
        checks.append(
            CheckOutcome(
                f"algebra.relaxed-entropic.{name}",
                report.passed,
                report.mode,
                None if report.passed else report.as_record(),
            )
        )

    # interchange symmetry: the law for (sigma, omega) transposes to (omega, sigma)
    sym_ok = True
    for name in ("2_ang", "2_dem", "frame2", "rplus_semiring"):
        alg = algs[name]
        for s in alg.signature.symbols():
            for o in alg.signature.symbols():
                a = commutes(alg, s, o, cfg.rng(f"sym.{name}.{s}.{o}"), cfg.trials // 10)
                b = commutes(alg, o, s, cfg.rng(f"sym.{name}.{o}.{s}"), cfg.trials // 10)
                if a.passed != b.passed:
                    sym_ok = False
    checks.append(CheckOutcome("algebra.interchange-symmetric", sym_ok, SAMPLED))

    # the mixed inequational laws backing the sublinear/superlinear checks
    sub1 = subcommutes(algs["rplus_max"], "max", "add", cfg.rng("sub.max.add"), cfg.trials)
    checks.append(CheckOutcome("algebra.max-subcommutes-add", sub1.passed, sub1.mode, sub1.witness))
    sub2 = subcommutes(algs["rplus_min"], "add", "min", cfg.rng("sub.add.min"), cfg.trials)
    checks.append(CheckOutcome("algebra.add-subcommutes-min", sub2.passed, sub2.mode, sub2.witness))

    # closure of morphism families under the lifted ops
    posets = cfg.posets()
    for rname in ("2_ang", "2_dem"):
        r = algs[rname]
        ok = True
        for pname, poset in posets.items():
            space = functional_space(poset, r, cfg.size_guard)
            homs = set(space.hom_indices)
            if set(generated_subalgebra(space.func_algebra, space.hom_indices)) != homs:
                ok = False
        checks.append(CheckOutcome(f"algebra.hom-set-closed.{rname}", ok))
    r = _two_ang_le()
    ok = True
    for pname, poset in posets.items():
        space = functional_space(poset, r, cfg.size_guard)
        relaxed = set(space.relaxed_indices)
        if set(generated_subalgebra(space.func_algebra, space.relaxed_indices)) != relaxed:
            ok = False
    checks.append(CheckOutcome("algebra.relaxed-set-closed.2_ang_le", ok))

    # closure operator laws for generated subalgebras
    lifted = functional_space(posets["A2"], algs["2_ang"], cfg.size_guard).func_algebra
    n = lifted.carrier.size
    gen_rng = cfg.rng("algebra.closure")
    subsets = [
        tuple(sorted(gen_rng.sample(range(n), gen_rng.randrange(0, n + 1))))
        for _ in range(40)
    ]
    mono_ok = idem_ok = True
    for gens in subsets:
        closed = generated_subalgebra(lifted, gens)
        if generated_subalgebra(lifted, closed) != closed:
            idem_ok = False
        bigger = tuple(sorted(set(gens) | {gen_rng.randrange(n)})) if n else gens
        if not set(closed) <= set(generated_subalgebra(lifted, bigger)):
            mono_ok = False
    checks.append(CheckOutcome("algebra.closure-idempotent", idem_ok, SAMPLED))
    checks.append(CheckOutcome("algebra.closure-monotone", mono_ok, SAMPLED))
    return checks


# ---------------------------------------------------------------------------
# functionals and transformers


def check_monad(cfg: SuiteConfig):
    checks = []
    algs = catalog.builtin_algebras()
    posets = cfg.posets()
    two_algs = [algs["2_ang"], algs["2_dem"]]

    # the unit is an order embedding
    ok = True
    for pname, poset in posets.items():
        for r in two_algs:
            ds = delta(poset, r, cfg.size_guard)
            for i in range(poset.size):
                for j in range(poset.size):
                    if poset.leq[i][j] != ds[i].leq(ds[j]):
                        ok = False
    checks.append(CheckOutcome("monad.unit-order-embedding", ok))

    small = [posets[k] for k in ("one", "C2", "A2")]

    # the lifting preserves the pointwise ops and the hom family
    lift_hom_ok = preserves_ok = True
    for r in two_algs:
        for x in small:
            for y in small:
                xs = functional_space(x, r, cfg.size_guard)
                ys = functional_space(y, r, cfg.size_guard)
                for t in all_state_transformers(x, ys, None, cfg.size_guard):
                    for op in r.signature.ops:
                        for args in itertools.product(
                            range(len(xs.space)), repeat=op.arity
                        ):
                            combined = xs.func_algebra.apply(op.symbol, args)
                            lhs = kleisli_lift(
                                t, xs.functional(combined), cfg.size_guard
                            )
                            parts = tuple(
                                ys.space.index(
                                    kleisli_lift(
                                        t, xs.functional(a), cfg.size_guard
                                    ).table
                                )
                                for a in args
                            )
                            rhs = ys.functional(
                                ys.func_algebra.apply(op.symbol, parts)
                            )
                            if lhs.table != rhs.table:
                                lift_hom_ok = False
                hom_t = all_state_transformers(x, ys, ys.hom_indices, cfg.size_guard)
                hom_set = set(ys.hom_indices)
                for t in hom_t:
                    for i in xs.hom_indices:
                        lifted = kleisli_lift(t, xs.functional(i), cfg.size_guard)
                        if ys.space.index(lifted.table) not in hom_set:
                            preserves_ok = False
    checks.append(CheckOutcome("monad.lifting-preserves-ops", lift_hom_ok))
    checks.append(CheckOutcome("monad.lifting-preserves-homs", preserves_ok))

    # state/predicate correspondence for the hom and relaxed families
    for r in two_algs + [_two_ang_le()]:
        corr_ok = True
        for x in [posets["C2"], posets["A2"]]:
            for y in [posets["C2"], posets["A2"]]:
                xs = functional_space(x, r, cfg.size_guard)
                ys = functional_space(y, r, cfg.size_guard)
                hom_t = all_state_transformers(x, ys, ys.hom_indices, cfg.size_guard)
                images = {p_transform(t, cfg.size_guard).table for t in hom_t}
                hom_s = {
                    s.table
                    for s in all_predicate_transformers(ys, xs, cfg.size_guard)
                    if is_homomorphism(s.as_map(), ys.pred_algebra, xs.pred_algebra)
                }
                if images != hom_s:
                    corr_ok = False
                rel_t = all_state_transformers(
                    x, ys, ys.relaxed_indices, cfg.size_guard
                )
                rel_images = {p_transform(t, cfg.size_guard).table for t in rel_t}
                rel_s = {
                    s.table
                    for s in all_predicate_transformers(ys, xs, cfg.size_guard)
                    if is_relaxed_morphism(s.as_map(), ys.pred_algebra, xs.pred_algebra)
                }
                if rel_images != rel_s:
                    corr_ok = False
        checks.append(CheckOutcome(f"monad.transformer-correspondence.{r.name}", corr_ok))

    # containments of the generated family
    for rname in ("2_ang", "2_dem"):
        r = algs[rname]
        ok = True
        for pname, poset in posets.items():
            space = functional_space(poset, r, cfg.size_guard)
            if not set(space.free_indices) <= set(space.hom_indices):
                ok = False
        checks.append(CheckOutcome(f"monad.free-inside-hom.{rname}", ok))
    r = _two_ang_le()
    ok = True
    for pname, poset in posets.items():
        space = functional_space(poset, r, cfg.size_guard)
        if not set(space.free_indices) <= set(space.relaxed_indices):
            ok = False
    checks.append(CheckOutcome("monad.free-inside-relaxed.2_ang_le", ok))

    # the unit on an algebra is op-preserving into the hom functionals
    for aname in ("2_ang", "2_dem", "lattice2"):
        a = algs[aname]
        expo = enumerate_monotone(a.carrier, a.carrier, cfg.size_guard)
        hom_idx = [
            i for i, m in enumerate(expo.maps) if is_homomorphism(m, a, a)
        ]
        hom_poset = sub_poset(expo.poset, hom_idx)
        lifted = lift_pointwise(a, hom_poset, cfg.size_guard)
        table = tuple(
            lifted.expo.index(
                tuple(expo.maps[h].table[v] for h in hom_idx)
            )
            for v in range(a.carrier.size)
        )
        delta_a = MonoMap(a.carrier, lifted.carrier, table)
        outcome = is_homomorphism(delta_a, a, lifted)
        checks.append(CheckOutcome(f"monad.unit-on-algebra-preserves-ops.{aname}", outcome.passed))
    return checks


def check_transform_roundtrips(cfg: SuiteConfig):
    """P and Q are mutually inverse on every enumerable transformer."""
    checks = []
    algs = catalog.builtin_algebras()
    r = algs["2_ang"]
    posets = {n: p for n, p in cfg.posets().items() if p.size <= 3}
    ok = True
    for xn, x in posets.items():
        for yn, y in posets.items():
            xs = functional_space(x, r, cfg.size_guard)
            ys = functional_space(y, r, cfg.size_guard)
            for t in all_state_transformers(x, ys, None, cfg.size_guard):
                if q_transform(p_transform(t, cfg.size_guard), cfg.size_guard) != t:
                    ok = False
            for s in all_predicate_transformers(ys, xs, cfg.size_guard):
                if p_transform(q_transform(s, cfg.size_guard), cfg.size_guard) != s:
                    ok = False
    checks.append(CheckOutcome("monad.pq-roundtrip", ok))
    return checks


def check_monad_laws_suite(cfg: SuiteConfig):
    checks = []
    algs = catalog.builtin_algebras()
    posets = cfg.posets()
    small = [posets[k] for k in ("one", "C2", "A2")]
    for r in (algs["2_ang"], algs["2_dem"]):
        ok = True
        for x, y, z in itertools.product(small, repeat=3):
            ys = functional_space(y, r, cfg.size_guard)
            zs = functional_space(z, r, cfg.size_guard)
            ts = all_state_transformers(x, ys, None, cfg.size_guard)
            rs = all_state_transformers(y, zs, None, cfg.size_guard)
            for t in ts:
                for rr in rs:
                    if not all(
                        c.passed
                        for c in check_monad_laws(x, y, z, r, t, rr, cfg.size_guard)
                    ):
                        ok = False
        checks.append(CheckOutcome(f"monad.laws.{r.name}", ok))
    return checks


# ---------------------------------------------------------------------------
# powerdomains and valuations


def check_powerdomains(cfg: SuiteConfig):
    checks = []
    algs = catalog.builtin_algebras()
    posets = cfg.posets()
    for name, poset in posets.items():
        for side, build in SET_POWERDOMAINS.values():
            result = build(poset, algs[side.algebra], cfg.size_guard)
            count_ok = len(result.functionals) == len(side.sets(poset, cfg.size_guard))
            failed = [c.name for c in result.checks if not c.passed]
            checks.append(
                CheckOutcome(
                    f"powerdomain.{side.kind}.{name}",
                    not failed and count_ok,
                    witness={"failed": failed} if failed else None,
                )
            )
        points, sober_checks = sobrification(poset, algs["frame2"], cfg.size_guard)
        checks.append(
            CheckOutcome(
                f"powerdomain.sober.{name}",
                all(c.passed for c in sober_checks) and len(points) == poset.size,
            )
        )
    return checks


def check_valuations(cfg: SuiteConfig):
    checks = []
    posets = cfg.posets()
    algs = catalog.builtin_algebras()
    lin_ok = True
    agree_ok = True
    cone_ok = True
    for name, poset in posets.items():
        vals = catalog.catalog_valuations(poset)
        chis = [chi(u) for u in all_up_sets(poset, cfg.size_guard)]
        rng = cfg.rng(f"valuation.linearity.{name}")
        preds = chis + [random_predicate(poset, rng) for _ in range(1000)]
        if not valuations_linear(vals, chis, preds):
            lin_ok = False
        for f, g in zip(preds[::2], preds[1::2]):
            for mu in vals[:4]:
                if mu(pred_add(f, g)) != mu(f) + mu(g):
                    lin_ok = False

        # layer-cake order oracle vs pointwise sampling
        rng2 = cfg.rng(f"valuation.order.{name}")
        sample = [random_predicate(poset, rng2) for _ in range(1000)]
        for mu in vals:
            for nu in vals:
                verdict = valuation_leq(mu, nu, cfg.size_guard)
                if verdict:
                    if any(not mu(f) <= nu(f) for f in sample):
                        agree_ok = False
                else:
                    if not any(not mu(c) <= nu(c) for c in chis):
                        agree_ok = False

        # cone laws in canonical form
        rng3 = cfg.rng(f"valuation.cone.{name}")
        scalars = list(SCALAR_GRID) + [random_extnn(rng3) for _ in range(20)]
        for mu in vals[:5]:
            for nu in vals[:5]:
                if cone_combine(ONE, mu, ZERO, nu).atoms != mu.atoms:
                    cone_ok = False
                for r in scalars[:10]:
                    for s in scalars[:10]:
                        left = mu.scale(r).scale(s)
                        right = mu.scale(r * s)
                        if left.atoms != right.atoms:
                            cone_ok = False
                        if cone_combine(r, mu, r, nu).atoms != mu.add(nu).scale(r).atoms:
                            cone_ok = False
                        if cone_combine(r, mu, s, mu).atoms != mu.scale(r + s).atoms:
                            cone_ok = False
                if mu.scale(ZERO).atoms != ():
                    cone_ok = False
    checks.append(CheckOutcome("valuation.linear", lin_ok, SAMPLED))
    checks.append(CheckOutcome("valuation.order-oracle-agrees", agree_ok, SAMPLED))
    checks.append(CheckOutcome("valuation.cone-laws", cone_ok, SAMPLED))

    module = check_module_axioms(
        scalar_action(algs["rplus"]),
        algs["rplus"],
        cfg.rng("valuation.module"),
        min(cfg.trials, 2000),
    )
    checks.append(
        CheckOutcome(
            "valuation.module-axioms",
            module.passed,
            module.mode,
            None if module.passed else module.as_record(),
        )
    )
    return checks


def check_mixed(cfg: SuiteConfig):
    """Each catalog envelope passes its side's laws, on its own sampled stream."""
    checks = []
    posets = cfg.posets()
    trials = max(cfg.trials // 10, 100)
    for envelope in ENVELOPES:
        side = envelope.side
        ok = True
        for name, poset in posets.items():
            for i, phi in enumerate(catalog.catalog_envelopes(poset, envelope, cap=6)):
                seed = derive_seed(cfg.seed, f"mixed.{side.name}.{name}.{i}")
                if not check_linear_side(phi, side, trials, seed, cfg.size_guard).passed:
                    ok = False
        checks.append(CheckOutcome(f"mixed.{side.keyword}s-{side.name}", ok, SAMPLED))
    return checks


SUITE = (
    ("extnum", check_extnum),
    ("poset", check_posets),
    ("funcspace", check_funcspace),
    ("algebra", check_algebra_laws),
    ("monad", check_monad),
    ("roundtrip", check_transform_roundtrips),
    ("monad-laws", check_monad_laws_suite),
    ("powerdomain", check_powerdomains),
    ("valuation", check_valuations),
    ("mixed", check_mixed),
)


def run_suite(cfg: SuiteConfig, command="verify-suite") -> Report:
    report = Report(
        command,
        {
            "seed": cfg.seed,
            "trials": cfg.trials,
            "size_guard": cfg.size_guard,
            "catalog_max": cfg.catalog_max,
        },
    )
    for _, section in SUITE:
        report.extend(section(cfg))
    return report
