"""The built-in verification suite.

Runs every structural invariant of the package over the built-in catalog:
exact arithmetic laws, poset dualities, exponential enumeration oracles,
closure and morphism properties of the functional families, the
state/predicate transformer correspondence, the set-based powerdomain
cross-checks, and the valuation engine.  Records are deterministic given
the configuration, including every seed used.

Each law walks its instances lazily through ``first_failure``, one result
per instance with ``None`` where it held; sampled laws take theirs from
``sampling.two_phase``.  A failing record names its first failing instance
in ``witness`` (posets by name, maps, predicates, valuations and envelopes
by their literals, transformers by their tables); later ones go unchecked.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

from . import catalog
from .algebra import (
    CheckOutcome,
    FinAlgebra,
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
    scalar_action,
    subcommutes,
)
from .extnum import ZERO
from .funcspace import MonoMap, compose, enumerate_monotone, precompose
from .monad import (
    all_predicate_transformers,
    all_state_transformers,
    check_monad_laws,
    delta,
    functional_space,
    p_transform,
    q_transform,
)
from .poset import all_down_sets, all_up_sets, poset_from_cover
from .powerdomain import (
    ENVELOPES,
    SET_POWERDOMAINS,
    catalog_envelopes,
    catalog_valuations,
    check_linear_side,
    PredAlgebra,
    ValuationAlgebra,
    random_predicate,
    sobrification,
    valuation_leq,
)
from .report import Report
from .sampling import (
    DEFAULT_SEED,
    DEFAULT_SIZE_GUARD,
    DEFAULT_TRIALS,
    LAW_GRID,
    SAMPLED,
    derive_seed,
    random_extnn,
    task_rng,
    two_phase,
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


def _transformer(t):
    """A state transformer as its table: each point's functional key."""
    return {label: t(i).key() for i, label in enumerate(t.source.labels)}


def _predicate_table(ys, xs, table):
    """A predicate transformer as its table: each predicate's image, by key."""
    return {g.key(): xs.predicates.maps[v].key() for g, v in zip(ys.predicates.maps, table)}


def _keys(space, indices):
    return [space.functional(i).key() for i in indices]


def _grouped(name, checks):
    """One suite record for grouped checks; a failure names the failing ones."""
    failed = [c.name for c in checks if not c.passed]
    return CheckOutcome(name, not failed, witness={"failed": failed} if failed else None)


# ---------------------------------------------------------------------------
# exact arithmetic

EXTNUM_LAWS = {
    "add-associative": lambda a, b, c: a + (b + c) == (a + b) + c,
    "add-commutative": lambda a, b, c: a + b == b + a,
    "add-unit": lambda a, b, c: a + ZERO == a,
    "mul-distributes": lambda a, b, c: a * (b + c) == a * b + a * c,
    "ops-monotone": lambda a, b, c: not b <= c or (a * b <= a * c and b * a <= c * a and a + b <= a + c),
}


def check_extnum(cfg: SuiteConfig):
    rng = cfg.rng("extnum")
    grid = itertools.product(LAW_GRID, repeat=3)
    # drawn up front: the five laws share the triples
    triples = list(two_phase(grid, lambda: tuple(random_extnn(rng) for _ in range(3)), cfg.trials))
    return [
        first_failure(
            f"extnum.{law}",
            ({"a": str(a), "b": str(b), "c": str(c)} for a, b, c in triples if not holds(a, b, c)),
            SAMPLED,
        )
        for law, holds in EXTNUM_LAWS.items()
    ]


# ---------------------------------------------------------------------------
# posets


def check_posets(cfg: SuiteConfig):
    checks = []
    for name, poset in cfg.posets().items():
        ups = all_up_sets(poset, cfg.size_guard)
        downs = all_down_sets(poset, cfg.size_guard)
        ok = sorted(u.complement().mask for u in ups) == sorted(d.mask for d in downs)
        checks.append(CheckOutcome(f"poset.updown-duality.{name}", ok))
        masks = {u.mask for u in ups}
        unclosed = (
            {"a": a.label(), "b": b.label()}
            for a, b in itertools.product(ups, repeat=2)
            if (a.mask | b.mask) not in masks or (a.mask & b.mask) not in masks
        )
        checks.append(first_failure(f"poset.opens-closed-under-union-meet.{name}", unclosed))
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
        pairs = [(i, j) for i, j in itertools.product(range(poset.size), repeat=2) if poset.leq[i][j]]
        brute = sum(
            all(two.leq[table[i]][table[j]] for i, j in pairs)
            for table in itertools.product(range(two.size), repeat=poset.size)
        )
        checks.append(CheckOutcome(f"funcspace.count-vs-bruteforce.{name}", len(expo) == brute))

    def failures():
        for (xn, x), (yn, y), (zn, z) in itertools.product(small.items(), repeat=3):
            us = enumerate_monotone(x, y, cfg.size_guard).maps
            vs = enumerate_monotone(y, z, cfg.size_guard).maps
            gs = enumerate_monotone(z, two, cfg.size_guard).maps
            for u, v, g in itertools.product(us, vs, gs):
                if precompose(compose(u, v), g).table != precompose(u, precompose(v, g)).table:
                    yield {"x": xn, "y": yn, "z": zn, "u": u.entries(), "v": v.entries(), "g": g.entries()}

    checks.append(first_failure("funcspace.precompose-functorial", failures()))
    return checks


# ---------------------------------------------------------------------------
# algebras


def _two_ang_le() -> FinAlgebra:
    return catalog.two_valued("2_ang_le", (("join", catalog.LE), ("zero", catalog.EQ)))


def _family_check(name, posets, r, family, members, cfg):
    """``members(space)`` lies inside the ``family`` indices on every poset;
    a failure names the poset and the functionals outside."""

    def failures():
        for pname, poset in posets.items():
            space = functional_space(poset, r, cfg.size_guard)
            outside = sorted(set(members(space)) - set(getattr(space, family)))
            if outside:
                yield {"poset": pname, "outside": _keys(space, outside)}

    return first_failure(name, failures())


def check_algebra_laws(cfg: SuiteConfig):
    checks = []
    algs = catalog.builtin_algebras()

    entropic = {
        "2_ang": True, "2_dem": True, "frame2": False,
        "lattice2": False, "rplus": True, "rplus_semiring": False,
    }
    cases = [("entropic", "entropic", is_entropic, n, e) for n, e in entropic.items()]
    cases += [
        ("relaxed-entropic", "relaxed", is_relaxed_entropic, n, True)
        for n in ("rplus_max", "rplus_min")
    ]
    for law, label, check, name, expected in cases:
        report = check(algs[name], cfg.rng(f"{label}.{name}"), cfg.trials)
        ok = report.passed == expected
        checks.append(
            CheckOutcome(f"algebra.{law}.{name}", ok, report.mode, None if ok else report.as_record())
        )

    # interchange symmetry: the law for (sigma, omega) transposes to (omega, sigma)
    def asymmetric():
        for name in ("2_ang", "2_dem", "frame2", "rplus_semiring"):
            alg = algs[name]
            # each unordered pair once: (o, s) makes the same two calls, and s
            # against itself cannot disagree
            for s, o in itertools.combinations(alg.signature.symbols(), 2):
                a = commutes(alg, s, o, cfg.rng(f"sym.{name}.{s}.{o}"), cfg.trials // 10)
                b = commutes(alg, o, s, cfg.rng(f"sym.{name}.{o}.{s}"), cfg.trials // 10)
                if a.passed != b.passed:
                    yield {"algebra": name, "sigma": s, "omega": o}

    checks.append(first_failure("algebra.interchange-symmetric", asymmetric(), SAMPLED))

    # the mixed inequational laws backing the sublinear/superlinear checks
    for name, s, o in (("rplus_max", "max", "add"), ("rplus_min", "add", "min")):
        outcome = subcommutes(algs[name], s, o, cfg.rng(f"sub.{s}.{o}"), cfg.trials)
        outcome.name = f"algebra.{s}-subcommutes-{o}"
        checks.append(outcome)

    # closure of morphism families under the lifted ops
    posets = cfg.posets()
    for name, r, family in (
        ("hom-set-closed.2_ang", algs["2_ang"], "hom_indices"),
        ("hom-set-closed.2_dem", algs["2_dem"], "hom_indices"),
        ("relaxed-set-closed.2_ang_le", _two_ang_le(), "relaxed_indices"),
    ):

        def closure(space, family=family):
            return generated_subalgebra(space.func_algebra, getattr(space, family))

        checks.append(_family_check(f"algebra.{name}", posets, r, family, closure, cfg))

    # closure operator laws for generated subalgebras; the enlargements are
    # drawn after all the subsets, one per subset in subset order
    space = functional_space(posets["A2"], algs["2_ang"], cfg.size_guard)
    lifted = space.func_algebra
    n = lifted.carrier.size
    gen_rng = cfg.rng("algebra.closure")
    subsets = [
        tuple(sorted(gen_rng.sample(range(n), gen_rng.randrange(0, n + 1))))
        for _ in range(40)
    ]
    bigger = [tuple(sorted(set(g) | {gen_rng.randrange(n)})) if n else g for g in subsets]
    closed = [generated_subalgebra(lifted, gens) for gens in subsets]
    not_idempotent = (
        {"generators": _keys(space, gens)}
        for gens, c in zip(subsets, closed)
        if generated_subalgebra(lifted, c) != c
    )
    not_monotone = (
        {"generators": _keys(space, gens), "enlarged": _keys(space, big)}
        for gens, big, c in zip(subsets, bigger, closed)
        if not set(c) <= set(generated_subalgebra(lifted, big))
    )
    checks.append(first_failure("algebra.closure-idempotent", not_idempotent, SAMPLED))
    checks.append(first_failure("algebra.closure-monotone", not_monotone, SAMPLED))
    return checks


# ---------------------------------------------------------------------------
# functionals and transformers


def check_monad(cfg: SuiteConfig):
    checks = []
    algs = catalog.builtin_algebras()
    posets = cfg.posets()
    two_algs = [algs["2_ang"], algs["2_dem"]]

    # the unit is an order embedding
    def not_embedded():
        for (pname, poset), r in itertools.product(posets.items(), two_algs):
            ds = delta(poset, r, cfg.size_guard)
            for i, j in itertools.product(range(poset.size), repeat=2):
                if poset.leq[i][j] != ds[i].leq(ds[j]):
                    yield {"poset": pname, "algebra": r.name, "x": poset.labels[i], "y": poset.labels[j]}

    checks.append(first_failure("monad.unit-order-embedding", not_embedded()))

    def spaces():
        small = {k: posets[k] for k in ("one", "C2", "A2")}
        for r in two_algs:
            for (xn, x), (yn, y) in itertools.product(small.items(), repeat=2):
                xs = functional_space(x, r, cfg.size_guard)
                ys = functional_space(y, r, cfg.size_guard)
                yield {"algebra": r.name, "x": xn, "y": yn}, xs, ys

    # the lifting preserves the pointwise ops and the hom family
    def op_failures():
        for at, xs, ys in spaces():
            for t in all_state_transformers(xs.x, ys):
                lifts = t.lift_table()
                for op in xs.algebra.signature.ops:
                    for args in itertools.product(range(len(xs.space)), repeat=op.arity):
                        lhs = lifts[xs.func_algebra.resolve(op.symbol)(args)]
                        parts = tuple(lifts[a] for a in args)
                        if lhs != ys.func_algebra.resolve(op.symbol)(parts):
                            yield {**at, "t": _transformer(t), "op": op.symbol, "args": _keys(xs, args)}

    def hom_failures():
        for at, xs, ys in spaces():
            homs = set(ys.hom_indices)
            for t in all_state_transformers(xs.x, ys, ys.hom_indices):
                lifts = t.lift_table()
                for i in xs.hom_indices:
                    if lifts[i] not in homs:
                        yield {**at, "t": _transformer(t), "phi": xs.functional(i).key()}

    checks.append(first_failure("monad.lifting-preserves-ops", op_failures()))
    checks.append(first_failure("monad.lifting-preserves-homs", hom_failures()))

    # state/predicate correspondence for the hom and relaxed families
    pair = {k: posets[k] for k in ("C2", "A2")}
    for r in two_algs + [_two_ang_le()]:
        failures = _correspondence_failures(r, pair, cfg)
        checks.append(first_failure(f"monad.transformer-correspondence.{r.name}", failures))

    # containments of the generated family
    for name, r, family in (
        ("free-inside-hom.2_ang", algs["2_ang"], "hom_indices"),
        ("free-inside-hom.2_dem", algs["2_dem"], "hom_indices"),
        ("free-inside-relaxed.2_ang_le", _two_ang_le(), "relaxed_indices"),
    ):
        free = _family_check(f"monad.{name}", posets, r, family, lambda s: s.free_indices, cfg)
        checks.append(free)

    # the unit on an algebra is op-preserving into the hom functionals
    for aname in ("2_ang", "2_dem", "lattice2"):
        a = algs[aname]
        endos = endomorphisms(a, cfg.size_guard)
        lifted = lift_pointwise(a, endos.poset, cfg.size_guard)
        table = tuple(
            lifted.expo.index(tuple(h.table[v] for h in endos.maps))
            for v in range(a.carrier.size)
        )
        outcome = is_homomorphism(MonoMap(a.carrier, lifted.carrier, table), a, lifted)
        outcome.name = f"monad.unit-on-algebra-preserves-ops.{aname}"
        checks.append(outcome)
    return checks


def _correspondence_failures(r, posets, cfg):
    """p maps each family's state transformers onto the predicate
    transformers of the matching morphism class; a failure names the
    transformers on one side only."""
    for (xn, x), (yn, y) in itertools.product(posets.items(), repeat=2):
        xs = functional_space(x, r, cfg.size_guard)
        ys = functional_space(y, r, cfg.size_guard)
        for family, indices, is_morphism in (
            ("hom", ys.hom_indices, is_homomorphism),
            ("relaxed", ys.relaxed_indices, is_relaxed_morphism),
        ):
            ts = all_state_transformers(x, ys, indices)
            images = {p_transform(t).table for t in ts}
            morphisms = {
                s.table
                for s in all_predicate_transformers(ys, xs)
                if is_morphism(s.as_map(), ys.pred_algebra, xs.pred_algebra)
            }
            if images != morphisms:
                yield {
                    "x": xn,
                    "y": yn,
                    "family": family,
                    "images_only": [_predicate_table(ys, xs, s) for s in sorted(images - morphisms)],
                    "morphisms_only": [_predicate_table(ys, xs, s) for s in sorted(morphisms - images)],
                }


def check_transform_roundtrips(cfg: SuiteConfig):
    """P and Q are mutually inverse on every enumerable transformer."""
    r = catalog.builtin_algebras()["2_ang"]
    posets = {n: p for n, p in cfg.posets().items() if p.size <= 3}

    def failures():
        for (xn, x), (yn, y) in itertools.product(posets.items(), repeat=2):
            xs = functional_space(x, r, cfg.size_guard)
            ys = functional_space(y, r, cfg.size_guard)
            for t in all_state_transformers(x, ys):
                if q_transform(p_transform(t)) != t:
                    yield {"x": xn, "y": yn, "t": _transformer(t)}
            for s in all_predicate_transformers(ys, xs):
                if p_transform(q_transform(s)) != s:
                    yield {"x": xn, "y": yn, "s": _predicate_table(ys, xs, s.table)}

    return [first_failure("monad.pq-roundtrip", failures())]


def check_monad_laws_suite(cfg: SuiteConfig):
    algs = catalog.builtin_algebras()
    posets = cfg.posets()
    small = {k: posets[k] for k in ("one", "C2", "A2")}

    def failures(r):
        # each ordered pair's transformers once, so their kept lift tables
        # serve every third poset
        transformers = {
            (xn, yn): all_state_transformers(small[xn], functional_space(small[yn], r, cfg.size_guard))
            for xn, yn in itertools.product(small, repeat=2)
        }
        for (xn, x), (yn, y), (zn, z) in itertools.product(small.items(), repeat=3):
            for t, rr in itertools.product(transformers[xn, yn], transformers[yn, zn]):
                for law in check_monad_laws(x, y, z, r, t, rr):
                    if not law.passed:
                        yield {
                            "law": law.name, "x": xn, "y": yn, "z": zn,
                            "t": _transformer(t), "r": _transformer(rr), "at": law.witness,
                        }

    return [first_failure(f"monad.laws.{name}", failures(algs[name])) for name in ("2_ang", "2_dem")]


# ---------------------------------------------------------------------------
# powerdomains and valuations


def check_powerdomains(cfg: SuiteConfig):
    checks = []
    algs = catalog.builtin_algebras()
    for name, poset in cfg.posets().items():
        for side, build in SET_POWERDOMAINS.values():
            result = build(poset, algs[side.algebra], cfg.size_guard)
            count_ok = len(result.functionals) == len(side.sets(poset, cfg.size_guard))
            count = CheckOutcome(f"{side.kind}:count-equals-sets", count_ok)
            checks.append(_grouped(f"powerdomain.{side.kind}.{name}", result.checks + [count]))
        # sober:count-equals-points pins the points to the poset's size
        _, sober_checks = sobrification(poset, algs["frame2"], cfg.size_guard)
        checks.append(_grouped(f"powerdomain.sober.{name}", sober_checks))
    return checks


def check_valuations(cfg: SuiteConfig):
    algs = catalog.builtin_algebras()
    cone, rplus = algs["rplus_cone"], algs["rplus"]
    # each poset's valuations and its predicates over the cone, shared by the laws
    inputs = [
        (name, poset, catalog_valuations(poset), PredAlgebra(cone, poset, cfg.size_guard))
        for name, poset in cfg.posets().items()
    ]

    # each valuation a homomorphism from the predicates into the cone, on its
    # own stream; the sampled phase is capped per valuation and op
    def nonlinear():
        for name, _, vals, preds in inputs:
            for i, mu in enumerate(vals):
                rng = cfg.rng(f"valuation.linear.{name}.{i}")
                check = is_homomorphism(mu, preds, cone, rng, min(cfg.trials, 100))
                if not check.passed:
                    yield {"poset": name, "mu": mu.literal(), **check.witness}

    # layer-cake order oracle vs pointwise sampling; each valuation is
    # evaluated once on each sampled predicate
    def disagreements():
        for name, poset, vals, preds in inputs:
            rng = cfg.rng(f"valuation.order.{name}")
            sample = [random_predicate(poset, rng) for _ in range(1000)]
            values = [[mu(f) for f in sample] for mu in vals]
            for (mu, mu_at), (nu, nu_at) in itertools.product(zip(vals, values), repeat=2):
                at = {"poset": name, "mu": mu.literal(), "nu": nu.literal()}
                if valuation_leq(mu, nu, cfg.size_guard):
                    for f, a, b in zip(sample, mu_at, nu_at):
                        if not a <= b:
                            yield {**at, "oracle": "below", "f": f.literal()}
                elif all(mu(c) <= nu(c) for c in preds.chis):
                    yield {**at, "oracle": "not below"}

    # the cone laws are the module axioms of the scalars acting by scale on
    # the first five valuations and their sums; each r mu is built once
    def cone_failures():
        for name, poset, vals, _ in inputs:
            action = replace(scalar_action(rplus), act=functools.cache(lambda r, mu: mu.scale(r)))
            algebra = ValuationAlgebra(poset, tuple(vals[:5]))
            rng = cfg.rng(f"valuation.cone.{name}")
            module = check_module_axioms(action, algebra, rng, min(cfg.trials, 100))
            for axiom in module.witnesses():
                yield {"poset": name, "axiom": axiom.name, **axiom.witness}

    module = check_module_axioms(
        scalar_action(rplus), rplus, cfg.rng("valuation.module"), min(cfg.trials, 2000)
    )
    module_witness = None if module.passed else module.as_record()
    return [
        first_failure("valuation.linear", nonlinear(), SAMPLED),
        first_failure("valuation.order-oracle-agrees", disagreements(), SAMPLED),
        first_failure("valuation.cone-laws", cone_failures(), SAMPLED),
        CheckOutcome("valuation.module-axioms", module.passed, module.mode, module_witness),
    ]


def check_mixed(cfg: SuiteConfig):
    """Each catalog envelope passes its side's laws, on its own sampled stream."""
    posets = cfg.posets()
    trials = max(cfg.trials // 10, 100)

    def failures(envelope):
        side = envelope.side
        for name, poset in posets.items():
            for i, phi in enumerate(catalog_envelopes(poset, envelope, cap=6)):
                seed = derive_seed(cfg.seed, f"mixed.{side.name}.{name}.{i}")
                outcome = check_linear_side(phi, side, trials, seed, cfg.size_guard)
                if not outcome.passed:
                    failed = [c.name for c in outcome.witnesses()]
                    yield {"poset": name, "envelope": phi.literal(), "failed": failed}

    return [
        first_failure(f"mixed.{e.side.keyword}s-{e.side.name}", failures(e), SAMPLED)
        for e in ENVELOPES
    ]


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
