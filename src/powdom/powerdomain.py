"""Concrete powerdomains: Hoare, Smyth, points-as-frame-maps, and valuations.

The nondeterministic powerdomains arise as op-preserving functionals into
the two-element observation algebras and are cross-checked here against
their set-based presentations (down-sets, up-sets).  The probabilistic and
mixed constructions live over the extended nonnegative rationals: simple
valuations are finite weighted sums of point evaluations, and the mixed
angelic/demonic functionals are finite maxima/minima of those.  The laws of
the two mixed sides are checked as tag-relaxed morphisms from the pointwise
predicate algebra into the catalog's ``rplus_max`` (sublinear) or
``rplus_min`` (superlinear), through the algebra layer's morphism walker.

Ordering valuations is decidable here by a layer-cake argument: a monotone
predicate on a finite poset is a positive combination of characteristic
functions of up-sets, and valuation evaluation is linear, so domination on
every predicate reduces to domination on the finitely many up-sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar

from .algebra import (
    CheckOutcome,
    FinAlgebra,
    OpSpec,
    OpTag,
    Signature,
    first_failure,
    is_homomorphism,
    is_relaxed_morphism,
)
from .catalog import RATIONAL_OPS, builtin_algebras
from .errors import RejectInteger, TypeMismatch
from .extnum import ExtNN, ONE, ZERO, enn_dot, enn_sum
from .monad import functional_space
from .poset import ElemSet, FinPoset, _trusted, all_down_sets, all_up_sets, is_order_iso, set_inclusion_poset
from .sampling import (
    DEFAULT_SEED,
    DEFAULT_SIZE_GUARD,
    DEFAULT_TRIALS,
    SAMPLED,
    random_monotone_values,
    task_rng,
    two_phase,
)


# ---------------------------------------------------------------------------
# predicates with extended-rational values


@dataclass(frozen=True)
class Predicate:
    """A monotone assignment of extended rationals to a finite poset, checked
    on every cover unless ``chi``, ``constant_predicate`` or
    ``random_predicate`` built it monotone."""

    poset: FinPoset
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.poset.size:
            raise TypeMismatch("value count does not match the poset")
        for i, j in self.poset.covers():
            if not self.values[i] <= self.values[j]:
                raise TypeMismatch(
                    f"predicate not monotone on {self.poset.labels[i]} <= {self.poset.labels[j]}"
                )

    def __call__(self, i: int) -> ExtNN:
        return self.values[i]

    def literal(self) -> str:
        inner = "; ".join(
            f"{lab} -> {v}" for lab, v in zip(self.poset.labels, self.values)
        )
        return "pred { " + inner + " }"


def constant_predicate(poset: FinPoset, value: ExtNN) -> Predicate:
    return _trusted(Predicate, poset=poset, values=(value,) * poset.size)


def chi(up_set: ElemSet) -> Predicate:
    """Characteristic predicate of an up-set (1 inside, 0 outside)."""
    values = tuple(ONE if i in up_set else ZERO for i in range(up_set.poset.size))
    return _trusted(Predicate, poset=up_set.poset, values=values)


def random_predicate(poset: FinPoset, rng) -> Predicate:
    return _trusted(Predicate, poset=poset, values=random_monotone_values(poset, rng))


class PredAlgebra:
    """Pointwise lift of an extended-rational algebra to predicates over a poset.

    Grid tuples run over the characteristic predicates of all up-sets;
    sampling draws random monotone predicates.
    """

    mode = SAMPLED

    def __init__(self, base, poset: FinPoset, size_guard: int = DEFAULT_SIZE_GUARD):
        self.base = base
        self.poset = poset
        self.signature = base.signature
        self.grid = base.grid
        self.name = f"{base.name}^{poset.size}"
        self.chis = tuple(chi(u) for u in all_up_sets(poset, size_guard))

    def resolve(self, symbol, param=None):
        op, poset = self.base.resolve(symbol, param), self.poset

        def pointwise(args):
            points = zip(*(a.values for a in args)) if args else [()] * poset.size
            return Predicate(poset, tuple(map(op, points)))

        return pointwise

    def leq(self, a, b) -> bool:
        if a.poset != b.poset:
            raise TypeMismatch("operands live over different posets")
        return all(x <= y for x, y in zip(a.values, b.values))

    def value_str(self, a) -> str:
        return a.literal()

    def grid_tuples(self, nvars):
        return itertools.product(self.chis, repeat=nvars)

    def sample_tuple(self, nvars, rng):
        return tuple(random_predicate(self.poset, rng) for _ in range(nvars))


# ---------------------------------------------------------------------------
# the two linear sides: sublinear (max, <=) and superlinear (min, >=)


@dataclass(frozen=True)
class LinearSide:
    """One side of the sublinear/superlinear pair.

    The side's functionals are the tag-relaxed morphisms from the predicates
    into its catalog ``algebra``: into ``rplus_max`` they are subadditive
    (phi(f + g) <= phi(f) + phi(g)) and dominate joins; into ``rplus_min``
    both laws reverse.  ``below`` orients the domination check: a valuation
    lies below a sublinear envelope and above a superlinear one.
    """

    name: str  # law report name and prefix of the sampled stream labels
    keyword: str  # definition-file statement
    opener: str  # literal opener
    combine: Callable  # max or min of an iterable of values
    below: bool
    algebra: str  # catalog name of the side's tagged rational algebra
    domination: str  # name of the domination check of a valuation


SUBLINEAR = LinearSide("sublinear", "subfn", "sup", RATIONAL_OPS["max"].fn, True, "rplus_max", "dominated-by-max")
SUPERLINEAR = LinearSide("superlinear", "supfn", "inf", RATIONAL_OPS["min"].fn, False, "rplus_min", "dominates-min")
SIDES = (SUBLINEAR, SUPERLINEAR)

# the law that each tagged op of a side's algebra stands for, in check order;
# the nullary ``zero`` is checked once, exactly, as zero-at-zero
LINEAR_LAWS = {
    ("scale", OpTag.EQ): "homogeneity",
    ("add", OpTag.LE): "subadditive",
    ("add", OpTag.GE): "superadditive",
    ("max", OpTag.GE): "dominates-joins",
    ("min", OpTag.LE): "below-meets",
}


def _oriented_leq(below: bool, a: ExtNN, b: ExtNN) -> bool:
    return a <= b if below else b <= a


# ---------------------------------------------------------------------------
# simple valuations and their finite max/min combinations


@dataclass(frozen=True)
class SimpleValuation:
    """A finite weighted sum of point evaluations, kept in canonical form.

    Atoms are (weight, element index) pairs sorted by element index with
    duplicate points merged and zero weights dropped; the empty sum is the
    zero valuation.
    """

    poset: FinPoset
    atoms: tuple

    # linear, so both sublinear and superlinear
    sides = SIDES

    def __post_init__(self):
        merged: dict[int, ExtNN] = {}
        for weight, point in self.atoms:
            if not 0 <= point < self.poset.size:
                raise TypeMismatch(f"atom point {point} outside the poset")
            weight = ExtNN(weight)
            merged[point] = merged.get(point, ZERO) + weight
        canon = tuple(
            (merged[p], p) for p in sorted(merged) if merged[p] != ZERO
        )
        object.__setattr__(self, "atoms", canon)

    def __call__(self, f: Predicate) -> ExtNN:
        if f.poset != self.poset:
            raise TypeMismatch("predicate lives over a different poset")
        values = f.values
        return enn_dot([(w, values[p]) for w, p in self.atoms])

    def mass(self) -> ExtNN:
        return enn_sum(w for w, _ in self.atoms)

    def scale(self, r: ExtNN) -> "SimpleValuation":
        return SimpleValuation(self.poset, tuple((r * w, p) for w, p in self.atoms))

    def add(self, other: "SimpleValuation") -> "SimpleValuation":
        if other.poset != self.poset:
            raise TypeMismatch("valuations live over different posets")
        return SimpleValuation(self.poset, self.atoms + other.atoms)

    def sort_key(self):
        return tuple((p, str(w)) for w, p in self.atoms)

    def literal(self) -> str:
        inner = "; ".join(f"{w} @ {self.poset.labels[p]}" for w, p in self.atoms)
        return "val { " + inner + " }"


def dirac(poset: FinPoset, point: int) -> SimpleValuation:
    return SimpleValuation(poset, ((ONE, point),))


def valuation_leq(mu: SimpleValuation, nu: SimpleValuation, size_guard: int = DEFAULT_SIZE_GUARD) -> bool:
    """Pointwise domination on all predicates, via the layer-cake reduction."""
    if mu.poset != nu.poset:
        raise TypeMismatch("valuations live over different posets")
    return all(mu(f) <= nu(f) for f in map(chi, all_up_sets(mu.poset, size_guard)))


@dataclass(frozen=True)
class ValuationAlgebra:
    """Simple valuations over one poset with ``add`` and ``zero``, the carrier
    the scalars act on in the cone laws.  Grid tuples run over ``vals`` and
    samples draw from it; values compare by their canonical atoms."""

    poset: FinPoset
    vals: tuple
    mode: ClassVar[str] = SAMPLED
    signature: ClassVar[Signature] = Signature((OpSpec("add", 2), OpSpec("zero", 0)))

    def resolve(self, symbol, param=None):
        self.signature.spec(symbol)
        if symbol == "add":
            return lambda args: args[0].add(args[1])
        return lambda args: SimpleValuation(self.poset, ())

    def value_str(self, a) -> str:
        return a.literal()

    def grid_tuples(self, nvars):
        return itertools.product(self.vals, repeat=nvars)

    def sample_tuple(self, nvars, rng):
        return tuple(rng.choice(self.vals) for _ in range(nvars))


@dataclass(frozen=True)
class Envelope:
    """Finite maximum or minimum of simple valuations; subclasses fix the side."""

    components: tuple
    side: ClassVar[LinearSide]

    def __post_init__(self):
        comps = _canonical_components(self.components)
        object.__setattr__(self, "components", comps)

    @property
    def poset(self):
        return self.components[0].poset

    @property
    def sides(self):
        return (self.side,)

    def __call__(self, f: Predicate) -> ExtNN:
        return self.side.combine(mu(f) for mu in self.components)

    def literal(self) -> str:
        return self.side.opener + "{ " + "; ".join(c.literal() for c in self.components) + " }"


class SubFn(Envelope):
    """Finite maximum of simple valuations: evaluates sublinearly."""

    side = SUBLINEAR


class SupFn(Envelope):
    """Finite minimum of simple valuations: evaluates superlinearly."""

    side = SUPERLINEAR


# the envelope type of each side, in side order
ENVELOPES = (SubFn, SupFn)


def _canonical_components(components):
    comps = tuple(components)
    if not comps:
        raise TypeMismatch("at least one component valuation is required")
    poset = comps[0].poset
    if any(c.poset != poset for c in comps):
        raise TypeMismatch("components live over different posets")
    unique = {c.sort_key(): c for c in comps}
    return tuple(unique[k] for k in sorted(unique))


def catalog_valuations(poset: FinPoset):
    """A deterministic small family of valuations over the poset."""
    half = ExtNN(Fraction(1, 2))
    third = ExtNN(Fraction(1, 3))
    two = ExtNN(2)
    out = [dirac(poset, i) for i in range(poset.size)]
    for i in range(poset.size):
        j = (i + 1) % poset.size
        if i != j:
            out.append(SimpleValuation(poset, ((half, i), (third, j))))
    out.append(dirac(poset, 0).scale(two))
    if poset.size > 1:
        out.append(SimpleValuation(poset, ((ExtNN(None), 0), (ONE, poset.size - 1))))
    return out


def catalog_envelopes(poset: FinPoset, envelope, cap: int = 12):
    """Envelopes of one type (SubFn or SupFn) formed from one or two catalog
    valuations, deterministically."""
    vals = catalog_valuations(poset)
    out = [envelope((v,)) for v in vals[: cap // 2]]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if len(out) >= cap:
                return out
            out.append(envelope((vals[i], vals[j])))
    return out


# ---------------------------------------------------------------------------
# nondeterministic powerdomains against their set-based presentations


@dataclass
class PowerdomainResult:
    """A set-presented powerdomain matched with its functionals, and the
    checks of that match."""

    kind: str
    poset: FinPoset
    sets: list
    set_poset: FinPoset
    functionals: list
    pairing: list  # (set label, functional key)
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_record(self):
        """The construction itself; its checks are reported as records."""
        return {
            "kind": self.kind,
            "elements": [s.label() for s in self.sets],
            "count": len(self.sets),
            "functional_count": len(self.functionals),
            "pairing": [{"set": a, "functional": b} for a, b in self.pairing],
        }


@dataclass(frozen=True)
class SetSide:
    """One side of the Hoare/Smyth pair: which sets present the powerdomain
    and which functional each set stands for."""

    kind: str
    algebra: str  # catalog name of the two-valued observation algebra
    sets: Callable  # all_down_sets or all_up_sets
    reverse: bool  # order the sets by reverse inclusion
    hits: Callable  # (set, support of a predicate) -> the functional's value is 1


HOARE = SetSide(
    "hoare", "2_ang", all_down_sets, False, lambda d, support: any(i in d for i in support)
)
SMYTH = SetSide(
    "smyth", "2_dem", all_up_sets, True, lambda q, support: all(i in support for i in q.members())
)


def _set_powerdomain(side: SetSide, x: FinPoset, algebra: FinAlgebra, size_guard: int):
    """Match the side's sets with the op-preserving functionals.

    Returns the result together with each predicate's support (the indices
    where it takes the top value), computed once per predicate.
    """
    space = functional_space(x, algebra, size_guard)
    sets = side.sets(x, size_guard)
    set_poset = set_inclusion_poset(sets, reverse=side.reverse)
    homs = sorted(space.hom_indices)
    top = 1 if algebra.carrier.leq[0][1] else 0
    supports = [
        frozenset(i for i, v in enumerate(pred.table) if v == top)
        for pred in space.predicates.maps
    ]
    images = [
        space.space.index(tuple(1 if side.hits(s, support) else 0 for support in supports))
        for s in sets
    ]
    pairing = [(s.label(), space.functional(idx).key()) for s, idx in zip(sets, images)]
    bijective = sorted(images) == homs and len(set(images)) == len(images)
    iso = bijective and is_order_iso(
        set_poset, space.family_poset(tuple(homs)), [homs.index(i) for i in images]
    )
    checks = [
        CheckOutcome(f"{side.kind}:bijection-onto-homs", bijective),
        CheckOutcome(f"{side.kind}:order-isomorphism", iso),
        CheckOutcome(f"{side.kind}:free-equals-hom", sorted(space.free_indices) == homs),
    ]
    result = PowerdomainResult(
        side.kind, x, sets, set_poset, [space.functional(i) for i in homs], pairing, checks
    )
    return result, space, supports


def hoare_powerdomain(x: FinPoset, algebra_ang: FinAlgebra, size_guard: int = DEFAULT_SIZE_GUARD) -> PowerdomainResult:
    """Down-sets of X matched with the join-preserving functionals.

    The empty set is kept as the bottom element.  A down-set C corresponds
    to the functional sending a predicate with support U to 0 when U misses
    C and to 1 otherwise.
    """
    return _set_powerdomain(HOARE, x, algebra_ang, size_guard)[0]


def smyth_powerdomain(x: FinPoset, algebra_dem: FinAlgebra, size_guard: int = DEFAULT_SIZE_GUARD) -> PowerdomainResult:
    """Up-sets of X under reverse inclusion matched with the meet-preserving
    functionals; the empty set rides along as the top element.

    Every functional's preimage of 1 is also checked to be a filter of
    up-sets (up-closed under inclusion, closed under intersection, and
    containing the whole space).
    """
    result, space, supports = _set_powerdomain(SMYTH, x, algebra_dem, size_guard)
    whole = frozenset(range(x.size))

    def label(support):
        return "{" + ",".join(x.labels[k] for k in sorted(support)) + "}"

    def failures():
        for i in space.hom_indices:
            phi = space.functional(i)
            ones = [u for u, v in zip(supports, phi.table) if v == 1]
            if whole not in ones:
                yield {"functional": phi.key(), "missing": label(whole)}
            for u in ones:
                for v in ones:
                    if u & v not in ones:
                        sets = [label(u), label(v)]
                        yield {"functional": phi.key(), "sets": sets, "missing": label(u & v)}
                for w in supports:
                    if u <= w and w not in ones:
                        yield {"functional": phi.key(), "sets": [label(u)], "missing": label(w)}

    result.checks.append(first_failure("smyth:preimages-are-filters", failures()))
    return result


# each set-presented powerdomain by kind, with its side
SET_POWERDOMAINS = {"hoare": (HOARE, hoare_powerdomain), "smyth": (SMYTH, smyth_powerdomain)}


def sobrification(x: FinPoset, frame_algebra: FinAlgebra, size_guard: int = DEFAULT_SIZE_GUARD):
    """Functionals preserving the full frame structure; equals the points here.

    Finite posets are sober, so the result is order-isomorphic to X via the
    point evaluations.
    """
    space = functional_space(x, frame_algebra, size_guard)
    homs = list(space.hom_indices)
    checks = [
        CheckOutcome("sober:count-equals-points", len(homs) == x.size),
        CheckOutcome(
            "sober:points-are-the-functionals",
            sorted(space.delta_indices) == sorted(homs),
        ),
        CheckOutcome(
            "sober:delta-is-order-iso",
            is_order_iso(
                x,
                space.family_poset(tuple(sorted(homs))),
                [sorted(homs).index(i) for i in space.delta_indices],
            )
            if sorted(space.delta_indices) == sorted(homs)
            else False,
        ),
    ]
    return [space.functional(i) for i in homs], checks


# ---------------------------------------------------------------------------
# sublinear / superlinear law checks


def check_linear_side(phi, side: LinearSide, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, size_guard: int = DEFAULT_SIZE_GUARD) -> CheckOutcome:
    """Zero at zero, then each law of the side as a relaxed-morphism check.

    ``phi`` is walked as a map from the predicates, ``PredAlgebra`` over the
    side's algebra, into that algebra, one op at a time and each on its own
    seeded stream: ``scale`` gives homogeneity, ``add`` the side's
    additivity and ``max`` or ``min`` its lattice law.  The side is an
    argument, never read off ``phi``, so any functional can be tested
    against either side.
    """
    algebra = builtin_algebras()[side.algebra]
    preds = PredAlgebra(algebra, phi.poset, size_guard)
    ops = {(op.symbol, op.tag) for op in algebra.signature.ops}
    checks = [CheckOutcome("zero-at-zero", phi(constant_predicate(phi.poset, ZERO)) == ZERO)]
    for (symbol, tag), law in LINEAR_LAWS.items():
        if (symbol, tag) not in ops:
            continue
        # homogeneity takes a tenth of the samples: its grid already crosses
        # every scalar with every up-set
        samples = max(trials // 10, 10) if symbol == "scale" else trials
        rng = task_rng(seed, f"{side.name}:{symbol}")
        check = is_relaxed_morphism(phi, preds, algebra, rng, samples, symbol)
        check.name = law
        checks.append(check)
    return CheckOutcome.composite(side.name, checks, SAMPLED)


def domination_check(mu: SimpleValuation, phi, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, size_guard: int = DEFAULT_SIZE_GUARD) -> CheckOutcome:
    """Is mu below a SubFn (resp. above a SupFn or a valuation) on every
    tested predicate?

    The verdict is "no violation found"; it never proves membership in the
    dominated set.
    """
    if mu.poset != phi.poset:
        raise TypeMismatch("valuation and functional live over different posets")
    side = SUBLINEAR if isinstance(phi, SubFn) else SUPERLINEAR
    rng = task_rng(seed, "domination")
    preds = two_phase(map(chi, all_up_sets(mu.poset, size_guard)), lambda: random_predicate(mu.poset, rng), trials)
    witnesses = (
        {"f": f.literal(), "mu": str(a), "phi": str(b)}
        for f in preds
        if not _oriented_leq(side.below, a := mu(f), b := phi(f))
    )
    return first_failure(side.domination, witnesses, SAMPLED)


def non_integer_witness(x: FinPoset, point: int, r: ExtNN, rat_monoid, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED, size_guard: int = DEFAULT_SIZE_GUARD) -> CheckOutcome:
    """Witness that a non-integer multiple of a point evaluation cannot be
    generated from point evaluations by addition alone.

    The functional r * x^ is additive and homogeneous (checked by sampling
    against the additive monoid), yet its total mass r is not a natural
    number, while anything built from point evaluations by finite sums has
    natural total mass; masses are preserved by directed suprema, so the
    mass obstruction is decisive at this scale.
    """
    if r.is_infinite or r.is_integer:
        raise RejectInteger(f"{r} is not a finite non-integer scalar")
    mu = dirac(x, point).scale(r)
    pred_alg = PredAlgebra(rat_monoid, x, size_guard)
    rng = task_rng(seed, "non-integer-witness")
    hom = is_homomorphism(mu, pred_alg, rat_monoid, rng, trials)
    hom.name = "scaled-point-evaluation-is-additive"
    mass = mu.mass()
    checks = [
        hom,
        CheckOutcome(
            "mass-outside-naturals",
            not (mass.is_infinite or mass.is_integer),
            witness={"mass": str(mass)},
        ),
    ]
    return CheckOutcome.composite("non-integer-witness", checks, SAMPLED)
