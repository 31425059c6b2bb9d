"""Continuation-style functionals over an observation algebra.

For a finite poset X and a finite observation algebra R, the predicates are
the exponential [X -> R] and the functionals the double exponential
[[X -> R] -> R].  The unit sends a point to evaluation at that point.  A
state transformer t : X -> [[Y -> R] -> R] has the predicate transformer
``p(t)(g) = x |-> t(x)(g)``, and it lifts to functionals by precomposition
with it: ``lift(t)(phi) = phi . p(t)``, i.e. ``g |-> phi(x |-> t(x)(g))``.
Each transformer computes p(t) once and keeps it, so a lift is one table
gather.  It also keeps its lift table, the index of lift(t)(phi) for every
functional phi over its source, built on first use through
``kleisli_lift``; Kleisli composition and the monad laws read their lifts
off the kept tables instead of lifting again.  Every transformer is made
by its target space, which keeps one per (source, table): the unit, the
enumerated transformers, q(s), Kleisli composites and parsed literals with
equal tables are one object, validated once, and build their p(t) and lift
table once.  p, its inverse q and the unit are one transpose.  The size
guard is set where a space is built, and everything derived from it
(transformers into it, their p(t) and lift tables, and the monad laws)
inherits that guard.

Three families of functionals sit inside the full double exponential: the
op-preserving ones (hom), the tag-relaxed ones, and the family generated
from the point evaluations by the pointwise ops (free).  All three contain
the point evaluations and are closed under the lifting, so each yields a
monad sitting inside the continuation monad.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (
    FinAlgebra,
    first_failure,
    generated_subalgebra,
    is_homomorphism,
    is_relaxed_morphism,
    lift_pointwise,
)
from .errors import TypeMismatch
from .funcspace import MonoMap, enumerate_monotone
from .poset import FinPoset, sub_poset
from .sampling import DEFAULT_SIZE_GUARD


class FunctionalSpace:
    """Everything derived from one (poset, algebra) pair, built once.

    ``predicates`` is the exponential [X -> R] with the pointwise algebra
    ``pred_algebra`` on it; ``space`` is the double exponential holding the
    functionals, with the pointwise algebra ``func_algebra`` on it.
    """

    def __init__(self, x: FinPoset, algebra: FinAlgebra, size_guard: int):
        self.x = x
        self.algebra = algebra
        self.size_guard = size_guard
        self.pred_algebra = lift_pointwise(algebra, x, size_guard)
        self.predicates = self.pred_algebra.expo
        self.func_algebra = lift_pointwise(algebra, self.predicates.poset, size_guard)
        self.space = self.func_algebra.expo
        self.delta_indices = _transpose([m.table for m in self.predicates.maps], x.size, self.space)
        self._hom = None
        self._relaxed = None
        self._free = None
        self._transformers = {}

    def functional(self, i: int) -> MonoMap:
        return self.space.maps[i]

    def delta(self, i: int) -> MonoMap:
        return self.space.maps[self.delta_indices[i]]

    @property
    def hom_indices(self):
        if self._hom is None:
            self._hom = tuple(
                i
                for i, m in enumerate(self.space.maps)
                if is_homomorphism(m, self.pred_algebra, self.algebra)
            )
        return self._hom

    @property
    def relaxed_indices(self):
        if self._relaxed is None:
            self._relaxed = tuple(
                i
                for i, m in enumerate(self.space.maps)
                if is_relaxed_morphism(m, self.pred_algebra, self.algebra)
            )
        return self._relaxed

    @property
    def free_indices(self):
        if self._free is None:
            self._free = generated_subalgebra(self.func_algebra, self.delta_indices)
        return self._free

    def transformer(self, source: FinPoset, table) -> "StateTransformer":
        """The state transformer from ``source`` into this space with this
        table of functional indices: one object per (source, table), its
        table validated as a monotone map when it is first built."""
        key = (source, tuple(table))
        t = self._transformers.get(key)
        if t is None:
            t = self._transformers[key] = StateTransformer(source, self, key[1])
        return t

    @property
    def unit(self) -> "StateTransformer":
        """The unit X -> [[X -> R] -> R] as a state transformer."""
        return self.transformer(self.x, self.delta_indices)

    def family_poset(self, indices) -> FinPoset:
        return sub_poset(self.space.poset, indices)


def _transpose(rows, width, expo) -> tuple:
    """The index in ``expo`` of each of the ``width`` columns of ``rows``;
    ``width`` is given because over the empty poset there are no rows."""
    return tuple(expo.index(tuple(row[c] for row in rows)) for c in range(width))


@lru_cache(maxsize=None)
def _functional_space(x, algebra, name, size_guard):
    return FunctionalSpace(x, algebra, size_guard)


def functional_space(x: FinPoset, algebra: FinAlgebra, size_guard: int = DEFAULT_SIZE_GUARD) -> FunctionalSpace:
    # FinAlgebra equality ignores the name, but printed transformer literals
    # read the name off the space, so equal algebras under different names
    # (frame2, lattice2) must not share a cached space
    return _functional_space(x, algebra, algebra.name, size_guard)


def delta(x: FinPoset, algebra: FinAlgebra, size_guard: int = DEFAULT_SIZE_GUARD):
    """The point evaluations x |-> (f |-> f(x)), in element order."""
    space = functional_space(x, algebra, size_guard)
    return [space.delta(i) for i in range(x.size)]


class StateTransformer:
    """A monotone assignment of a functional over [Y -> R] to every x in X.

    Made by the target space's ``transformer``, which keeps one per
    (source, table)."""

    def __init__(self, source: FinPoset, space: FunctionalSpace, table):
        self.source = source
        self.space = space
        self.table = MonoMap(source, space.space.poset, table).table
        self._p = None
        self._lifts = None

    def __call__(self, i: int) -> MonoMap:
        return self.space.functional(self.table[i])

    def predicate_transformer(self) -> "PredicateTransformer":
        """p(t): g |-> (x |-> t(x)(g)), computed on first use and kept; the
        source's spaces are built under the target space's guard."""
        if self._p is None:
            space = self.space
            x_space = functional_space(self.source, space.algebra, space.size_guard)
            functionals = [space.functional(k).table for k in self.table]
            table = _transpose(functionals, len(space.predicates), x_space.predicates)
            self._p = PredicateTransformer(space, x_space, table)
        return self._p

    def lift_table(self) -> tuple:
        """Index k of the functionals over the source to the index of
        ``kleisli_lift(t, maps[k])`` among those over the target; computed on
        first use and kept."""
        if self._lifts is None:
            maps = self.predicate_transformer().x_space.space.maps
            index = self.space.space.index
            self._lifts = tuple(index(kleisli_lift(self, phi).table) for phi in maps)
        return self._lifts

    def __eq__(self, other):
        return (
            isinstance(other, StateTransformer)
            and self.source == other.source
            and self.space.x == other.space.x
            and self.space.algebra == other.space.algebra
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.source, self.space.x, self.space.algebra, self.table))


class PredicateTransformer:
    """A monotone assignment of a predicate over X to every predicate over Y."""

    def __init__(self, y_space: FunctionalSpace, x_space: FunctionalSpace, table):
        if y_space.algebra != x_space.algebra:
            raise TypeMismatch("predicate transformer endpoints disagree on the algebra")
        self.y_space = y_space
        self.x_space = x_space
        self._map = MonoMap(y_space.predicates.poset, x_space.predicates.poset, table)
        self.table = self._map.table

    def __call__(self, g: int) -> MonoMap:
        return self.x_space.predicates.maps[self.table[g]]

    def as_map(self) -> MonoMap:
        return self._map

    def __eq__(self, other):
        return (
            isinstance(other, PredicateTransformer)
            and self.y_space.x == other.y_space.x
            and self.x_space.x == other.x_space.x
            and self.y_space.algebra == other.y_space.algebra
            and self.table == other.table
        )

    def __hash__(self):
        return hash(
            (self.y_space.x, self.x_space.x, self.y_space.algebra, self.table)
        )


def kleisli_lift(t: StateTransformer, phi: MonoMap) -> MonoMap:
    """lift(t)(phi) = phi . p(t): the functional g |-> phi(x |-> t(x)(g))."""
    p = t.predicate_transformer()
    if phi.source != p.x_space.predicates.poset:
        raise TypeMismatch("functional does not live over the transformer's source")
    phi_table = phi.table
    return MonoMap(
        t.space.predicates.poset,
        t.space.algebra.carrier,
        tuple(phi_table[i] for i in p.table),
    )


def functor_action(u: MonoMap, phi: MonoMap, algebra: FinAlgebra, size_guard: int = DEFAULT_SIZE_GUARD) -> MonoMap:
    """Push a functional over [X -> R] forward along u : X -> Y (g |-> phi(g . u))."""
    x_space = functional_space(u.source, algebra, size_guard)
    y_space = functional_space(u.target, algebra, size_guard)
    if phi.source != x_space.predicates.poset:
        raise TypeMismatch("functional does not live over the map's source")
    out = []
    for g in y_space.predicates.maps:
        pulled = tuple(g.table[u.table[i]] for i in range(u.source.size))
        out.append(phi.table[x_space.predicates.index(pulled)])
    return MonoMap(y_space.predicates.poset, algebra.carrier, tuple(out))


def p_transform(t: StateTransformer) -> PredicateTransformer:
    """State to predicate transformer: g |-> (x |-> t(x)(g))."""
    return t.predicate_transformer()


def q_transform(s: PredicateTransformer) -> StateTransformer:
    """Predicate to state transformer: x |-> (g |-> s(g)(x))."""
    predicates = [s.x_space.predicates.maps[k].table for k in s.table]
    table = _transpose(predicates, s.x_space.x.size, s.y_space.space)
    return s.y_space.transformer(s.x_space.x, table)


def all_state_transformers(x: FinPoset, target: FunctionalSpace, indices=None):
    """Every monotone t from x into the functional space (or the sub-family
    at ``indices``), enumerated under the space's guard."""
    indices = range(len(target.space)) if indices is None else indices
    expo = enumerate_monotone(x, target.family_poset(indices), target.size_guard)
    return [target.transformer(x, (indices[v] for v in m.table)) for m in expo.maps]


def all_predicate_transformers(y_space: FunctionalSpace, x_space: FunctionalSpace):
    expo = enumerate_monotone(y_space.predicates.poset, x_space.predicates.poset, x_space.size_guard)
    return [PredicateTransformer(y_space, x_space, m.table) for m in expo.maps]


def compose_transformers(t: StateTransformer, r: StateTransformer) -> StateTransformer:
    """The Kleisli composite x |-> lift(r)(t(x)), read off r's kept lift table."""
    if t.space.predicates.poset != r.predicate_transformer().x_space.predicates.poset:
        raise TypeMismatch("the first transformer's target is not the second's source")
    return r.space.transformer(t.source, map(r.lift_table().__getitem__, t.table))


def check_monad_laws(x, y, z, algebra, t: StateTransformer, r: StateTransformer):
    """The two unit laws and associativity for one (t, r) pair, exhaustively,
    as index comparisons on the kept lift tables."""
    if t.source != x or t.space.x != y or r.source != y or r.space.x != z:
        raise TypeMismatch("transformer endpoints do not match the stated posets")
    if t.space.algebra != algebra or r.space.algebra != algebra:
        raise TypeMismatch("transformer algebras do not match the stated algebra")
    x_space = t.predicate_transformer().x_space
    maps = x_space.space.maps
    unit = x_space.unit
    rt = compose_transformers(t, r)
    t_lifts = t.lift_table()
    r_lifts = r.lift_table()
    return [
        first_failure(
            "monad:lift-of-unit-is-identity",
            ({"phi": maps[k].key()} for k, j in enumerate(unit.lift_table()) if j != k),
        ),
        first_failure(
            "monad:lift-after-unit-is-plain",
            (
                {"point": label}
                for label, u, ti in zip(x.labels, unit.table, t.table)
                if t_lifts[u] != ti
            ),
        ),
        first_failure(
            "monad:lift-is-associative",
            (
                {"phi": maps[k].key()}
                for k, j in enumerate(rt.lift_table())
                if j != r_lifts[t_lifts[k]]
            ),
        ),
    ]
