"""Monotone maps between finite posets and enumerated exponentials [X -> Y].

A monotone total map is the finite stand-in for a Scott-continuous
function.  The maps of an exponential come from ``poset.monotone_tables``;
it carries the pointwise order, a partial order by construction, as a
trusted FinPoset so that further exponentials can be taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_

from .errors import NotMonotone, TypeMismatch
from .poset import FinPoset, _trusted, monotone_tables
from .sampling import DEFAULT_SIZE_GUARD


@dataclass(frozen=True)
class MonoMap:
    """A monotone total map, stored as a table of target indices.

    Maps are only comparable and composable when their source/target posets
    match as presented (same labels, same order), never up to isomorphism.
    """

    source: FinPoset
    target: FinPoset
    table: tuple

    def __post_init__(self):
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        if len(table) != self.source.size:
            raise TypeMismatch("table length does not match source size")
        if table and (min(table) < 0 or max(table) >= len(self.target.labels)):
            raise TypeMismatch("table entry out of target range")
        leq = self.target.leq
        for i, j in self.source.covers():
            if not leq[table[i]][table[j]]:
                raise NotMonotone(
                    f"table violates monotonicity on "
                    f"{self.source.labels[i]} <= {self.source.labels[j]}"
                )

    def __call__(self, i: int) -> int:
        return self.table[i]

    def leq(self, other: "MonoMap") -> bool:
        """Pointwise comparison; requires identical source and target."""
        if self.source != other.source or self.target != other.target:
            raise TypeMismatch("maps live in different exponentials")
        return all(
            self.target.leq[a][b] for a, b in zip(self.table, other.table)
        )

    def key(self) -> str:
        """Deterministic label, target indices in source element order."""
        return "[" + ",".join(str(t) for t in self.table) + "]"

    def entries(self) -> str:
        """Human-readable body of the map literal: ``a |-> b; ...``."""
        return "; ".join(
            f"{a} |-> {self.target.labels[t]}"
            for a, t in zip(self.source.labels, self.table)
        )


def identity_map(poset: FinPoset) -> MonoMap:
    return MonoMap(poset, poset, tuple(range(poset.size)))


def compose(u: MonoMap, v: MonoMap) -> MonoMap:
    """Apply u then v (i.e. the map v . u)."""
    if u.target != v.source:
        raise TypeMismatch("target of the first map differs from source of the second")
    return MonoMap(u.source, v.target, tuple(v.table[t] for t in u.table))


def precompose(u: MonoMap, g: MonoMap) -> MonoMap:
    """The contravariant action on predicates: x |-> g(u(x))."""
    return compose(u, g)


_BIT = {"0": False, "1": True}


class ExpPoset:
    """Monotone maps X -> Y with the pointwise order, as a poset: all of them,
    or a family of them such as End(A).

    Maps are listed in ascending lexicographic order of their tables; the
    poset uses the tables as element labels.  Its order is built as bitmask
    up rows: one mask per point x and target value v of the maps whose value
    at x lies above v, ANDed over the points of each map.
    """

    def __init__(self, source: FinPoset, target: FinPoset, maps):
        self.source = source
        self.target = target
        self.maps = tuple(maps)
        tables = [m.table for m in self.maps]
        self._by_table = {t: i for i, t in enumerate(tables)}
        above = []  # above[x][v]: the maps whose value at x lies above v
        for x in range(source.size):
            at = [0] * target.size  # at[w]: the maps whose value at x is w
            for i, t in enumerate(tables):
                at[t[x]] |= 1 << i
            above.append([reduce(or_, compress(at, row), 0) for row in target.leq])
        n = len(tables)
        up = tuple(reduce(and_, map(list.__getitem__, above, t), (1 << n) - 1) for t in tables)
        # row i of leq reads bit j of up[i] at position j
        leq = tuple(tuple(map(_BIT.__getitem__, format(mask, f"0{n}b")[::-1])) for mask in up)
        labels = tuple(m.key() for m in self.maps)
        self.poset = _trusted(FinPoset, labels=labels, leq=leq, _up=up)

    def __len__(self):
        return len(self.maps)

    def index(self, m) -> int:
        table = m.table if isinstance(m, MonoMap) else tuple(m)
        try:
            return self._by_table[table]
        except KeyError:
            raise TypeMismatch(f"map {table} is not in this exponential") from None


def enumerate_monotone(
    source: FinPoset, target: FinPoset, size_guard: int = DEFAULT_SIZE_GUARD
) -> ExpPoset:
    """Enumerate the exponential [source -> target] from the tables of
    ``poset.monotone_tables``, whose backtrack never generates the full
    |Y|^|X| space and whose guard refuses it when that bound is too big."""
    # monotone by construction: each value was checked against the values below
    tables = monotone_tables(source, target, size_guard)
    return ExpPoset(source, target, [_trusted(MonoMap, source=source, target=target, table=t) for t in tables])
