"""Finite partial orders, their products and the enumerator of monotone maps.

At this scale a finite poset plays the role of a dcpo: every directed
subset has a maximum, so monotone maps are exactly the Scott-continuous
ones, up-closed sets are the Scott-opens and down-closed sets the
Scott-closed sets.  ``monotone_tables`` enumerates the monotone maps
X -> Y; the up-sets are read off the maps into the 2-chain, the down-sets
off the maps into its opposite, and ``funcspace`` builds [X -> Y] from
them.  Everything here is immutable and enumerations are deterministic
(element order is the label order given at construction, subsets are
ordered by ascending bitmask).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CycleDetected,
    DuplicateLabel,
    InvalidOrder,
    SizeGuardExceeded,
    UnknownElement,
    UnknownLabel,
)
from .sampling import DEFAULT_SIZE_GUARD


@dataclass(frozen=True)
class FinPoset:
    """A finite poset: element labels plus a boolean <= matrix.

    The matrix is validated at construction; only an exponential's order,
    a partial order by construction, skips the check (see ``_trusted``).  Each
    row is first packed into a bitmask (``up[i]`` holds every j with
    i <= j); transitivity is then one mask test per related pair,
    ``up[j] & ~up[i]``, so validation takes O(n^2) big-int operations.
    Pairs are visited row by row, so the first violation found (and its
    message) is that of the element-wise scan.  Equality and hashing are by
    presentation (labels and matrix), so two posets built the same way are
    interchangeable, while merely isomorphic posets are not.
    """

    labels: tuple
    leq: tuple
    _covers = _strict_below = None  # computed on first use, then kept

    def __post_init__(self):
        labels = tuple(self.labels)
        leq = tuple(tuple(map(bool, row)) for row in self.leq)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "leq", leq)
        n = len(labels)
        if len(set(labels)) != n:
            raise DuplicateLabel(f"duplicate element labels in {labels}")
        if len(leq) != n or any(len(row) != n for row in leq):
            raise InvalidOrder("relation matrix shape does not match element count")
        up = tuple(_row_mask(row) for row in leq)
        for i in range(n):
            if not leq[i][i]:
                raise InvalidOrder(f"relation not reflexive at {labels[i]}")
            up_i = up[i]
            for j in _bits(up_i):
                if j != i and leq[j][i]:
                    raise InvalidOrder(
                        f"relation not antisymmetric on {labels[i]}, {labels[j]}"
                    )
                if up[j] & ~up_i:
                    raise InvalidOrder(f"relation not transitive via {labels[j]}")
        object.__setattr__(self, "_up", up)

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self):
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"unknown element {label!r}") from None

    def leq_label(self, a: str, b: str) -> bool:
        return self.leq[self.index(a)][self.index(b)]

    def covers(self):
        """Cover pairs (i, j): j covers i, i.e. i < j with nothing in between.

        Computed once per poset from the row bitmasks (j covers i when the
        strict up-set of i and the strict down-set of j are disjoint) and
        cached; the tuple lists the pairs in ascending (i, j) order.
        """
        if self._covers is None:
            up = self._up
            down = [0] * self.size
            for i, row in enumerate(up):
                for j in _bits(row):
                    down[j] |= 1 << i
            out = []
            for i, row in enumerate(up):
                strict_up = row & ~(1 << i)
                for j in _bits(strict_up):
                    if not strict_up & down[j] & ~(1 << j):
                        out.append((i, j))
            object.__setattr__(self, "_covers", tuple(out))
        return self._covers

    def strict_below(self):
        """For each element i, the indices strictly below it, ascending; cached."""
        if self._strict_below is None:
            leq, n = self.leq, self.size
            below = tuple(tuple(j for j in range(n) if j != i and leq[j][i]) for i in range(n))
            object.__setattr__(self, "_strict_below", below)
        return self._strict_below

    def dot(self, name: str = "poset") -> str:
        """Hasse diagram (transitive reduction) in DOT, stable ordering."""
        lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
        for label in self.labels:
            lines.append(f'  "{label}";')
        for i, j in self.covers():
            lines.append(f'  "{self.labels[i]}" -> "{self.labels[j]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _row_mask(row) -> int:
    """Bitmask of the True positions of a boolean row (bit j for row[j])."""
    mask = 0
    for j, v in enumerate(row):
        if v:
            mask |= 1 << j
    return mask


def _bits(mask: int):
    """Positions of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _trusted(cls, **fields):
    """An instance of ``cls`` with these fields and none of its checks: the
    path of derived objects, which are correct by construction.  Fields are
    set one by one, as ``__init__`` sets them, so that the instance keeps
    CPython's shared-key attribute layout and reads of it stay as fast."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def poset_from_cover(labels, cover_pairs) -> FinPoset:
    """Build a poset as the reflexive-transitive closure of cover pairs.

    Raises CycleDetected when the closure violates antisymmetry.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"duplicate element labels in {labels}")
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for low, high in cover_pairs:
        if low not in pos:
            raise UnknownLabel(f"unknown element {low!r} in cover pair")
        if high not in pos:
            raise UnknownLabel(f"unknown element {high!r} in cover pair")
        leq[pos[low]][pos[high]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise CycleDetected(
                    f"cover relation creates a cycle through {labels[i]} and {labels[j]}"
                )
    return FinPoset(labels, tuple(tuple(row) for row in leq))


@dataclass(frozen=True)
class ElemSet:
    """A subset of a poset's elements as a bitmask."""

    poset: FinPoset
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >= (1 << self.poset.size):
            raise UnknownElement(f"bitmask {self.mask} out of range")

    def members(self):
        return tuple(i for i in range(self.poset.size) if self.mask >> i & 1)

    def member_labels(self):
        return tuple(self.poset.labels[i] for i in self.members())

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def complement(self) -> "ElemSet":
        full = (1 << self.poset.size) - 1
        return ElemSet(self.poset, full & ~self.mask)

    def label(self) -> str:
        return "{" + ",".join(self.member_labels()) + "}"


# the two-element chain 0 < 1 and its opposite: the up-sets of a poset are
# the 1s of its monotone maps into TWO, the down-sets those into TWO_OP
TWO = FinPoset(("0", "1"), ((True, True), (False, True)))
TWO_OP = FinPoset(("0", "1"), ((True, False), (True, True)))


def monotone_tables(source: FinPoset, target: FinPoset, size_guard: int = DEFAULT_SIZE_GUARD):
    """The table of every monotone map source -> target (target indices in
    source element order), in ascending lexicographic order.

    Refuses up front when the a priori bound |Y|^|X| exceeds the guard.
    Backtracks over the source elements sorted by the size of their strict
    down-sets, a linear extension of any partial order (and a finite sort on
    any relation); each element may take the values above every value
    already assigned below it, one AND of the target's up-set masks.
    """
    n = source.size
    bound = target.size**n
    if bound > size_guard:
        raise SizeGuardExceeded(bound, size_guard)
    below = source.strict_below()
    order = sorted(range(n), key=lambda e: len(below[e]))
    up, values, full = target._up, range(target.size), (1 << target.size) - 1
    assignment = [0] * n
    tables = []

    def backtrack(k):
        if k == n:
            tables.append(tuple(assignment))
            return
        e = order[k]
        allowed = full
        for b in below[e]:
            allowed &= up[assignment[b]]
        for v in values:
            if allowed >> v & 1:
                assignment[e] = v
                backtrack(k + 1)

    backtrack(0)
    tables.sort()
    return tables


def _sets_of_ones(poset: FinPoset, target: FinPoset, size_guard: int):
    """The set where each monotone map poset -> target is 1, ascending bitmask."""
    tables = monotone_tables(poset, target, size_guard)
    return [ElemSet(poset, mask) for mask in sorted(sum(v << i for i, v in enumerate(t)) for t in tables)]


def all_up_sets(poset: FinPoset, size_guard: int = DEFAULT_SIZE_GUARD):
    """Every up-closed subset (the Scott-open sets), ascending bitmask."""
    return _sets_of_ones(poset, TWO, size_guard)


def all_down_sets(poset: FinPoset, size_guard: int = DEFAULT_SIZE_GUARD):
    """Every down-closed subset (the Scott-closed sets), ascending bitmask."""
    return _sets_of_ones(poset, TWO_OP, size_guard)


def product_poset(x: FinPoset, y: FinPoset) -> FinPoset:
    """Cartesian product with the componentwise order."""
    labels = tuple(f"({a},{b})" for a in x.labels for b in y.labels)
    ny = y.size
    n = x.size * ny
    leq = tuple(
        tuple(x.leq[i // ny][j // ny] and y.leq[i % ny][j % ny] for j in range(n))
        for i in range(n)
    )
    return FinPoset(labels, leq)


def sub_poset(poset: FinPoset, indices) -> FinPoset:
    """Restriction of the order to the given element indices (in that order)."""
    indices = list(indices)
    labels = tuple(poset.labels[i] for i in indices)
    leq = tuple(tuple(poset.leq[i][j] for j in indices) for i in indices)
    return FinPoset(labels, leq)


def set_inclusion_poset(sets, reverse: bool = False) -> FinPoset:
    """The given ElemSets ordered by (reverse) inclusion of their masks."""
    labels = tuple(s.label() for s in sets)

    def incl(a, b):
        return (a.mask & b.mask) == a.mask

    leq = tuple(
        tuple(incl(b, a) if reverse else incl(a, b) for b in sets) for a in sets
    )
    return FinPoset(labels, leq)


def is_order_iso(p: FinPoset, q: FinPoset, mapping) -> bool:
    """Does the index mapping p -> q define an order isomorphism?"""
    if p.size != q.size or sorted(mapping) != list(range(q.size)):
        return False
    for i in range(p.size):
        for j in range(p.size):
            if p.leq[i][j] != q.leq[mapping[i]][mapping[j]]:
                return False
    return True
