"""Independent oracles for the powdom benchmark.

Nothing here imports powdom.  A finite poset is given by its element count
and cover pairs of indices; it is held as ``up[i]``, the bitmask of the
elements above or equal to ``i``.  Two-valued predicates on a poset are the
indicators of its up-sets, so the predicates of ``P`` are the up-sets of
``P`` and the functionals ``[[P -> 2] -> 2]`` are the up-sets of the
inclusion order on those up-sets.  Everything is counted by plain
enumeration of bitmasks.
"""

from __future__ import annotations

# Dedekind numbers M(n): monotone Boolean functions of n variables
# (OEIS A000372); M(n) is the number of functionals over the n-antichain
DEDEKIND = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}


def bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def up_masks(n, covers):
    """Reflexive-transitive closure of the cover pairs (lo, hi), as up masks."""
    up = [1 << i for i in range(n)]
    for lo, hi in covers:
        up[lo] |= 1 << hi
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in bits(up[i] & ~(1 << i)):
            if up[j] >> i & 1:
                raise ValueError("cover pairs contain a cycle")
    return up


def up_sets(up):
    """Every up-closed subset, as a sorted list of bitmasks.

    Elements are decided from the top down, so an element may join the set
    only when everything strictly above it is already in.
    """
    n = len(up)
    below = [sum(1 for k in range(n) if up[k] >> i & 1) for i in range(n)]
    order = sorted(range(n), key=lambda i: -below[i])
    out = []

    def walk(k, mask):
        if k == n:
            out.append(mask)
            return
        i = order[k]
        walk(k + 1, mask)
        if up[i] & ~(1 << i) & ~mask == 0:
            walk(k + 1, mask | 1 << i)

    walk(0, 0)
    return sorted(out)


def down_sets(up):
    """Every down-closed subset: the complements of the up-sets."""
    full = (1 << len(up)) - 1
    return sorted(full & ~m for m in up_sets(up))


def cover_pairs(up):
    """Pairs (i, j) with i < j and nothing strictly in between."""
    n = len(up)
    out = []
    for i in range(n):
        for j in bits(up[i] & ~(1 << i)):
            between = up[i] & ~(1 << i) & ~(1 << j)
            if not any(up[k] >> j & 1 for k in bits(between)):
                out.append((i, j))
    return sorted(out)


def inclusion_up(masks):
    """Up masks of the inclusion order on the given subsets."""
    return [
        sum(1 << h for h, b in enumerate(masks) if a & b == a) for a in masks
    ]


class DoubleExp:
    """Predicates and functionals of a poset over the two-element chain.

    ``preds`` lists the up-sets of the poset (the predicates) and
    ``functionals`` the up-sets of their inclusion order, each a bitmask
    over predicate positions.
    """

    def __init__(self, n, covers):
        self.n = n
        self.up = up_masks(n, covers)
        self.preds = up_sets(self.up)
        self.pred_up = inclusion_up(self.preds)
        self.functionals = up_sets(self.pred_up)
        self._pos = {m: g for g, m in enumerate(self.preds)}
        self.full = (1 << n) - 1

    def value(self, phi, pred_mask):
        return phi >> self._pos[pred_mask] & 1

    def _family(self, binary, nullary):
        """Functionals satisfying ``binary(phi, u, v)`` for all predicates
        and ``nullary(phi)``."""
        out = []
        for phi in self.functionals:
            if not nullary(phi):
                continue
            if all(binary(phi, u, v) for u in self.preds for v in self.preds):
                out.append(phi)
        return out

    def join_homs(self):
        """Preserve binary joins and the empty predicate (2_ang)."""
        val = self.value
        return self._family(
            lambda p, u, v: val(p, u | v) == (val(p, u) | val(p, v)),
            lambda p: val(p, 0) == 0,
        )

    def meet_homs(self):
        """Preserve binary meets and the full predicate (2_dem)."""
        val = self.value
        return self._family(
            lambda p, u, v: val(p, u & v) == (val(p, u) & val(p, v)),
            lambda p: val(p, self.full) == 1,
        )

    def frame_homs(self):
        """Preserve both lattice ops and both bounds (frame2)."""
        joins = set(self.join_homs())
        return [p for p in self.meet_homs() if p in joins]

    def lax_join_morphisms(self):
        """phi(u v v) <= phi(u) v phi(v); the zero, tagged GE, is free."""
        val = self.value
        return self._family(
            lambda p, u, v: val(p, u | v) <= (val(p, u) | val(p, v)),
            lambda p: True,
        )

    def deltas(self):
        """Point evaluations: phi_x(u) = 1 iff x lies in u."""
        return [
            sum(1 << g for g, m in enumerate(self.preds) if m >> x & 1)
            for x in range(self.n)
        ]

    def join_generated(self):
        """Closure of the point evaluations and the zero functional under
        pointwise join (bitwise or)."""
        current = {0} | set(self.deltas())
        frontier = list(current)
        while frontier:
            fresh = []
            for a in frontier:
                for b in list(current):
                    c = a | b
                    if c not in current:
                        current.add(c)
                        fresh.append(c)
            frontier = fresh
        return sorted(current)
