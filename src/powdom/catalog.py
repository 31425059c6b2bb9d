"""Built-in posets, algebras and valuation families used by the CLI and the
verification suite.

Posets cover the shapes where double exponentials stay enumerable; the
algebras cover plain and tagged structures on the two-element chain and on
the extended nonnegative rationals.  The tags on the mixed rational
algebras make their tag-relaxed morphisms exactly the sublinear
(``rplus_max``) and superlinear (``rplus_min``) functionals: addition is
lax where subadditivity is wanted and oplax where superadditivity is,
while the semilattice op sits on the side that monotone maps satisfy for
free.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .algebra import FinAlgebra, OpSpec, OpTag, RatAlgebra, Signature
from .extnum import ExtNN, ONE, ZERO, enn_max, enn_min
from .poset import FinPoset, poset_from_cover, product_poset
from .powerdomain import SimpleValuation, dirac

# the two-element chain carrying every two-valued observation algebra
TWO = FinPoset(("0", "1"), ((True, True), (False, True)))


def builtin_posets() -> dict:
    """The built-in posets by name, in a new dict on every call.

    The posets are built and validated once per process, on first use;
    editing the returned dict does not reach later callers.
    """
    return dict(_builtin_poset_instances())


@cache
def _builtin_poset_instances() -> dict:
    c2 = poset_from_cover(("bot", "top"), (("bot", "top"),))
    return {
        "one": poset_from_cover(("pt",), ()),
        "C2": c2,
        "A2": poset_from_cover(("a", "b"), ()),
        "chain3": poset_from_cover(("x0", "x1", "x2"), (("x0", "x1"), ("x1", "x2"))),
        "vee": poset_from_cover(("bot", "l", "r"), (("bot", "l"), ("bot", "r"))),
        "wedge": poset_from_cover(("l", "r", "top"), (("l", "top"), ("r", "top"))),
        "grid2": product_poset(c2, c2),
        "crown4": poset_from_cover(
            ("a", "b", "c", "d"), (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))
        ),
    }


def _two_table(fn):
    return {(i, j): fn(i, j) for i in (0, 1) for j in (0, 1)}


def two_ang() -> FinAlgebra:
    """Join with bottom: the observation algebra of angelic nondeterminism."""
    sig = Signature((OpSpec("join", 2, OpTag.EQ), OpSpec("zero", 0, OpTag.EQ)))
    return FinAlgebra(
        "2_ang", TWO, sig, {"join": _two_table(max), "zero": {(): 0}}
    )


def two_dem() -> FinAlgebra:
    """Meet with top: the observation algebra of demonic nondeterminism."""
    sig = Signature((OpSpec("meet", 2, OpTag.EQ), OpSpec("one", 0, OpTag.EQ)))
    return FinAlgebra(
        "2_dem", TWO, sig, {"meet": _two_table(min), "one": {(): 1}}
    )


def frame_two(name: str = "frame2") -> FinAlgebra:
    """Both lattice ops with both bounds; frame maps out of powersets pick points."""
    sig = Signature(
        (
            OpSpec("meet", 2, OpTag.EQ),
            OpSpec("join", 2, OpTag.EQ),
            OpSpec("zero", 0, OpTag.EQ),
            OpSpec("one", 0, OpTag.EQ),
        )
    )
    return FinAlgebra(
        name,
        TWO,
        sig,
        {
            "meet": _two_table(min),
            "join": _two_table(max),
            "zero": {(): 0},
            "one": {(): 1},
        },
    )


def _scale(r: ExtNN, x: ExtNN) -> ExtNN:
    return r * x


def rplus_monoid() -> RatAlgebra:
    """The additive monoid of extended nonnegative rationals."""
    sig = Signature((OpSpec("add", 2, OpTag.EQ), OpSpec("zero", 0, OpTag.EQ)))
    return RatAlgebra(
        "rplus", sig, {"add": lambda a, b: a + b, "zero": lambda: ZERO}
    )


def rplus_semiring() -> RatAlgebra:
    """Addition and multiplication together; the stock non-entropic example."""
    sig = Signature(
        (
            OpSpec("add", 2, OpTag.EQ),
            OpSpec("mul", 2, OpTag.EQ),
            OpSpec("zero", 0, OpTag.EQ),
            OpSpec("one", 0, OpTag.EQ),
        )
    )
    return RatAlgebra(
        "rplus_semiring",
        sig,
        {
            "add": lambda a, b: a + b,
            "mul": lambda a, b: a * b,
            "zero": lambda: ZERO,
            "one": lambda: ONE,
        },
    )


def rplus_cone() -> RatAlgebra:
    """Cone structure alone, every op tagged EQ.

    Its homomorphisms out of predicate algebras are the linear functionals,
    the simple valuations among them.
    """
    sig = Signature(
        (
            OpSpec("add", 2, OpTag.EQ),
            OpSpec("scale", 1, OpTag.EQ, parametric=True),
            OpSpec("zero", 0, OpTag.EQ),
        )
    )
    return RatAlgebra(
        "rplus_cone", sig, {"add": lambda a, b: a + b, "scale": _scale, "zero": lambda: ZERO}
    )


def rplus_max() -> RatAlgebra:
    """Cone structure plus binary max, tagged for the mixed angelic laws.

    Addition is lax and max oplax, so the tag-relaxed morphisms out of
    predicate algebras are the sublinear functionals.
    """
    sig = Signature(
        (
            OpSpec("add", 2, OpTag.LE),
            OpSpec("max", 2, OpTag.GE),
            OpSpec("scale", 1, OpTag.EQ, parametric=True),
            OpSpec("zero", 0, OpTag.EQ),
        )
    )
    return RatAlgebra(
        "rplus_max",
        sig,
        {
            "add": lambda a, b: a + b,
            "max": enn_max,
            "scale": _scale,
            "zero": lambda: ZERO,
        },
    )


def rplus_min() -> RatAlgebra:
    """Cone structure plus binary min, tagged for the mixed demonic laws.

    Addition is oplax and min lax, so the tag-relaxed morphisms are the
    superlinear functionals.
    """
    sig = Signature(
        (
            OpSpec("add", 2, OpTag.GE),
            OpSpec("min", 2, OpTag.LE),
            OpSpec("scale", 1, OpTag.EQ, parametric=True),
            OpSpec("zero", 0, OpTag.EQ),
        )
    )
    return RatAlgebra(
        "rplus_min",
        sig,
        {
            "add": lambda a, b: a + b,
            "min": enn_min,
            "scale": _scale,
            "zero": lambda: ZERO,
        },
    )


def builtin_algebras() -> dict:
    """The built-in algebras by name, in a new dict on every call.

    The algebras are built and validated once per process, on first use;
    editing the returned dict does not reach later callers.
    """
    return dict(_builtin_algebra_instances())


@cache
def _builtin_algebra_instances() -> dict:
    return {
        "2_ang": two_ang(),
        "2_dem": two_dem(),
        "frame2": frame_two("frame2"),
        "lattice2": frame_two("lattice2"),
        "rplus": rplus_monoid(),
        "rplus_semiring": rplus_semiring(),
        "rplus_cone": rplus_cone(),
        "rplus_max": rplus_max(),
        "rplus_min": rplus_min(),
    }


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
