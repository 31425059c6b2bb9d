"""Built-in posets and algebras used by the CLI and the verification suite.

Posets cover the shapes where double exponentials stay enumerable.  Each
built-in operation is realised once, in one table per carrier (the
two-element chain, the extended nonnegative rationals); each built-in
algebra is one row of ``(symbol, tag)`` pairs over a table, and definition
files read their ``builtin`` realisations from the rational one.

``lattice2`` is ``frame2`` under a second name, and both stay: printed
transformer literals read the algebra's name off its functional space, so
equal algebras under different names must not share a cached space, and
``lattice2`` is the catalog's own case of that.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache

from .algebra import FinAlgebra, OpSpec, OpTag, RatAlgebra, Signature
from .extnum import ONE, ZERO
from .poset import TWO, _trusted, poset_from_cover, product_poset

EQ, LE, GE = OpTag.EQ, OpTag.LE, OpTag.GE


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


# an op's arity and realisation, a callable on the argument tuple; a
# parametric op is a scalar-indexed family, realised with its parameter first
_Op = namedtuple("_Op", "arity fn parametric", defaults=(False,))

# the two-valued ops, on the indices of "0" < "1"
TWO_VALUED_OPS = {
    "join": _Op(2, max),
    "meet": _Op(2, min),
    "zero": _Op(0, lambda args: 0),
    "one": _Op(0, lambda args: 1),
}

# the ops on the extended nonnegative rationals
RATIONAL_OPS = {
    "add": _Op(2, lambda args: args[0] + args[1]),
    "mul": _Op(2, lambda args: args[0] * args[1]),
    "max": _Op(2, max),
    "min": _Op(2, min),
    "scale": _Op(1, lambda r, args: r * args[0], parametric=True),
    "zero": _Op(0, lambda args: ZERO),
    "one": _Op(0, lambda args: ONE),
}


def _signature(table, tagged_ops) -> Signature:
    return Signature(tuple(OpSpec(s, table[s].arity, tag, table[s].parametric) for s, tag in tagged_ops))


def two_valued(name, tagged_ops) -> FinAlgebra:
    """The algebra on TWO with the ``(symbol, OpTag)`` ops of TWO_VALUED_OPS, in order."""
    sig = _signature(TWO_VALUED_OPS, tagged_ops)
    tables = {}
    for op in sig.ops:
        fn = TWO_VALUED_OPS[op.symbol].fn
        tables[op.symbol] = {args: fn(args) for args in itertools.product((0, 1), repeat=op.arity)}
    return FinAlgebra(name, TWO, sig, tables)


def rational(name, tagged_ops) -> RatAlgebra:
    """The algebra on ExtNN with the ``(symbol, OpTag)`` ops of RATIONAL_OPS, in order."""
    sig = _signature(RATIONAL_OPS, tagged_ops)
    # the realisations are monotone program constants: a test checks them on the grid
    ops = {op.symbol: RATIONAL_OPS[op.symbol].fn for op in sig.ops}
    return _trusted(RatAlgebra, name=name, signature=sig, ops=ops)


def builtin_algebras() -> dict:
    """The built-in algebras by name, in a new dict on every call.

    The algebras are built once per process, on first use (the two-valued
    ones validated, the rational ones checked by a test); editing the
    returned dict does not reach later callers.
    """
    return dict(_builtin_algebra_instances())


@cache
def _builtin_algebra_instances() -> dict:
    algebras = (
        # join with bottom: the observation algebra of angelic nondeterminism
        two_valued("2_ang", (("join", EQ), ("zero", EQ))),
        # meet with top: the observation algebra of demonic nondeterminism
        two_valued("2_dem", (("meet", EQ), ("one", EQ))),
        # both lattice ops with both bounds; frame maps out of powersets pick points
        two_valued("frame2", (("meet", EQ), ("join", EQ), ("zero", EQ), ("one", EQ))),
        # frame2 under a second name; the module docstring says why it stays
        two_valued("lattice2", (("meet", EQ), ("join", EQ), ("zero", EQ), ("one", EQ))),
        rational("rplus", (("add", EQ), ("zero", EQ))),  # the additive monoid
        # addition and multiplication: the stock non-entropic example
        rational("rplus_semiring", (("add", EQ), ("mul", EQ), ("zero", EQ), ("one", EQ))),
        # all EQ: its homs out of predicate algebras are the linear functionals
        rational("rplus_cone", (("add", EQ), ("scale", EQ), ("zero", EQ))),
        # add lax, max oplax: its relaxed morphisms are the sublinear functionals
        rational("rplus_max", (("add", LE), ("max", GE), ("scale", EQ), ("zero", EQ))),
        # add oplax, min lax: its relaxed morphisms are the superlinear functionals
        rational("rplus_min", (("add", GE), ("min", LE), ("scale", EQ), ("zero", EQ))),
    )
    return {algebra.name: algebra for algebra in algebras}
