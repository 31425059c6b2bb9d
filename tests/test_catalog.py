"""The built-in algebras, pinned op by op.

Suite records that pass hold no op order, tag or value, so a swapped op,
a changed tag or a wrong realisation in the catalog would leave both
report digests unchanged.  These tests pin each built-in algebra's
signature in order, its carrier, every entry of its two-valued tables, and
each rational op at a few grid points.
"""

from fractions import Fraction

import pytest

from powdom import catalog
from powdom.algebra import FinAlgebra, RatAlgebra
from powdom.extnum import INF, ExtNN
from powdom.sampling import LAW_GRID

ALGS = catalog.builtin_algebras()

# (symbol, arity, tag, parametric) in signature order
SIGNATURES = {
    "2_ang": [("join", 2, "EQ", False), ("zero", 0, "EQ", False)],
    "2_dem": [("meet", 2, "EQ", False), ("one", 0, "EQ", False)],
    "frame2": [
        ("meet", 2, "EQ", False),
        ("join", 2, "EQ", False),
        ("zero", 0, "EQ", False),
        ("one", 0, "EQ", False),
    ],
    "lattice2": [
        ("meet", 2, "EQ", False),
        ("join", 2, "EQ", False),
        ("zero", 0, "EQ", False),
        ("one", 0, "EQ", False),
    ],
    "rplus": [("add", 2, "EQ", False), ("zero", 0, "EQ", False)],
    "rplus_semiring": [
        ("add", 2, "EQ", False),
        ("mul", 2, "EQ", False),
        ("zero", 0, "EQ", False),
        ("one", 0, "EQ", False),
    ],
    "rplus_cone": [
        ("add", 2, "EQ", False),
        ("scale", 1, "EQ", True),
        ("zero", 0, "EQ", False),
    ],
    "rplus_max": [
        ("add", 2, "LE", False),
        ("max", 2, "GE", False),
        ("scale", 1, "EQ", True),
        ("zero", 0, "EQ", False),
    ],
    "rplus_min": [
        ("add", 2, "GE", False),
        ("min", 2, "LE", False),
        ("scale", 1, "EQ", True),
        ("zero", 0, "EQ", False),
    ],
}

TWO_VALUED = ("2_ang", "2_dem", "frame2", "lattice2")

# every entry of each two-valued table, on the indices of "0" < "1"
TWO_TABLES = {
    "join": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    "meet": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    "zero": {(): 0},
    "one": {(): 1},
}

ZERO, THIRD, HALF, ONE, TWO, SEVEN = (ExtNN(v) for v in (0, Fraction(1, 3), Fraction(1, 2), 1, 2, 7))

# (param, args, value) for each rational op, on LAW_GRID points
RATIONAL_VALUES = {
    "add": [
        (None, (THIRD, HALF), ExtNN(Fraction(5, 6))),
        (None, (ZERO, SEVEN), SEVEN),
        (None, (TWO, INF), INF),
    ],
    "mul": [
        (None, (THIRD, HALF), ExtNN(Fraction(1, 6))),
        (None, (TWO, SEVEN), ExtNN(14)),
        (None, (ZERO, INF), ZERO),
    ],
    "max": [
        (None, (THIRD, HALF), HALF),
        (None, (SEVEN, ONE), SEVEN),
        (None, (ZERO, INF), INF),
    ],
    "min": [
        (None, (THIRD, HALF), THIRD),
        (None, (SEVEN, ONE), ONE),
        (None, (ZERO, INF), ZERO),
    ],
    "scale": [
        (HALF, (SEVEN,), ExtNN(Fraction(7, 2))),
        (TWO, (THIRD,), ExtNN(Fraction(2, 3))),
        (ZERO, (INF,), ZERO),
        (INF, (ONE,), INF),
    ],
    "zero": [(None, (), ZERO)],
    "one": [(None, (), ONE)],
}


def test_the_catalog_has_the_nine_algebras_in_order():
    assert list(ALGS) == list(SIGNATURES)
    assert all(alg.name == name for name, alg in ALGS.items())


@pytest.mark.parametrize("name", list(SIGNATURES))
def test_signature_order_tags_and_families_are_pinned(name):
    ops = [(op.symbol, op.arity, op.tag.value, op.parametric) for op in ALGS[name].signature.ops]
    assert ops == SIGNATURES[name]


@pytest.mark.parametrize("name", TWO_VALUED)
def test_two_valued_algebras_sit_on_the_two_chain_with_pinned_tables(name):
    alg = ALGS[name]
    assert isinstance(alg, FinAlgebra)
    assert alg.carrier == catalog.TWO
    assert alg.carrier.labels == ("0", "1")
    assert alg.carrier.up == (0b11, 0b10)
    assert alg.tables == {sym: TWO_TABLES[sym] for sym in alg.signature.symbols()}


@pytest.mark.parametrize("name", [n for n in SIGNATURES if n not in TWO_VALUED])
def test_rational_ops_take_their_pinned_values(name):
    alg = ALGS[name]
    assert isinstance(alg, RatAlgebra)
    assert alg.grid == LAW_GRID
    for op in alg.signature.ops:
        for param, args, value in RATIONAL_VALUES[op.symbol]:
            assert all(a in LAW_GRID for a in args) and param in (None, *LAW_GRID)
            assert alg.resolve(op.symbol, param)(args) == value, (name, op.symbol, param, args)


# the catalog builds its rational algebras on the trusted path, so this is
# where their realisations are checked to be monotone on the grid
@pytest.mark.parametrize("name", [n for n in SIGNATURES if n not in TWO_VALUED])
def test_rational_ops_are_monotone_on_the_grid(name):
    ALGS[name]._grid_monotone()


def test_building_the_catalog_rows_runs_no_grid_check(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self.name} grid-checked at build time")

    monkeypatch.setattr(RatAlgebra, "_grid_monotone", refuse)
    assert catalog.rational("r", (("add", catalog.EQ), ("scale", catalog.EQ))).ops == {
        "add": catalog.RATIONAL_OPS["add"].fn,
        "scale": catalog.RATIONAL_OPS["scale"].fn,
    }
