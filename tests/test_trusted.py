"""Derived objects built on the trusted path would pass the full validators.

``poset._trusted`` builds lifted algebras, exponentials with their order and
maps, and predicates that are monotone by construction, without their
checks.  Here every such object is run through the checks it skipped, its
order against the pointwise scan it replaced, and its lifted tables against
the per-entry formula; and an AST guard keeps the trusted constructor at the
derived-object sites, so that input from outside is still validated.
"""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import powdom
from powdom import catalog
from powdom.algebra import lift_pointwise
from powdom.defs import Workspace
from powdom.extnum import ExtNN
from powdom.funcspace import MonoMap
from powdom.poset import FinPoset, all_up_sets, poset_from_cover
from powdom.powerdomain import Predicate, chi, constant_predicate, random_predicate
from powdom.sampling import task_rng

SRC = Path(powdom.__file__).parent
POSETS = catalog.builtin_posets()
ALGS = catalog.builtin_algebras()
TWO_VALUED = ("2_ang", "2_dem", "frame2", "lattice2")


def _assert_expo_checks(expo):
    """The order, the poset and every map of an exponential, each against the
    check or the scan it skipped."""
    tables = [m.table for m in expo.maps]
    leq = expo.target.leq
    assert expo.poset.up == tuple(
        sum(all(leq(x, y) for x, y in zip(a, b)) << j for j, b in enumerate(tables)) for a in tables
    )
    checked = FinPoset(expo.poset.labels, expo.poset.up)
    assert checked == expo.poset
    assert checked.up == expo.poset.up
    assert checked.covers() == expo.poset.covers()
    assert checked.strict_below() == expo.poset.strict_below()
    for m in expo.maps:
        assert MonoMap(m.source, m.target, m.table) == m


def _zip_tables(algebra, expo):
    """The lifted tables by the per-entry formula: the base table read on the
    zipped argument tables, then looked up in the exponential."""
    rows = [m.table for m in expo.maps]
    tables = {}
    for op in algebra.signature.ops:
        base_table = algebra.tables[op.symbol]
        table = {}
        for args in itertools.product(range(len(rows)), repeat=op.arity):
            points = zip(*[rows[a] for a in args]) if args else [()] * expo.source.size
            table[args] = expo.index(tuple(map(base_table.__getitem__, points)))
        tables[op.symbol] = table
    return tables


def _assert_lift_checks(algebra, lifted):
    lifted._validate()
    assert lifted.tables == _zip_tables(algebra, lifted.expo)
    _assert_expo_checks(lifted.expo)


def _assert_double_lift_checks(algebra, poset):
    """The predicates [X -> R] and the functionals [[X -> R] -> R], as a
    functional space builds them; each lift is checked before the next is
    taken over it, so a wrong order fails here instead of reaching a walk."""
    preds = lift_pointwise(algebra, poset)
    _assert_lift_checks(algebra, preds)
    _assert_lift_checks(algebra, lift_pointwise(algebra, preds.carrier))


# every catalog poset's double exponentials fit the default size guard
@pytest.mark.parametrize("aname", TWO_VALUED)
@pytest.mark.parametrize("pname", sorted(POSETS))
def test_catalog_double_exponentials_pass_the_full_checks(pname, aname):
    _assert_double_lift_checks(ALGS[aname], POSETS[pname])


LABELS = ("x0", "x1", "x2")


def _table(symbol, arity, fn):
    entries = "; ".join(
        f"({','.join(LABELS[a] for a in args)})->{LABELS[fn(*args)]}"
        for args in itertools.product(range(3), repeat=arity)
    )
    return f"table {symbol} {{ {entries} }}\n"


# a unary, a ternary and a nullary op on the three-element chain
MEDIAN_TEXT = (
    "algebra medup on chain3\n"
    "op up arity 1 tag EQ\n"
    "op med arity 3 tag LE\n"
    "op bot arity 0 tag GE\n"
    + _table("up", 1, lambda a: min(a + 1, 2))
    + _table("med", 3, lambda a, b, c: sorted((a, b, c))[1])
    + _table("bot", 0, lambda: 0)
    + "end\n"
)


@pytest.mark.parametrize("pname", ["one", "C2", "A2", "vee"])
def test_unary_and_ternary_ops_from_a_definition_file(pname):
    ws = Workspace()
    ws.load_text("median.defs", MEDIAN_TEXT)
    algebra = ws.algebra("medup")
    assert sorted(op.arity for op in algebra.signature.ops) == [0, 1, 3]
    _assert_lift_checks(algebra, lift_pointwise(algebra, POSETS[pname]))


def test_lift_over_the_empty_poset():
    empty = FinPoset((), ())
    for aname in TWO_VALUED:
        lifted = lift_pointwise(ALGS[aname], empty)
        assert len(lifted.expo) == 1
        _assert_lift_checks(ALGS[aname], lifted)


@st.composite
def small_posets(draw):
    """A poset on at most 4 elements: a random strict upper-triangular
    relation, closed transitively, with its elements listed in a random order."""
    n = draw(st.integers(0, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = [p for p in pairs if draw(st.booleans())]
    order = draw(st.permutations(range(n)))
    labels = [f"e{i}" for i in order]
    return poset_from_cover(labels, [(f"e{i}", f"e{j}") for i, j in covers])


@settings(max_examples=25, deadline=None)
@given(small_posets(), st.sampled_from(TWO_VALUED))
def test_random_posets_pass_the_full_checks(poset, aname):
    _assert_double_lift_checks(ALGS[aname], poset)


@pytest.mark.parametrize("pname", sorted(POSETS))
def test_trusted_predicates_pass_the_cover_check(pname):
    poset = POSETS[pname]
    rng = task_rng(7, f"trusted:{pname}")
    preds = [chi(u) for u in all_up_sets(poset)]
    preds += [constant_predicate(poset, ExtNN(v)) for v in (0, 2, None)]
    preds += [random_predicate(poset, rng) for _ in range(50)]
    for f in preds:
        assert Predicate(f.poset, f.values) == f


# ---------------------------------------------------------------------------
# the trusted constructor stays at the derived-object sites

TRUSTED_SITES = {
    ("funcspace", "ExpPoset.__init__"),
    ("funcspace", "enumerate_monotone"),
    ("algebra", "lift_pointwise"),
    ("catalog", "rational"),
    ("powerdomain", "constant_predicate"),
    ("powerdomain", "chi"),
    ("powerdomain", "random_predicate"),
}


def _trusted_calls(tree, module):
    """``(module, enclosing def)`` of every call of ``_trusted``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "_trusted":
                    found.append((module, scope))
            visit(child, inner)

    visit(tree, "")
    return found


def test_the_trusted_path_is_taken_only_by_derived_objects():
    calls = [
        site
        for path in sorted(SRC.glob("*.py"))
        for site in _trusted_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert set(calls) == TRUSTED_SITES


def test_the_guard_sees_bare_and_module_calls():
    text = "def parse():\n    return _trusted(FinPoset)\nclass W:\n    def f(self):\n        poset._trusted(FinPoset)\n"
    assert _trusted_calls(ast.parse(text), "defs") == [("defs", "parse"), ("defs", "W.f")]
