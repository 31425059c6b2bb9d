"""Every law walker applies an op through the callable that ``resolve`` returns.

``resolve(symbol, param)`` is the one application path of an algebra: it
refuses an unknown symbol or a family without its parameter once, and the
callable it returns does no checking of its own.  A second path (an
``apply`` method, or an ``eq`` beside ``==``) would bring the per-call checks
back.
"""

import ast
import functools
from pathlib import Path

import pytest

import powdom
from powdom import catalog
from powdom.algebra import RatAlgebra, Signature
from powdom.errors import ArityMismatch, UnknownOp
from powdom.extnum import ExtNN
from powdom.powerdomain import PredAlgebra, Predicate, ValuationAlgebra, catalog_valuations

SRC = Path(powdom.__file__).parent
SECOND_PATHS = {"apply", "eq"}


def _second_paths(tree, module):
    """Calls of ``x.apply(..)`` or ``x.eq(..)``, and classes defining either."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SECOND_PATHS
        ):
            yield f"{module}:{node.lineno}: call of .{node.func.attr}("
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name in SECOND_PATHS:
                    yield f"{module}:{stmt.lineno}: {node.name}.{stmt.name} defined"


def test_no_module_applies_or_compares_through_a_second_path():
    found = [
        hit
        for path in sorted(SRC.glob("*.py"))
        for hit in _second_paths(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert found == []


def test_the_guard_sees_both_paths():
    tree = ast.parse("class A:\n    def eq(self, a, b):\n        return a.apply('x', ())\n")
    assert list(_second_paths(tree, "m")) == ["m:2: A.eq defined", "m:3: call of .apply("]


ALGS = catalog.builtin_algebras()
C2 = catalog.builtin_posets()["C2"]


def _kinds():
    """One algebra of each kind the walkers read, by name."""
    return {
        "finite": ALGS["2_ang"],
        "rational": ALGS["rplus_cone"],
        "predicates": PredAlgebra(ALGS["rplus_cone"], C2),
        "valuations": ValuationAlgebra(C2, tuple(catalog_valuations(C2)[:2])),
    }


@pytest.mark.parametrize("kind", ["finite", "rational", "predicates", "valuations"])
def test_resolve_refuses_an_unknown_symbol(kind):
    with pytest.raises(UnknownOp):
        _kinds()[kind].resolve("nope")


@pytest.mark.parametrize("kind", ["rational", "predicates"])
def test_resolve_refuses_a_family_without_its_parameter(kind):
    with pytest.raises(ArityMismatch, match="operation family scale needs a parameter"):
        _kinds()[kind].resolve("scale")


@pytest.mark.parametrize("name", [n for n, a in ALGS.items() if isinstance(a, RatAlgebra)])
def test_resolve_hands_out_the_catalog_realisation_itself(name):
    algebra, r = ALGS[name], ExtNN.parse("2/3")
    for op in algebra.signature.ops:
        fn = catalog.RATIONAL_OPS[op.symbol].fn
        if not op.parametric:
            assert algebra.resolve(op.symbol) is fn
            continue
        at_r = algebra.resolve(op.symbol, r)
        assert isinstance(at_r, functools.partial)
        assert at_r.func is fn and at_r.args == (r,) and not at_r.keywords
        with pytest.raises(ArityMismatch):
            algebra.resolve(op.symbol)


@pytest.mark.parametrize("kind", ["finite", "rational", "predicates", "valuations"])
def test_a_resolved_op_reads_no_signature(kind, monkeypatch):
    algebra = _kinds()[kind]
    op = algebra.signature.ops[0]
    fn = algebra.resolve(op.symbol, ExtNN(3) if op.parametric else None)
    args = next(iter(algebra.grid_tuples(op.arity)))

    def refuse(self, symbol):
        raise AssertionError(f"spec({symbol!r}) read at an application")

    monkeypatch.setattr(Signature, "spec", refuse)
    assert fn(args) is not None


def test_lifted_application_resolves_the_base_op_once(monkeypatch):
    poset = catalog.builtin_posets()["grid2"]
    assert poset.size == 4
    preds = PredAlgebra(ALGS["rplus_cone"], poset)
    resolved = []
    real_resolve = RatAlgebra.resolve

    def counting(self, symbol, param=None):
        resolved.append((symbol, param))
        return real_resolve(self, symbol, param)

    monkeypatch.setattr(RatAlgebra, "resolve", counting)
    f, g = preds.chis[1], preds.chis[-1]
    total = preds.resolve("add")((f, g))
    assert total == Predicate(poset, tuple(a + b for a, b in zip(f.values, g.values)))
    assert resolved == [("add", None)]
    assert preds.resolve("scale", ExtNN(2))((f,)).values == tuple(ExtNN(2) * v for v in f.values)
    assert resolved == [("add", None), ("scale", ExtNN(2))]
