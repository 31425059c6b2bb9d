"""Every name the package exports or defines backs something in it.

A name that only ``__init__`` re-exports, and that no other module of the
package reads, is a wrapper that nothing needs; so is a public definition
that nothing in the package reads outside its own body.  The exceptions are
listed below, each with its reason.
"""

import ast
from pathlib import Path

import powdom

SRC = Path(powdom.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}

# paper constructs that only tests reach so far; each is to back a suite
# record, or to go
TEST_ONLY = {
    "non_integer_witness": "the non-integer mass obstruction of the probabilistic powerdomain",
    "functor_action": "the functor action, which agrees with the lifted unit after a map",
}

# public constructs that other modules reach through their defining module
# (a method, a table or a check there), never by name
IN_MODULE = {
    "kleisli_lift": "the Kleisli extension behind StateTransformer.lift_table",
    "hoare_powerdomain": "the angelic set powerdomain, reached through SET_POWERDOMAINS",
    "smyth_powerdomain": "the demonic set powerdomain, reached through SET_POWERDOMAINS",
    "SubFn": "the sublinear envelopes of the mixed powerdomain, reached through ENVELOPES",
    "SupFn": "the superlinear envelopes of the mixed powerdomain, reached through ENVELOPES",
    "supercommutes": "the oplax half of is_relaxed_entropic",
}


def _references(tree):
    """Names a module reads: bare names, and attributes of the package's own
    modules (``catalog.builtin_posets``)."""
    names = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in MODULES:
            names.add(sub.attr)
    return names


def _exports():
    """Each exported name with the module that defines it."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_export_has_a_caller_in_another_module():
    references = {
        path.stem: _references(ast.parse(path.read_text(encoding="utf-8")))
        for path in SRC.glob("*.py")
        if path.name != "__init__.py"
    }
    uncalled = {
        name
        for name, home in _exports().items()
        if not any(name in names for module, names in references.items() if module != home)
    }
    assert uncalled == set(TEST_ONLY) | set(IN_MODULE)


def test_the_exceptions_are_exported():
    assert set(TEST_ONLY) | set(IN_MODULE) <= set(_exports())


# public definitions that nothing in the package reads yet: the paper
# constructs kept to back suite records of their own
UNREAD = {
    "map_action": "End(A) acting on A, for the module axioms over the finite algebras",
    "functor_action": "the functor action, which agrees with the lifted unit after a map",
    "non_integer_witness": "the non-integer mass obstruction of the probabilistic powerdomain",
}


def test_every_definition_is_read_outside_itself():
    # each top-level statement of each module, with the names it reads; a
    # definition's own body (recursion, a class naming itself) does not count
    statements = [
        (stmt, _references(stmt))
        for path in SRC.glob("*.py")
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unread = {
        stmt.name
        for stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not any(stmt.name in names for other, names in statements if other is not stmt)
    }
    assert unread == set(UNREAD)
