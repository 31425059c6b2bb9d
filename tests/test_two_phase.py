"""Every grid-then-samples law takes its instances from ``sampling.two_phase``.

A function that loops ``for ... in range(trials)`` and yields builds its own
sampled phase, and with it its own order of the two phases.
"""

import ast
from pathlib import Path

import powdom

SRC = Path(powdom.__file__).parent


def _own_nodes(node):
    """The nodes under ``node``, without descending into nested functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _own_nodes(child)


def _over_trials(iterable):
    return (
        isinstance(iterable, ast.Call)
        and isinstance(iterable.func, ast.Name)
        and iterable.func.id == "range"
        and len(iterable.args) == 1
        and isinstance(iterable.args[0], ast.Name)
        and iterable.args[0].id == "trials"
    )


def _functions(node, prefix):
    """Each function under ``node`` with its dotted path, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def _sampling_loops(tree, module):
    """Paths of the functions that yield inside a ``range(trials)`` loop."""
    for name, fn in _functions(tree, module):
        loops = [n for n in _own_nodes(fn) if isinstance(n, ast.For) and _over_trials(n.iter)]
        if any(isinstance(n, (ast.Yield, ast.YieldFrom)) for loop in loops for n in _own_nodes(loop)):
            yield name


def test_only_two_phase_loops_over_trials():
    found = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in _sampling_loops(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert found == ["sampling.two_phase"]


def test_two_phase_yields_the_grid_then_the_draws():
    from powdom.sampling import two_phase

    draws = iter(range(10, 20))
    assert list(two_phase((1, 2), lambda: next(draws), 3)) == [1, 2, 10, 11, 12]
    assert list(two_phase((1, 2), None, 3)) == [1, 2]
    stream = two_phase((), lambda: next(draws), 5)
    assert next(stream) == 13
    assert next(draws) == 14  # nothing is drawn ahead of the walk
