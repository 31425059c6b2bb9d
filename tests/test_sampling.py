"""The seeded draw stream, pinned against plain replays.

No report digest can catch a changed draw on its own: a verdict that passes
at one stream passes at most others.  These tests replay each draw with the
``random.Random`` calls it stands for and compare values and rng states.
"""

import random
from fractions import Fraction

import pytest

from powdom import catalog
from powdom.extnum import INF, ExtNN
from powdom.poset import poset_from_cover
from powdom.sampling import random_extnn, random_monotone_values

SEEDS = [0, 7, 42]


def _replayed_extnn(rng):
    """One draw of ``random_extnn`` spelled with ``randrange``."""
    if rng.randrange(16) == 0:
        return INF
    num = rng.randrange(0, 25)
    den = rng.randrange(1, 13)
    return ExtNN(Fraction(num, den))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_extnn_leaves_the_rng_state_of_randrange(seed):
    rng, replay = random.Random(seed), random.Random(seed)
    for _ in range(2000):
        assert random_extnn(rng) == _replayed_extnn(replay)
    assert rng.getstate() == replay.getstate()


def _scanned_monotone_values(poset, rng):
    """The n^2 scan of the ``leq`` matrix: each raw value maximised over its down-set."""
    raw = [_replayed_extnn(rng) for _ in poset.labels]
    vals = []
    for i in range(poset.size):
        best = raw[i]
        for j in range(poset.size):
            if poset.leq[j][i] and best < raw[j]:
                best = raw[j]
        vals.append(best)
    return tuple(vals)


def _random_poset(rng, n):
    """A poset on n labels: random covers along a shuffled order of the labels."""
    labels = [f"e{i}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    covers = [
        (order[a], order[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.4
    ]
    return poset_from_cover(labels, covers)


def _posets():
    shapes = random.Random(2024)
    yield from catalog.builtin_posets().values()
    for n in range(1, 8):
        for _ in range(4):
            yield _random_poset(shapes, n)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_monotone_values_match_the_down_set_scan(seed):
    rng, replay = random.Random(seed), random.Random(seed)
    for poset in _posets():
        for _ in range(20):
            assert random_monotone_values(poset, rng) == _scanned_monotone_values(poset, replay)
    assert rng.getstate() == replay.getstate()


def test_strict_below_matches_the_order_and_is_computed_once():
    for poset in _posets():
        below = poset.strict_below()
        assert below == tuple(
            tuple(j for j in range(poset.size) if j != i and poset.leq[j][i])
            for i in range(poset.size)
        )
        assert poset.strict_below() is below
