"""Deterministic sampling used by the law checkers on the infinite carrier.

Universally quantified laws over the extended rationals cannot be checked
exhaustively; verdicts there are "counterexample-free at seed s".  A check
runs in two phases, exhaustively over a small fixed grid and then over
seeded random tuples, and ``two_phase`` is the one place that orders them.
Per-task seeds are derived from the run seed and the task label so that
independent checks draw independent but reproducible streams.

Draws replay CPython's ``randrange`` bit rule through ``getrandbits``, so
values and rng states are those of the ``randrange`` calls they stand for.
No report digest can catch a changed draw (a law that holds at one stream
holds at most others), so ``tests/test_sampling.py`` pins the stream.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from .extnum import ExtNN, INF

# grid used by the two-phase law checks on the extended rationals
LAW_GRID = (
    ExtNN(0),
    ExtNN(Fraction(1, 3)),
    ExtNN(Fraction(1, 2)),
    ExtNN(1),
    ExtNN(2),
    ExtNN(7),
    INF,
)

# modes recorded on every check: exhaustive over a finite carrier, or the
# two-phase grid-then-seeded-samples check on the extended rationals
EXHAUSTIVE = "exhaustive"
SAMPLED = "grid+samples"

DEFAULT_SEED = 42
DEFAULT_TRIALS = 10_000
DEFAULT_SIZE_GUARD = 5_000_000


def derive_seed(seed: int, label: str) -> int:
    """Stable per-task seed; independent of PYTHONHASHSEED."""
    return (seed * 0x9E3779B1 + zlib.crc32(label.encode("utf-8"))) % (1 << 63)


def task_rng(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))


def two_phase(grid, draw, trials):
    """The instances of ``grid``, then ``trials`` draws (none if ``draw`` is None)."""
    yield from grid
    if draw is not None:
        for _ in range(trials):
            yield draw()


# the finite draws: num/den for num in [0, 25) and den in [1, 13) is _FINITE[num][den - 1]
_FINITE = tuple(tuple(ExtNN(Fraction(n, d)) for d in range(1, 13)) for n in range(25))


def random_extnn(rng: random.Random) -> ExtNN:
    """A varied stream of small exact values; infinity with probability 1/16.

    It draws ``randrange(16)``, then (unless that was 0) ``randrange(0, 25)``
    and ``randrange(1, 13)``, each by CPython's ``_randbelow_with_getrandbits``
    rule: ``k = n.bit_length()`` bits, drawn again while the result is >= n.
    """
    bits = rng.getrandbits
    r = bits(5)
    while r >= 16:
        r = bits(5)
    if r == 0:
        return INF
    num = bits(5)
    while num >= 25:
        num = bits(5)
    den = bits(4)
    while den >= 12:
        den = bits(4)
    return _FINITE[num][den]


def random_monotone_values(poset, rng: random.Random):
    """Monotone assignment of extended rationals to a finite poset.

    Raw values are maximised over down-sets, which forces monotonicity
    whatever the raw draw was.
    """
    raw = [random_extnn(rng) for _ in poset.labels]
    vals = []
    for best, below in zip(raw, poset.strict_below()):
        for j in below:
            if best < raw[j]:
                best = raw[j]
        vals.append(best)
    return tuple(vals)
