"""Exact arithmetic on the extended nonnegative rationals Q+ extended by infinity.

Values are immutable and totally ordered with ``inf`` as the maximum.
Multiplication follows the measure-theoretic conventions ``0 * inf == 0``
and ``r * inf == inf`` for ``r > 0``.  All operations are exact; numerators
and denominators are arbitrary-precision.

The textual literal syntax is ``p/q`` for a reduced fraction, the integer
shorthand ``n``, and ``inf``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import PowdomError

_LITERAL = re.compile(r"^(?:inf|(\d+)(?:/(\d+))?)$")


class ExtNN:
    """A nonnegative rational or the distinguished top element infinity.

    A value is stored as a reduced pair of ints ``(n, d)``: ``gcd(n, d) == 1``
    and ``d >= 1`` for a rational ``n/d`` (zero is ``0/1``), and ``(1, 0)``
    for infinity.  Reduction follows ``Fraction``, so equal values have equal
    pairs, and ``a < b`` iff ``a.n * b.d < b.n * a.d`` holds with infinity
    included.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, value=0):
        if isinstance(value, ExtNN):
            self._n, self._d = value._n, value._d
            return
        if value is None:
            self._n, self._d = 1, 0  # infinity
            return
        frac = Fraction(value)
        if frac < 0:
            raise PowdomError(f"negative value {frac} is outside the carrier")
        self._n, self._d = frac.numerator, frac.denominator

    @classmethod
    def _wrap(cls, n, d):
        # internal: (n, d) is already a reduced pair as described above; skips
        # the conversion and sign check of the public constructor
        obj = object.__new__(cls)
        obj._n = n
        obj._d = d
        return obj

    @classmethod
    def parse(cls, text: str) -> "ExtNN":
        m = _LITERAL.match(text.strip())
        if not m:
            raise PowdomError(f"bad extended-rational literal {text!r}")
        if m.group(1) is None:
            return INF
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise PowdomError(f"zero denominator in literal {text!r}")
        return cls(Fraction(num, den))

    @property
    def is_infinite(self) -> bool:
        return self._d == 0

    @property
    def is_integer(self) -> bool:
        return self._d == 1

    def __add__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        ad, bd = self._d, other._d
        if ad == 0 or bd == 0:
            return INF
        n = self._n * bd + other._n * ad
        d = ad * bd
        g = gcd(n, d)
        return ExtNN._wrap(n // g, d // g)

    def __mul__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        an, ad, bn, bd = self._n, self._d, other._n, other._d
        if ad == 0:
            return ZERO if bn == 0 else INF
        if bd == 0:
            return ZERO if an == 0 else INF
        # cross-cancel as Fraction does, so the product is already reduced
        g1 = gcd(an, bd)
        g2 = gcd(bn, ad)
        return ExtNN._wrap((an // g1) * (bn // g2), (ad // g2) * (bd // g1))

    def __eq__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __lt__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        return self._n * other._d < other._n * self._d

    def __le__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        return self._n * other._d <= other._n * self._d

    def __gt__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        return self._n * other._d > other._n * self._d

    def __ge__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        return self._n * other._d >= other._n * self._d

    def __hash__(self):
        return hash((self._n, self._d))

    def __str__(self):
        if self._d == 0:
            return "inf"
        if self._d == 1:
            return str(self._n)
        return f"{self._n}/{self._d}"

    def __repr__(self):
        return f"ExtNN({self})"


ZERO = ExtNN._wrap(0, 1)
ONE = ExtNN._wrap(1, 1)
INF = ExtNN._wrap(1, 0)


def enn_sum(values) -> ExtNN:
    total = ZERO
    for v in values:
        total = total + v
    return total


def enn_dot(pairs) -> ExtNN:
    """The exact sum of ``a * b`` over the pairs, reduced once at the end.

    A term with a zero factor adds nothing, which keeps ``0 * inf == 0``;
    any other term with an infinite factor makes the sum infinite.
    """
    n, d = 0, 1
    for a, b in pairs:
        an, bn = a._n, b._n
        if an == 0 or bn == 0:
            continue
        ad, bd = a._d, b._d
        if ad == 0 or bd == 0:
            return INF
        td = ad * bd
        n = n * td + an * bn * d
        d *= td
    g = gcd(n, d)
    return ExtNN._wrap(n // g, d // g)
