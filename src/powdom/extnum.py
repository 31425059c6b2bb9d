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
from functools import total_ordering

from .errors import PowdomError

_LITERAL = re.compile(r"^(?:inf|(\d+)(?:/(\d+))?)$")


@total_ordering
class ExtNN:
    """A nonnegative rational or the distinguished top element infinity."""

    __slots__ = ("_frac",)

    def __init__(self, value=0):
        if isinstance(value, ExtNN):
            self._frac = value._frac
            return
        if value is None:
            self._frac = None  # infinity
            return
        frac = Fraction(value)
        if frac < 0:
            raise PowdomError(f"negative value {frac} is outside the carrier")
        self._frac = frac

    @classmethod
    def _wrap(cls, frac):
        # internal: frac is a known-nonnegative Fraction (or None); skips
        # the conversion and sign check of the public constructor
        obj = object.__new__(cls)
        obj._frac = frac
        return obj

    @classmethod
    def infinity(cls) -> "ExtNN":
        return INF

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
        return self._frac is None

    @property
    def is_integer(self) -> bool:
        return self._frac is not None and self._frac.denominator == 1

    @property
    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise PowdomError("infinity has no fraction form")
        return self._frac

    def __add__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        if self._frac is None or other._frac is None:
            return INF
        return ExtNN._wrap(self._frac + other._frac)

    def __mul__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        if self._frac is None:
            return ZERO if other._frac == 0 else INF
        if other._frac is None:
            return ZERO if self._frac == 0 else INF
        return ExtNN._wrap(self._frac * other._frac)

    def __eq__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        return self._frac == other._frac

    def __lt__(self, other):
        if not isinstance(other, ExtNN):
            return NotImplemented
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

    def __hash__(self):
        return hash(("ExtNN", self._frac))

    def __str__(self):
        if self._frac is None:
            return "inf"
        if self._frac.denominator == 1:
            return str(self._frac.numerator)
        return f"{self._frac.numerator}/{self._frac.denominator}"

    def __repr__(self):
        return f"ExtNN({self})"


ZERO = ExtNN(0)
ONE = ExtNN(1)
INF = ExtNN(None)


def enn_mul(a: ExtNN, b: ExtNN) -> ExtNN:
    return a * b


def enn_max(a: ExtNN, b: ExtNN) -> ExtNN:
    return a if b < a else b


def enn_min(a: ExtNN, b: ExtNN) -> ExtNN:
    return b if b < a else a


def enn_sum(values) -> ExtNN:
    total = ZERO
    for v in values:
        total = total + v
    return total
