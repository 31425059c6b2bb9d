import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from powdom.errors import PowdomError
from powdom.catalog import RATIONAL_OPS
from powdom.extnum import INF, ONE, ZERO, ExtNN, enn_dot, enn_sum
from powdom.sampling import random_extnn

_values = st.one_of(
    st.just(INF),
    st.fractions(min_value=0, max_value=50).map(ExtNN),
    st.integers(min_value=0, max_value=20).map(ExtNN),
)


class TestArithmetic:
    def test_add_exact(self):
        # oracle: plain fraction arithmetic
        assert Fraction(1, 2) + Fraction(2, 3) == Fraction(7, 6)
        assert ExtNN(Fraction(1, 2)) + ExtNN(Fraction(2, 3)) == ExtNN(Fraction(7, 6))

    def test_add_unit(self):
        a = ExtNN(Fraction(5, 7))
        assert a + ZERO == a

    def test_add_infinity_absorbs(self):
        assert ExtNN(3) + INF == INF
        assert INF + ExtNN(3) == INF

    def test_mul_zero_times_infinity(self):
        assert ZERO * INF == ZERO
        assert INF * ZERO == ZERO

    def test_mul_positive_times_infinity(self):
        assert ExtNN(Fraction(1, 5)) * INF == INF

    def test_mul_unit(self):
        a = ExtNN(Fraction(9, 4))
        assert ONE * a == a

    def test_mul_exact(self):
        assert Fraction(2, 3) * Fraction(3, 4) == Fraction(1, 2)
        assert ExtNN(Fraction(2, 3)) * ExtNN(Fraction(3, 4)) == ExtNN(Fraction(1, 2))


# the catalog's realisations of max and min, on the argument tuple
MAX, MIN = RATIONAL_OPS["max"].fn, RATIONAL_OPS["min"].fn


class TestOrder:
    def test_max_by_cross_products(self):
        # oracle: p/q >= r/s iff p*s >= r*q for positive denominators
        assert 1 * 3 >= 1 * 2
        assert MAX((ExtNN(Fraction(1, 2)), ExtNN(Fraction(1, 3)))) == ExtNN(Fraction(1, 2))

    def test_min_by_cross_products(self):
        assert MIN((ExtNN(Fraction(1, 2)), ExtNN(Fraction(1, 3)))) == ExtNN(Fraction(1, 3))

    def test_idempotent(self):
        a = ExtNN(Fraction(4, 9))
        assert MAX((a, a)) == a
        assert MIN((a, a)) == a

    def test_infinity_is_top(self):
        assert MAX((INF, ExtNN(7))) == INF
        assert INF > ExtNN(10**9)

    def test_zero_is_bottom(self):
        assert MIN((ZERO, ExtNN(Fraction(1, 100)))) == ZERO

    @given(_values, _values)
    def test_total_order(self, a, b):
        assert a <= b or b <= a
        hi, lo = (b, a) if a <= b else (a, b)
        assert MAX((a, b)) == MAX((b, a)) == hi
        assert MIN((a, b)) == MIN((b, a)) == lo


class TestMonoidLaws:
    @given(_values, _values, _values)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(_values, _values)
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(_values, _values, _values)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(_values, _values, _values)
    def test_monotone(self, a, b, c):
        lo, hi = (b, c) if b <= c else (c, b)
        assert a + lo <= a + hi
        assert a * lo <= a * hi
        assert lo * a <= hi * a


class TestLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2", ExtNN(Fraction(1, 2))),
            ("7", ExtNN(7)),
            ("inf", INF),
            ("6/4", ExtNN(Fraction(3, 2))),
        ],
    )
    def test_parse(self, text, value):
        assert ExtNN.parse(text) == value

    @pytest.mark.parametrize("value,text", [(ExtNN(Fraction(3, 2)), "3/2"), (ExtNN(5), "5"), (INF, "inf")])
    def test_format(self, value, text):
        assert str(value) == text

    def test_roundtrip(self):
        for text in ("0", "1/3", "17/5", "inf"):
            assert str(ExtNN.parse(text)) == text

    @pytest.mark.parametrize("bad", ["-1", "1/-2", "a", "1/0", "1.5", ""])
    def test_rejects(self, bad):
        with pytest.raises(PowdomError):
            ExtNN.parse(bad)

    def test_negative_rejected(self):
        with pytest.raises(PowdomError):
            ExtNN(Fraction(-1, 2))


def test_sum_helper():
    vals = [ExtNN(Fraction(1, 2)), ExtNN(Fraction(1, 3)), ExtNN(Fraction(1, 6))]
    assert enn_sum(vals) == ONE
    assert enn_sum([]) == ZERO


# oracle for the int-pair representation: fractions.Fraction, with None
# standing for infinity under the conventions 0 * inf = 0 and inf on top
_BIG = 10**30
_fracs = st.one_of(
    st.builds(Fraction, st.integers(0, _BIG), st.integers(1, _BIG)),
    st.builds(Fraction, st.integers(0, 40), st.integers(1, 12)),
    st.integers(0, _BIG).map(Fraction),
)
_oracle_values = st.one_of(st.none(), _fracs)


def _ext(f):
    return INF if f is None else ExtNN(f)


def _oracle_add(a, b):
    return None if a is None or b is None else a + b


def _oracle_mul(a, b):
    if a is None or b is None:
        other = b if a is None else a
        return Fraction(0) if other == 0 else None
    return a * b


def _oracle_key(a):
    # infinity sorts above every rational
    return (1, 0) if a is None else (0, a)


def _oracle_str(a):
    if a is None:
        return "inf"
    return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


class TestFractionOracle:
    @given(_oracle_values, _oracle_values)
    def test_arithmetic_matches(self, a, b):
        assert _ext(a) + _ext(b) == _ext(_oracle_add(a, b))
        assert _ext(a) * _ext(b) == _ext(_oracle_mul(a, b))
        assert str(_ext(a) + _ext(b)) == _oracle_str(_oracle_add(a, b))
        assert str(_ext(a) * _ext(b)) == _oracle_str(_oracle_mul(a, b))

    @given(_oracle_values, _oracle_values)
    @pytest.mark.parametrize(
        "op", [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]
    )
    def test_comparisons_match(self, op, a, b):
        assert op(_ext(a), _ext(b)) == op(_oracle_key(a), _oracle_key(b))

    @given(_oracle_values)
    def test_str_and_parse_roundtrip(self, a):
        x = _ext(a)
        assert str(x) == _oracle_str(a)
        assert ExtNN.parse(str(x)) == x
        assert x.is_infinite == (a is None)
        assert x.is_integer == (a is not None and a.denominator == 1)

    @given(st.integers(0, _BIG), st.integers(1, _BIG), st.integers(1, 1000))
    def test_equal_values_hash_equal(self, n, d, k):
        # the same value reached unreduced, through the constructor and
        # through arithmetic
        x = ExtNN(Fraction(n * k, d * k))
        y = ExtNN(Fraction(n, d)) * ONE + ZERO
        assert x == y
        assert hash(x) == hash(y)
        assert hash(INF) == hash(ExtNN(None)) == hash(INF * ExtNN(Fraction(1, d)))

    def test_zero_times_infinity(self):
        assert ZERO * INF == ZERO
        assert INF * ZERO == ZERO
        assert INF * INF == INF
        assert INF + ZERO == INF
        assert str(ZERO * INF) == "0"

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_extnn_matches_fraction_built_values(self, seed):
        # the same draws, replayed through the public constructor
        rng, replay = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            got = random_extnn(rng)
            if replay.randrange(16) == 0:
                assert got == INF
                continue
            num = replay.randrange(0, 25)
            den = replay.randrange(1, 13)
            want = ExtNN(Fraction(num, den))
            assert got == want
            assert str(got) == str(want)
            assert hash(got) == hash(want)


class TestDot:
    def test_empty_sum_is_zero(self):
        assert enn_dot([]) == ZERO

    def test_zero_times_inf_adds_nothing(self):
        half = ExtNN(Fraction(1, 2))
        assert enn_dot([(ZERO, INF), (INF, ZERO), (half, ONE)]) == half

    def test_positive_term_with_an_infinite_factor(self):
        assert enn_dot([(ONE, ONE), (ExtNN(Fraction(1, 3)), INF)]) == INF
        assert enn_dot([(INF, ExtNN(2))]) == INF

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_matches_the_termwise_sum(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            pairs = [
                (random_extnn(rng), random_extnn(rng))
                for _ in range(rng.randrange(0, 6))
            ]
            got = enn_dot(pairs)
            want = enn_sum(a * b for a, b in pairs)
            assert (got._n, got._d) == (want._n, want._d)

