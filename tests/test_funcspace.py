import itertools
import tracemalloc

import pytest

from powdom import catalog
from powdom.errors import NotMonotone, SizeGuardExceeded, TypeMismatch
from powdom.funcspace import (
    MonoMap,
    compose,
    enumerate_monotone,
    identity_map,
    precompose,
)
from powdom.poset import is_order_iso, poset_from_cover, product_poset

POSETS = catalog.builtin_posets()
TWO = catalog.TWO


def brute_count(source, target):
    """Oracle: filter all |Y|^|X| total maps for monotonicity."""
    count = 0
    for table in itertools.product(range(target.size), repeat=source.size):
        if all(
            target.leq(table[i], table[j])
            for i in range(source.size)
            for j in range(source.size)
            if source.leq(i, j)
        ):
            count += 1
    return count


class TestEnumeration:
    def test_chain_to_chain(self):
        c2 = POSETS["C2"]
        expo = enumerate_monotone(c2, c2)
        assert [m.table for m in expo.maps] == [(0, 0), (0, 1), (1, 1)]
        # the three maps form a chain
        assert all(
            expo.poset.leq(i, j) == (i <= j) for i in range(3) for j in range(3)
        )

    def test_antichain_to_chain(self):
        a2 = POSETS["A2"]
        expo = enumerate_monotone(a2, TWO)
        assert len(expo) == 4
        grid = product_poset(TWO, TWO)
        assert is_order_iso(expo.poset, grid, list(range(4)))

    def test_into_singleton(self):
        expo = enumerate_monotone(POSETS["crown4"], POSETS["one"])
        assert len(expo) == 1

    @pytest.mark.parametrize("name", sorted(POSETS))
    @pytest.mark.parametrize("target", ["C2", "chain3"])
    def test_count_matches_bruteforce(self, name, target):
        source = POSETS[name]
        tgt = POSETS[target]
        assert len(enumerate_monotone(source, tgt)) == brute_count(source, tgt)

    def test_exponential_is_valid_poset(self):
        # FinPoset validates reflexivity/transitivity/antisymmetry on build
        expo = enumerate_monotone(POSETS["vee"], TWO)
        assert expo.poset.size == len(expo)

    def test_size_guard(self):
        # the a priori bound |Y|^|X| = 4^4, before any map is built
        with pytest.raises(SizeGuardExceeded) as err:
            enumerate_monotone(POSETS["crown4"], POSETS["crown4"], size_guard=10)
        assert (err.value.needed, err.value.guard) == (256, 10)
        assert str(err.value) == "enumeration of 256 items exceeds size guard 10"

    def test_index_lookup(self):
        expo = enumerate_monotone(POSETS["C2"], TWO)
        for i, m in enumerate(expo.maps):
            assert expo.index(m) == i
        with pytest.raises(TypeMismatch):
            expo.index((1, 0))  # not monotone, not in the exponential


class TestComposition:
    def test_identity_laws(self):
        c2 = POSETS["C2"]
        for m in enumerate_monotone(c2, c2).maps:
            assert compose(identity_map(c2), m).table == m.table
            assert compose(m, identity_map(c2)).table == m.table

    def test_constant_absorption(self):
        c2, chain3 = POSETS["C2"], POSETS["chain3"]
        const = MonoMap(c2, chain3, (1,) * c2.size)
        for v in enumerate_monotone(chain3, TWO).maps:
            assert compose(const, v).table == (v.table[1],) * c2.size

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            compose(identity_map(POSETS["C2"]), identity_map(POSETS["A2"]))

    def test_not_monotone_rejected(self):
        c2 = POSETS["C2"]
        with pytest.raises(NotMonotone):
            MonoMap(c2, c2, (1, 0))


class TestMonoMapDiagnostics:
    """The checks run in a fixed order: length, then range, then monotonicity
    on cover pairs; each raises its own message."""

    def test_length_mismatch(self):
        c2 = POSETS["C2"]
        with pytest.raises(TypeMismatch, match="^table length does not match source size$"):
            MonoMap(c2, c2, (0,))
        with pytest.raises(TypeMismatch, match="^table length does not match source size$"):
            MonoMap(c2, c2, (0, 1, 1))

    def test_negative_entry(self):
        c2 = POSETS["C2"]
        with pytest.raises(TypeMismatch, match="^table entry out of target range$"):
            MonoMap(c2, c2, (-1, 1))

    def test_entry_equal_to_target_size(self):
        c2 = POSETS["C2"]
        with pytest.raises(TypeMismatch, match="^table entry out of target range$"):
            MonoMap(c2, c2, (0, c2.size))

    def test_range_error_before_monotonicity(self):
        # (1, 0, 2) breaks monotonicity on the cover a <= b and has 2 outside
        # the two-element target; the range check runs first
        chain3 = POSETS["chain3"]
        with pytest.raises(TypeMismatch, match="^table entry out of target range$"):
            MonoMap(chain3, TWO, (1, 0, 2))
        with pytest.raises(NotMonotone, match="^table violates monotonicity on "):
            MonoMap(chain3, TWO, (1, 0, 1))

    def test_length_error_before_range(self):
        c2 = POSETS["C2"]
        with pytest.raises(TypeMismatch, match="^table length does not match source size$"):
            MonoMap(c2, c2, (5,))


class TestPrecompose:
    def test_identity(self):
        c2 = POSETS["C2"]
        g = MonoMap(c2, TWO, (0, 1))
        assert precompose(identity_map(c2), g).table == g.table

    def test_constant_predicate(self):
        a2, c2 = POSETS["A2"], POSETS["C2"]
        u = MonoMap(a2, c2, (0, 1))
        g = MonoMap(c2, TWO, (1,) * c2.size)
        assert precompose(u, g).table == (1, 1)

    def test_table_composition(self):
        # u maps a to bot and b to top; pulling back the identity predicate
        # reads off u's table
        a2, c2 = POSETS["A2"], POSETS["C2"]
        u = MonoMap(a2, c2, (0, 1))
        g = MonoMap(c2, TWO, (0, 1))
        assert precompose(u, g).table == (0, 1)

    def test_functorial(self):
        x, y, z = POSETS["C2"], POSETS["A2"], POSETS["chain3"]
        for u in enumerate_monotone(x, y).maps:
            for v in enumerate_monotone(y, z).maps:
                for g in enumerate_monotone(z, TWO).maps:
                    assert (
                        precompose(compose(u, v), g).table
                        == precompose(u, precompose(v, g)).table
                    )


def test_pointwise_order_definition():
    a2 = POSETS["A2"]
    expo = enumerate_monotone(a2, TWO)
    for a in expo.maps:
        for b in expo.maps:
            pointwise = all(
                TWO.leq(a.table[i], b.table[i]) for i in range(a2.size)
            )
            assert a.leq(b) == pointwise


def test_dedekind_m5_at_the_enumerator_within_a_memory_budget():
    # the monotone maps [A5 -> 2] -> 2 are counted by M(5) = 7,581
    # (https://oeis.org/A000372); their order is 7,581 up rows, where a
    # boolean matrix would hold 57 M entries
    preds = enumerate_monotone(poset_from_cover(tuple("abcde"), ()), TWO)
    tracemalloc.start()
    try:
        funcs = enumerate_monotone(preds.poset, TWO, 2**32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(funcs) == 7581
    # the constant 0 comes first and lies below every map
    assert funcs.poset.up[0] == (1 << 7581) - 1
    assert peak < 64 * 2**20
