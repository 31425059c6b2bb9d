import ast
import itertools
import signal
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import powdom
from powdom import catalog
from powdom.errors import (
    CycleDetected,
    DuplicateLabel,
    InvalidOrder,
    SizeGuardExceeded,
    UnknownLabel,
)
from powdom.funcspace import enumerate_monotone
from powdom.monad import functional_space
from powdom.poset import (
    TWO,
    TWO_OP,
    FinPoset,
    _trusted,
    all_down_sets,
    all_up_sets,
    is_order_iso,
    monotone_tables,
    poset_from_cover,
    product_poset,
    set_inclusion_poset,
    sub_poset,
)

POSETS = catalog.builtin_posets()


def label_leq(poset, a, b):
    """Is the element labelled ``a`` below the one labelled ``b``?"""
    return poset.leq(poset.index(a), poset.index(b))


def rows_to_masks(leq):
    """A boolean <= matrix as up rows: bit j of row i for leq[i][j]."""
    return tuple(sum(bool(v) << j for j, v in enumerate(row)) for row in leq)


def brute_up_sets(poset):
    """Independent oracle: filter all subsets for up-closure."""
    out = []
    for mask in range(1 << poset.size):
        ok = True
        for i in range(poset.size):
            if mask >> i & 1:
                for j in range(poset.size):
                    if poset.leq(i, j) and not mask >> j & 1:
                        ok = False
        if ok:
            out.append(mask)
    return out


class TestConstruction:
    def test_two_chain(self):
        c2 = poset_from_cover(["bot", "top"], [("bot", "top")])
        assert label_leq(c2, "bot", "top")
        assert not label_leq(c2, "top", "bot")

    def test_antichain(self):
        a2 = poset_from_cover(["a", "b"], [])
        assert not label_leq(a2, "a", "b")
        assert not label_leq(a2, "b", "a")

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            poset_from_cover(["a", "b"], [("a", "b"), ("b", "a")])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            poset_from_cover(["a", "a"], [])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            poset_from_cover(["a", "b"], [("a", "c")])

    def test_transitive_closure(self):
        c3 = poset_from_cover(["x", "y", "z"], [("x", "y"), ("y", "z")])
        assert label_leq(c3, "x", "z")


class TestUpDownSets:
    def test_two_chain_up_sets(self):
        c2 = POSETS["C2"]
        ups = all_up_sets(c2)
        assert [u.member_labels() for u in ups] == [(), ("top",), ("bot", "top")]

    def test_antichain_all_subsets(self):
        a2 = POSETS["A2"]
        assert len(all_up_sets(a2)) == 4
        assert len(all_down_sets(a2)) == 4

    def test_singleton(self):
        one = POSETS["one"]
        assert len(all_up_sets(one)) == 2

    def test_two_chain_down_sets_are_complements(self):
        c2 = POSETS["C2"]
        downs = all_down_sets(c2)
        assert [d.member_labels() for d in downs] == [(), ("bot",), ("bot", "top")]
        ups = {u.mask for u in all_up_sets(c2)}
        assert {d.complement().mask for d in downs} == ups

    def test_chain_down_set_count(self):
        # an n-chain has n+1 down-sets
        assert len(all_down_sets(POSETS["chain3"])) == 4

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_matches_bruteforce(self, name):
        poset = POSETS[name]
        assert [u.mask for u in all_up_sets(poset)] == brute_up_sets(poset)

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_duality(self, name):
        poset = POSETS[name]
        ups = all_up_sets(poset)
        downs = all_down_sets(poset)
        assert len(ups) == len(downs)
        assert sorted(u.complement().mask for u in ups) == sorted(d.mask for d in downs)

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_opens_closed_under_union_intersection(self, name):
        poset = POSETS[name]
        masks = {u.mask for u in all_up_sets(poset)}
        for a, b in itertools.product(masks, repeat=2):
            assert a | b in masks
            assert a & b in masks

    def test_size_guard(self):
        # the a priori bound 2^n, the count and message of the subset filter
        big = poset_from_cover([f"e{i}" for i in range(30)], [])
        for sets in (all_up_sets, all_down_sets):
            with pytest.raises(SizeGuardExceeded) as err:
                sets(big, size_guard=1000)
            assert (err.value.needed, err.value.guard) == (1 << 30, 1000)
            assert str(err.value) == "enumeration of 1073741824 items exceeds size guard 1000"


class TestProduct:
    def test_square_of_chain(self):
        c2 = POSETS["C2"]
        grid = product_poset(c2, c2)
        assert grid.size == 4
        # componentwise order oracle
        for (i, a), (j, b) in itertools.product(enumerate(c2.labels), repeat=2):
            for (k, c), (l, d) in itertools.product(enumerate(c2.labels), repeat=2):
                lhs = label_leq(grid, f"({a},{c})", f"({b},{d})")
                assert lhs == (c2.leq(i, j) and c2.leq(k, l))

    def test_unit(self):
        x = POSETS["chain3"]
        prod = product_poset(x, POSETS["one"])
        assert is_order_iso(x, prod, list(range(x.size)))

    def test_antichain_product(self):
        a2 = POSETS["A2"]
        prod = product_poset(a2, a2)
        assert prod.size == 4
        assert all(
            prod.leq(i, j) == (i == j) for i in range(4) for j in range(4)
        )


@st.composite
def small_posets(draw, most=4):
    n = draw(st.integers(min_value=1, max_value=most))
    labels = [f"e{i}" for i in range(n)]
    covers = []
    # only upward covers (i -> j with i < j) so antisymmetry holds by design
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                covers.append((labels[i], labels[j]))
    return poset_from_cover(labels, covers)


@given(small_posets())
def test_duality_random(poset):
    ups = all_up_sets(poset)
    downs = all_down_sets(poset)
    assert len(ups) == len(downs)
    assert sorted(u.complement().mask for u in ups) == sorted(d.mask for d in downs)


@given(small_posets())
def test_cover_roundtrip_random(poset):
    rebuilt = poset_from_cover(
        poset.labels, [(poset.labels[i], poset.labels[j]) for i, j in poset.covers()]
    )
    assert rebuilt.up == poset.up


class TestTools:
    def test_dot_stable(self):
        c2 = POSETS["C2"]
        assert c2.dot("C2") == (
            'digraph "C2" {\n'
            "  rankdir=BT;\n"
            '  "bot";\n'
            '  "top";\n'
            '  "bot" -> "top";\n'
            "}\n"
        )

    def test_sub_poset(self):
        chain = POSETS["chain3"]
        sub = sub_poset(chain, [0, 2])
        assert sub.labels == ("x0", "x2")
        assert label_leq(sub, "x0", "x2")

    def test_inclusion_poset_reverse(self):
        ups = all_up_sets(POSETS["C2"])
        normal = set_inclusion_poset(ups)
        reverse = set_inclusion_poset(ups, reverse=True)
        assert label_leq(normal, "{}", "{top}")
        assert label_leq(reverse, "{top}", "{}")

    def test_linear_extension(self):
        # monotone_tables visits the elements by the size of their strict
        # down-sets: below every element, assigned before it
        for poset in POSETS.values():
            below = poset.strict_below()
            order = sorted(range(poset.size), key=lambda e: len(below[e]))
            pos = {e: k for k, e in enumerate(order)}
            for i in range(poset.size):
                for j in range(poset.size):
                    if poset.leq(i, j):
                        assert pos[i] <= pos[j]


# ---------------------------------------------------------------------------
# covers() against the element-wise scan, and the validator's diagnostics


def brute_covers(poset):
    """Independent oracle: i < j with no k strictly in between, O(n^3)."""
    n = poset.size
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and poset.leq(i, j)
        and not any(
            poset.leq(i, k) and poset.leq(k, j) and k not in (i, j) for k in range(n)
        )
    ]


def _derived_posets():
    a3 = poset_from_cover(("a", "b", "c"), ())
    preds = enumerate_monotone(POSETS["A2"], catalog.TWO).poset
    funcs = functional_space(a3, catalog.builtin_algebras()["2_ang"]).space.poset
    return {"[A2 -> 2]": preds, "[[A3 -> 2] -> 2]": funcs}


def _assert_covers_match(poset):
    first = poset.covers()
    assert isinstance(first, tuple)
    assert list(first) == brute_covers(poset)
    assert poset.covers() == first


class TestCoversOracle:
    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_catalog(self, name):
        _assert_covers_match(POSETS[name])

    def test_derived(self):
        derived = _derived_posets()
        assert derived["[[A3 -> 2] -> 2]"].size == 20
        for poset in derived.values():
            _assert_covers_match(poset)


@given(small_posets())
def test_covers_match_oracle_random(poset):
    _assert_covers_match(poset)


T, F = True, False


class TestOrderDiagnostics:
    """The first violation found, and its message, for hand-built matrices."""

    @pytest.mark.parametrize(
        "labels, leq, message",
        [
            (("a", "b"), ((T, F), (F, F)), "relation not reflexive at b"),
            (("a", "b"), ((T, T), (T, T)), "relation not antisymmetric on a, b"),
            (
                ("a", "b", "c"),
                ((T, T, F), (F, T, T), (F, F, T)),
                "relation not transitive via b",
            ),
            # c is not reflexive, but the row of a is scanned first
            (
                ("a", "b", "c"),
                ((T, T, F), (F, T, T), (F, F, F)),
                "relation not transitive via b",
            ),
            # a <= c <= b, d fails with a 2-cycle on b, c and an irreflexive d
            (
                ("a", "b", "c", "d"),
                ((T, F, T, F), (F, T, T, F), (F, T, T, T), (F, F, F, F)),
                "relation not transitive via c",
            ),
        ],
    )
    def test_first_violation(self, labels, leq, message):
        with pytest.raises(InvalidOrder) as err:
            FinPoset(labels, rows_to_masks(leq))
        assert type(err.value) is InvalidOrder
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "up",
        [
            (0b011, 0b110, 0b1100),  # c's row has bit 3 set, beyond the 3 elements
            (0b011, 0b110),  # one row short
            (0b011, 0b110, 0b100, 0b000),  # one row too many
            (0b011, -1, 0b100),  # a negative row
        ],
    )
    def test_masks_must_fit_the_elements(self, up):
        with pytest.raises(InvalidOrder) as err:
            FinPoset(("a", "b", "c"), up)
        assert type(err.value) is InvalidOrder
        assert str(err.value) == "relation masks do not match element count"


def matrix_closure(labels, cover_pairs):
    """Independent oracle for poset_from_cover: the reflexive-transitive
    closure of the pairs as a boolean matrix, then the first 2-cycle row by
    row, or the order as up rows."""
    n = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    leq = [[i == j for j in range(n)] for i in range(n)]
    for low, high in cover_pairs:
        leq[pos[low]][pos[high]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise CycleDetected(
                    f"cover relation creates a cycle through {labels[i]} and {labels[j]}"
                )
    return rows_to_masks(leq)


@st.composite
def cover_lists(draw):
    """Labels and cover pairs in any direction, so that cycles may occur."""
    labels = [f"e{i}" for i in range(draw(st.integers(min_value=0, max_value=6)))]
    if not labels:
        return labels, []
    pair = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    return labels, draw(st.lists(pair, max_size=10))


@given(cover_lists())
def test_poset_from_cover_matches_the_matrix_closure(case):
    labels, pairs = case
    try:
        expected = matrix_closure(labels, pairs)
    except CycleDetected as cycle:
        with pytest.raises(CycleDetected) as err:
            poset_from_cover(labels, pairs)
        assert str(err.value) == str(cycle)
    else:
        assert poset_from_cover(labels, pairs).up == expected


# ---------------------------------------------------------------------------
# the one enumerator against the subset filter and the product filter


def subset_filter(poset, up=True):
    """The subset filter that monotone_tables replaced, kept as the
    reference: every mask, ascending, whose set is up-closed (or, for
    down-sets, whose complement is)."""
    full = (1 << poset.size) - 1

    def up_closed(mask):
        return not any(poset.up[i] & ~mask for i in range(poset.size) if mask >> i & 1)

    return [mask for mask in range(full + 1) if up_closed(mask if up else full & ~mask)]


def product_filter(source, target):
    """Every table of |Y|^|X|, in lexicographic order, that is monotone."""
    pairs = [(i, j) for i in range(source.size) for j in range(source.size) if source.leq(i, j)]
    return [
        t
        for t in itertools.product(range(target.size), repeat=source.size)
        if all(target.leq(t[i], t[j]) for i, j in pairs)
    ]


POSETS_AND_EMPTY = {**POSETS, "empty": FinPoset((), ())}


def _assert_sets_match_filter(poset):
    assert [u.mask for u in all_up_sets(poset)] == subset_filter(poset)
    assert [d.mask for d in all_down_sets(poset)] == subset_filter(poset, up=False)


@pytest.mark.parametrize("name", sorted(POSETS_AND_EMPTY))
def test_up_and_down_sets_match_the_subset_filter(name):
    _assert_sets_match_filter(POSETS_AND_EMPTY[name])


@given(small_posets(6))
def test_up_and_down_sets_match_the_subset_filter_random(poset):
    _assert_sets_match_filter(poset)


@pytest.mark.parametrize("target", sorted(POSETS_AND_EMPTY) + ["TWO", "TWO_OP"])
def test_monotone_tables_match_the_product_filter(target):
    y = {**POSETS_AND_EMPTY, "TWO": TWO, "TWO_OP": TWO_OP}[target]
    for x in POSETS_AND_EMPTY.values():
        assert monotone_tables(x, y) == product_filter(x, y)


@given(small_posets(5), small_posets(4))
def test_monotone_tables_match_the_product_filter_random(x, y):
    assert monotone_tables(x, y) == product_filter(x, y)


def test_a_relation_that_is_not_antisymmetric_cannot_hang_an_enumeration():
    # a 2-cycle that skipped validation has no minimal element, where a
    # search for one loops; the order by down-set size always ends
    cyclic = _trusted(FinPoset, labels=("a", "b"), up=(3, 3))

    def give_up(signum, frame):
        raise TimeoutError("the enumeration did not return")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(5)
    try:
        maps = enumerate_monotone(cyclic, TWO).maps
        ups, downs = all_up_sets(cyclic), all_down_sets(cyclic)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert maps and ups and downs


def _guard_sites(text, module):
    """``(module, top-level definition)`` of every construction of
    ``SizeGuardExceeded`` in a module's source."""
    return [
        (module, getattr(stmt, "name", None))
        for stmt in ast.parse(text).body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SizeGuardExceeded"
    ]


def test_the_size_guard_is_raised_in_one_place():
    # the a priori bound, and a counting guard that would replace it, live in
    # the one enumerator that every enumeration goes through
    sites = [
        site
        for path in sorted(Path(powdom.__file__).parent.glob("*.py"))
        for site in _guard_sites(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert sites == [("poset", "monotone_tables")]


def test_the_guard_scan_sees_bare_and_module_calls():
    text = "def f():\n    raise SizeGuardExceeded(1, 0)\nclass W:\n    def g(self):\n        errors.SizeGuardExceeded(1, 0)\n"
    assert _guard_sites(text, "m") == [("m", "f"), ("m", "W")]
