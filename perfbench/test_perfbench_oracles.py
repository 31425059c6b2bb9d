"""Self-tests of the benchmark's oracles against hand counts and known
constants.  Run with pytest, or directly: ``python3 perfbench/test_perfbench_oracles.py``."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_oracles import (  # noqa: E402
    DEDEKIND,
    DoubleExp,
    cover_pairs,
    down_sets,
    up_masks,
    up_sets,
)

CHAIN3 = (3, [(0, 1), (1, 2)])
VEE = (3, [(0, 1), (0, 2)])
A4 = (4, [])
A4_BOTTOM = (5, [(0, i) for i in range(1, 5)])
A4_TOP = (5, [(i, 4) for i in range(4)])
A2_C3 = (5, [(2, 3), (3, 4)])
GRID2 = (4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_up_and_down_set_counts():
    assert len(up_sets(up_masks(*CHAIN3))) == 4
    assert len(up_sets(up_masks(*VEE))) == 5
    assert len(up_sets(up_masks(*A4))) == 16
    assert len(up_sets(up_masks(*A4_BOTTOM))) == 17
    assert len(up_sets(up_masks(*A4_TOP))) == 17
    assert len(up_sets(up_masks(*A2_C3))) == 16
    assert len(up_sets(up_masks(*GRID2))) == 6
    # complements of up-sets are exactly the down-sets
    up = up_masks(*VEE)
    assert down_sets(up) == sorted([0b000, 0b001, 0b011, 0b101, 0b111])


def test_up_sets_match_subset_filter():
    for n, covers in (CHAIN3, VEE, A4_BOTTOM, A2_C3, GRID2):
        up = up_masks(n, covers)
        closed = [
            m for m in range(1 << n)
            if all(up[i] & ~m == 0 for i in range(n) if m >> i & 1)
        ]
        assert up_sets(up) == closed


def test_cover_pair_counts():
    assert len(cover_pairs(up_masks(*CHAIN3))) == 2
    assert len(cover_pairs(up_masks(*GRID2))) == 4
    assert len(cover_pairs(up_masks(*A4_TOP))) == 4
    # the closure adds (0, 2) to a chain, which is not a cover pair
    assert (0, 2) not in cover_pairs(up_masks(*CHAIN3))
    assert len(cover_pairs(up_masks(*A4))) == 0


def test_dedekind_numbers():
    for n in range(0, 5):
        assert len(DoubleExp(n, []).functionals) == DEDEKIND[n]
    assert DEDEKIND[3] == 20 and DEDEKIND[4] == 168


def test_hom_counts_match_the_powerdomains():
    for n, covers in (CHAIN3, VEE, A4, A4_BOTTOM, A2_C3):
        d = DoubleExp(n, covers)
        assert len(d.join_homs()) == len(down_sets(d.up))
        assert len(d.meet_homs()) == len(up_sets(d.up))
        assert sorted(d.frame_homs()) == sorted(d.deltas())
        assert len(d.frame_homs()) == n
        assert sorted(d.join_generated()) == sorted(d.join_homs())


def test_lax_join_morphisms():
    # monotone and lax means join-preserving; dropping the zero law adds
    # exactly the constant-1 functional
    for n, covers in (CHAIN3, A4, A4_TOP, A2_C3):
        d = DoubleExp(n, covers)
        lax = d.lax_join_morphisms()
        assert set(d.join_homs()) <= set(lax)
        assert len(lax) == len(d.join_homs()) + 1
        everywhere = (1 << len(d.preds)) - 1
        assert everywhere in lax and everywhere not in d.join_homs()


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
