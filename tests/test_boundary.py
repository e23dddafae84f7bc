from collections import Counter

import pytest

from oracles import cell_stats, conjugate, corner_contents, inversion_pairs, render

from tcores.boundary import BoundarySequence, partition_from_word
from tcores.corners import corners
from tcores.partitions import Partition, enumerate_partitions, hook_lengths

EMPTY = Partition()


def seq(parts):
    return BoundarySequence.from_partition(Partition(parts))


def test_encode_section4_example():
    s = seq((5, 3, 1, 1))
    # ...001001|1011011...
    assert [s.value(i) for i in range(-6, 6)] == [0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1]
    assert render(s) == "⋯01001|101101⋯"


def test_encode_figure_example():
    s = seq((18, 7, 6))
    assert (s.lo, s.hi) == (-3, 17)
    zeros = {i for i in range(-6, 20) if s.value(i) == 0}
    assert zeros == {17, 5, 3, -4, -5, -6}


def test_encode_empty_is_all_implicit():
    s = seq(())
    assert s.bits == ()
    assert s.value(-1) == 0 and s.value(0) == 1
    assert render(s) == "⋯0|1⋯"


def test_decode_validates_balance():
    with pytest.raises(ValueError, match="unbalanced"):
        BoundarySequence(0, (1, 0, 1, 0))  # two zeros at >=0, one 1 below... shifted window
    with pytest.raises(ValueError, match="unbalanced"):
        BoundarySequence(-3, (1, 0))


def test_decode_inverts_encode():
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert BoundarySequence.from_partition(lam).to_partition() == lam


def test_decode_known_words():
    assert partition_from_word((1, 0, 0, 1, 1, 0, 1, 1, 0)) == Partition((5, 3, 1, 1))
    assert partition_from_word(()) == EMPTY


def test_inversion_pairs_examples():
    assert inversion_pairs(seq(())) == []
    assert inversion_pairs(seq((1,))) == [(-1, 0)]
    pairs = inversion_pairs(seq((5, 3, 1, 1)))
    assert len(pairs) == 10
    assert sorted(j - i for i, j in pairs) == sorted(hook_lengths(Partition((5, 3, 1, 1))))


def test_inversion_pairs_give_hook_multiset():
    for n in range(11):
        for lam in enumerate_partitions(n):
            pairs = inversion_pairs(BoundarySequence.from_partition(lam))
            assert len(pairs) == n
            assert sorted(j - i for i, j in pairs) == sorted(hook_lengths(lam))


def test_corner_contents_examples():
    assert corner_contents(seq((6, 3, 2, 2))) == ((-4, 0, 2, 6), (-2, 1, 5))
    assert corner_contents(seq(())) == ((0,), ())
    assert corner_contents(seq((3,))) == ((-1, 3), (2,))


def test_corners_interleave():
    for n in range(11):
        for lam in enumerate_partitions(n):
            inner, outer = corner_contents(BoundarySequence.from_partition(lam))
            assert len(inner) == len(outer) + 1
            merged = [v for pair in zip(inner, outer) for v in pair] + [inner[-1]]
            assert all(a < b for a, b in zip(merged, merged[1:]))


def test_corners_match_boundary_reading():
    # the boundary word's corner reading is the oracle for `corners`
    count = 0
    for n in range(16):
        for lam in enumerate_partitions(n):
            assert corners(lam) == corner_contents(BoundarySequence.from_partition(lam))
            count += 1
    assert count == 684


def test_content_reading():
    # a 0 at index i closes a row whose last box has content i; a 1 at index
    # i runs under a column whose bottom box has content i + 1
    for n in range(1, 16):
        for lam in enumerate_partitions(n):
            s = BoundarySequence.from_partition(lam)
            conj = conjugate(lam).parts
            row_ends = Counter(c.content for c in cell_stats(lam) if c.col == lam.parts[c.row - 1])
            col_ends = Counter(c.content for c in cell_stats(lam) if c.row == conj[c.col - 1])
            zeros = Counter(i for i in range(s.lo, s.hi + 1) if s.value(i) == 0)
            ones = Counter(i + 1 for i in range(s.lo, s.hi + 1) if s.value(i) == 1)
            assert zeros == row_ends
            assert ones == col_ends


def test_residue_class_bits_cover_window():
    s = seq((5, 3, 1, 1))
    j_lo, bits = s.residue_class_bits(3, 1)
    assert all(bits[k] == s.value(3 * (j_lo + k) + 1) for k in range(len(bits)))
def test_rejects_non_binary_bits():
    with pytest.raises(ValueError):
        BoundarySequence(0, (1, 2, 0))
