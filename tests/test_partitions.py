import pytest

from oracles import cell_stats, inversion_pairs

from tcores.boundary import BoundarySequence
from tcores.partitions import (
    Partition,
    contents,
    enumerate_partitions,
    hook_lengths,
    hook_multiset_mod,
    syt_count_oracle,
)

EMPTY = Partition()


def test_construction_strips_trailing_zeros():
    lam = Partition((6, 3, 2, 2))
    assert lam.parts == (6, 3, 2, 2)
    assert lam.size == 13
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert Partition().parts == ()
    assert Partition().size == 0


@pytest.mark.parametrize("bad", [(2, 3), (1, 0, 2), (3, -1), (-1,)])
def test_construction_rejects_non_partitions(bad):
    with pytest.raises(ValueError):
        Partition(bad)


def test_construction_rejects_non_integers():
    with pytest.raises(TypeError):
        Partition((2.5, 1))


@pytest.mark.parametrize("bad", [(True,), (2, True), (False,)])
def test_construction_rejects_bools(bad):
    with pytest.raises(TypeError):
        Partition(bad)


def test_text_round_trip():
    assert Partition.from_text("18,7,6").parts == (18, 7, 6)
    assert Partition.from_text("-") == EMPTY
    assert Partition((18, 7, 6)).to_text() == "18,7,6"
    assert EMPTY.to_text() == "-"
    with pytest.raises(ValueError):
        Partition.from_text("1,a")


def test_ordering_by_size_then_parts():
    ordered = sorted([Partition((1, 1, 1)), Partition((3,)), Partition((2,)), EMPTY])
    assert ordered == [EMPTY, Partition((2,)), Partition((1, 1, 1)), Partition((3,))]


def test_cell_stats_running_example():
    # figure-checked hooks of (6,3,2,2), row-major
    lam = Partition((6, 3, 2, 2))
    assert list(hook_lengths(lam)) == [9, 8, 5, 3, 2, 1, 5, 4, 1, 3, 2, 2, 1]
    by_pos = {(c.row, c.col): c.hook for c in cell_stats(lam)}
    assert by_pos[(1, 2)] == 8
    assert by_pos[(3, 1)] == 3
    assert cell_stats(EMPTY) == []


def test_cell_stats_small():
    lam = Partition((2, 1))
    assert sorted(hook_lengths(lam)) == [1, 1, 3]
    assert sorted(contents(lam)) == [-1, 0, 1]


def test_contents_definition():
    lam = Partition((6, 3, 2, 2))
    assert all(c.content == c.col - c.row for c in cell_stats(lam))


def test_hook_multiset_mod():
    assert hook_multiset_mod(Partition((6, 3, 2, 2)), 7, {0}) == []
    assert hook_multiset_mod(Partition((2,)), 2, {0}) == [2]
    lam = Partition((4, 2, 1))
    assert hook_multiset_mod(lam, 1, {0}) == sorted(hook_lengths(lam))
    assert hook_multiset_mod(lam, 3, {0, 1, 2}) == sorted(hook_lengths(lam))
    with pytest.raises(ValueError):
        hook_multiset_mod(lam, 3, {3})
    with pytest.raises(ValueError):
        hook_multiset_mod(lam, 0, {0})


def test_enumerate_partitions_counts():
    assert list(enumerate_partitions(0)) == [EMPTY]
    assert len(list(enumerate_partitions(4))) == 5
    assert len(list(enumerate_partitions(10))) == 42


def test_enumerate_partitions_order_and_validity():
    for n in range(9):
        lams = list(enumerate_partitions(n))
        assert len(set(lams)) == len(lams)
        assert all(lam.size == n for lam in lams)
        assert [lam.parts for lam in lams] == sorted((lam.parts for lam in lams), reverse=True)


def test_addable_removable_contents():
    lam = Partition((6, 3, 2, 2))
    assert lam.addable_contents() == (-4, 0, 2, 6)
    assert lam.removable_contents() == (-2, 1, 5)
    assert EMPTY.addable_contents() == (0,)
    assert EMPTY.removable_contents() == ()


def test_add_cell():
    assert EMPTY.add_cell(0) == Partition((1,))
    assert Partition((2, 1)).add_cell(-2) == Partition((2, 1, 1))
    assert Partition((2, 1)).add_cell(2) == Partition((3, 1))
    with pytest.raises(ValueError):
        Partition((2, 1)).add_cell(5)


def test_syt_examples():
    assert syt_count_oracle(EMPTY, EMPTY) == 1
    assert syt_count_oracle(Partition((2, 1))) == 2
    assert syt_count_oracle(Partition((2, 2)), Partition((1,))) == 2
    with pytest.raises(ValueError):
        syt_count_oracle(Partition((1,)), Partition((2,)))


def test_syt_against_hook_formula_small():
    from math import factorial

    for n in range(9):
        for lam in enumerate_partitions(n):
            prod = 1
            for h in hook_lengths(lam):
                prod *= h
            assert syt_count_oracle(lam) * prod == factorial(n)


def test_sum_of_squares_is_factorial():
    from math import factorial

    for n in range(7):
        assert sum(syt_count_oracle(lam) ** 2 for lam in enumerate_partitions(n)) == factorial(n)


def test_hook_content_square_difference():
    for n in range(11):
        for lam in enumerate_partitions(n):
            lhs = sum(h * h for h in hook_lengths(lam)) - sum(c * c for c in contents(lam))
            assert lhs == n * n
def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


def test_repr_and_str():
    lam = Partition((3, 1))
    assert repr(lam) == "Partition([3, 1])"
    assert str(lam) == "3,1"


def test_hook_loops_match_cell_stats_and_inversion_pairs():
    # The direct loops against the per-cell records and against the
    # boundary word's hook oracle (one inversion pair per cell, hook j - i).
    for n in range(21):
        for lam in enumerate_partitions(n):
            cells = cell_stats(lam)
            assert hook_lengths(lam) == tuple(c.hook for c in cells)
            assert contents(lam) == tuple(c.content for c in cells)
            pairs = inversion_pairs(BoundarySequence.from_partition(lam))
            assert sorted(hook_lengths(lam)) == sorted(j - i for i, j in pairs)
