import random

import pytest

from oracles import bk_identities, gbinom2

from tcores.boundary import BoundarySequence
from tcores.littlewood import (
    LittlewoodDecomposition,
    bk_pairs,
    core_offsets,
    decompose,
    is_t_core,
    recompose,
    residue_hook_count,
    t_core,
    t_quotients,
)
from tcores.partitions import Partition, enumerate_partitions, hook_lengths

EMPTY = Partition()


def test_t_core_running_example():
    assert t_core(Partition((18, 7, 6)), 3) == Partition((3, 1))
    assert t_core(Partition((6, 3, 2, 2)), 7) == Partition((6, 3, 2, 2))
    assert t_core(Partition((5, 4, 2, 1, 1)), 1) == EMPTY


def test_t_quotients_running_example():
    assert t_quotients(Partition((18, 7, 6)), 3) == (Partition((2,)), EMPTY, Partition((5, 2)))
    assert t_quotients(EMPTY, 4) == (EMPTY,) * 4
    assert t_quotients(Partition((2,)), 2) == (EMPTY, Partition((1,)))
    assert t_quotients(Partition((3, 1)), 1) == (Partition((3, 1)),)


def test_recompose_examples():
    quots = (Partition((2,)), EMPTY, Partition((5, 2)))
    assert recompose(Partition((3, 1)), quots, 3) == Partition((18, 7, 6))
    assert recompose(EMPTY, (EMPTY, EMPTY), 2) == EMPTY
    lam = recompose(EMPTY, (Partition((1,)), Partition((1,))), 2)
    assert lam.size == 4
    assert decompose(lam, 2).quotients == (Partition((1,)), Partition((1,)))
    with pytest.raises(ValueError):
        recompose(Partition((2,)), (EMPTY, EMPTY), 2)  # (2) is not a 2-core


def test_round_trip_small():
    for t in (1, 2, 3, 4):
        for n in range(11):
            for lam in enumerate_partitions(n):
                dec = decompose(lam, t)
                assert dec.partition() == lam
                assert lam.size == dec.core.size + t * sum(q.size for q in dec.quotients)


def test_hook_division_property():
    for t in (2, 3, 4):
        for n in range(11):
            for lam in enumerate_partitions(n):
                dec = decompose(lam, t)
                divided = sorted(h // t for h in hook_lengths(lam) if h % t == 0)
                pooled = sorted(h for q in dec.quotients for h in hook_lengths(q))
                assert divided == pooled


def test_core_offsets_examples():
    off = core_offsets(Partition((5, 3, 1, 1)), 3)
    assert off.b == (0, 7, -4)
    assert off.d == (0, 2, -2)
    off = core_offsets(EMPTY, 4)
    assert off.b == (0, 1, 2, 3)
    assert off.d == (0, 0, 0, 0)
    off = core_offsets(Partition((1,)), 2)
    assert off.b == (2, -1)
    assert off.d == (1, -1)
    with pytest.raises(ValueError, match="not a 2-core"):
        core_offsets(Partition((2,)), 2)


def test_offsets_sum_to_zero():
    for t in (2, 3, 4, 5):
        for n in range(13):
            for mu in enumerate_partitions(n):
                if is_t_core(mu, t):
                    assert sum(core_offsets(mu, t).d) == 0


def test_quotient_word_matches_global_word():
    # z_{lam^i, j} == z_{lam, j*t + b_i} with b_i taken from the core
    rng = random.Random(11)
    for _ in range(60):
        t = rng.choice((2, 3, 4))
        n = rng.randrange(12)
        lam = rng.choice(list(enumerate_partitions(n)))
        dec = decompose(lam, t)
        s = BoundarySequence.from_partition(lam)
        for i, q in enumerate(dec.quotients):
            sq = BoundarySequence.from_partition(q)
            for j in range(-6, 7):
                assert sq.value(j) == s.value(j * t + dec.offsets.b[i])


def test_core_invariant_under_removal_order():
    rng = random.Random(20260808)
    pool = [lam for n in range(15) for lam in enumerate_partitions(n)]
    for _ in range(200):
        lam = rng.choice(pool)
        t = rng.choice((2, 3, 4, 5))
        assert _random_removal_core(lam, t, rng) == t_core(lam, t)


def _random_removal_core(lam, t, rng):
    s = BoundarySequence.from_partition(lam)
    while True:
        swaps = [i for i in range(s.lo, s.hi + 1 - t) if s.value(i) == 1 and s.value(i + t) == 0]
        if not swaps:
            return s.to_partition()
        i = rng.choice(swaps)
        bits = [s.value(p) for p in range(s.lo, s.hi + 1)]
        bits[i - s.lo] = 0
        bits[i + t - s.lo] = 1
        s = BoundarySequence(s.lo, bits)


def test_residue_hook_count_examples():
    mu = Partition((5, 3, 1, 1))
    assert residue_hook_count(mu, 3, 0) == 0
    assert residue_hook_count(mu, 3, 1) + residue_hook_count(mu, 3, 2) == 10
    with pytest.raises(ValueError):
        residue_hook_count(mu, 3, 3)


def test_residue_counts_from_offsets():
    # paired residue class sizes of a core from the offset differences
    for t in (2, 3, 4, 5):
        for n in range(16):
            for mu in enumerate_partitions(n):
                if not is_t_core(mu, t):
                    continue
                d = core_offsets(mu, t).d
                for k in range(1, t):
                    lhs = residue_hook_count(mu, t, k) + residue_hook_count(mu, t, t - k)
                    assert lhs == sum(gbinom2(d[i] - d[j]) for i, j in bk_pairs(t, k))


def test_layer_residue_growth():
    # adding n t-hooks adds 2n hooks to each paired residue class
    rng = random.Random(5)
    pool = [lam for n in range(4) for lam in enumerate_partitions(n)]
    for _ in range(40):
        t = rng.choice((2, 3, 4))
        cores = [mu for n in range(6) for mu in enumerate_partitions(n) if is_t_core(mu, t)]
        mu = rng.choice(cores)
        quots = tuple(rng.choice(pool) for _ in range(t))
        lam = recompose(mu, quots, t)
        n = sum(q.size for q in quots)
        for k in range(t):
            grown = residue_hook_count(lam, t, k) + residue_hook_count(lam, t, (t - k) % t)
            base = residue_hook_count(mu, t, k) + residue_hook_count(mu, t, (t - k) % t)
            assert grown - base == 2 * n


def test_paired_residue_growth_figure_example():
    lam, mu = Partition((18, 7, 6)), Partition((3, 1))
    diff = (
        residue_hook_count(lam, 3, 1)
        + residue_hook_count(lam, 3, 2)
        - residue_hook_count(mu, 3, 1)
        - residue_hook_count(mu, 3, 2)
    )
    assert diff == 18


def test_bk_pairs():
    assert bk_pairs(3, 1) == [(0, 1), (1, 2), (0, 2)]
    assert sum((j - i) ** 2 for i, j in bk_pairs(3, 1)) == 6
    # k = t - k keeps two copies
    assert len(bk_pairs(4, 2)) == 4


def test_bk_identities():
    mu = Partition((5, 3, 1, 1))
    checks = {c.name: c for c in bk_identities(mu, 3)}
    assert checks["size[pairs]"].rhs == 10
    assert all(c.ok for c in checks.values())
    for c in bk_identities(EMPTY, 4):
        assert c.ok
        if c.name.startswith("Bk2") or c.name.startswith("size"):
            assert c.lhs == c.rhs


def test_bk_identities_sweep():
    for t in (2, 3, 4, 5):
        for n in range(13):
            for mu in enumerate_partitions(n):
                if is_t_core(mu, t):
                    assert all(c.ok for c in bk_identities(mu, t))


def test_decomposition_json():
    dec = decompose(Partition((18, 7, 6)), 3)
    assert dec.to_json_dict() == {
        "t": 3,
        "core": "3,1",
        "quotients": ["2", "-", "5,2"],
        "b": [0, -2, 5],
        "d": [0, -1, 1],
    }


def test_of_matches_decompose():
    lam = Partition((18, 7, 6))
    dec = decompose(lam, 3)
    rebuilt = LittlewoodDecomposition.of(dec.core, dec.quotients, 3)
    assert rebuilt == dec


def window_recompose(core, quotients, t):
    """Recomposition on the boundary window: every index p of lam's word
    reads quotient p mod t's word, shifted by the core's offset d_i."""
    d = core_offsets(core, t).d
    seqs = [BoundarySequence.from_partition(q) for q in quotients]
    lo = min(t * (s.lo + d[i]) + i for i, s in enumerate(seqs))
    hi = max(t * (s.hi + d[i]) + i for i, s in enumerate(seqs))
    bits = [seqs[p % t].value(p // t - d[p % t]) for p in range(lo, hi + 1)]
    return BoundarySequence(lo, bits).to_partition()


def test_bead_recompose_matches_window_reference():
    for n in range(15):
        for lam in enumerate_partitions(n):
            for t in range(1, 7):
                dec = decompose(lam, t)
                assert recompose(dec.core, dec.quotients, t) == lam
                assert window_recompose(dec.core, dec.quotients, t) == lam
