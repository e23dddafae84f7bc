import random
from fractions import Fraction
from math import factorial

import pytest

from oracles import F_lambda, F_skew

from tcores.boundary import BoundarySequence
from tcores.littlewood import decompose, recompose
from tcores.partitions import Partition, enumerate_partitions, hook_lengths, syt_count_oracle
from tcores.weights import G_lambda, f_lambda, hook_product, layer_walk, multinomial

EMPTY = Partition()


def layer(mu, t, n):
    return [lam for lam, _ in layer_walk(mu, t, n)]


def geq_t(lam, mu, t):
    """lam >=_t mu: lam reachable from mu by adding t-hooks, i.e. same
    t-core and componentwise quotient containment."""
    dl, dm = decompose(lam, t), decompose(mu, t)
    return dl.core == dm.core and all(a.contains(b) for a, b in zip(dl.quotients, dm.quotients))


def test_f_examples():
    assert f_lambda(EMPTY) == 1
    assert f_lambda(Partition((2, 1))) == 2
    assert f_lambda(Partition((2, 2))) == 2


def test_f_matches_oracle():
    for n in range(10):
        for lam in enumerate_partitions(n):
            assert f_lambda(lam) == syt_count_oracle(lam)


def test_f_needs_big_integers():
    lam = Partition((7, 7, 6, 6, 5, 5, 4))
    value = f_lambda(lam)
    assert value > 2**63
    assert value == syt_count_oracle(lam)


def test_F_skew_examples():
    mu = Partition((3, 1))
    assert F_skew(mu, mu, 3) == 1
    lam = recompose(EMPTY, (Partition((1,)), Partition((1,))), 2)
    assert F_skew(lam, EMPTY, 2) == 2
    with pytest.raises(ValueError):
        F_skew(Partition((1,)), Partition((3, 1)), 2)
    # same size, different 2-cores
    with pytest.raises(ValueError):
        F_skew(Partition((2, 1)), Partition((1, 1, 1)), 2)


def test_F_at_t1_is_f():
    for n in range(9):
        for lam in enumerate_partitions(n):
            assert F_lambda(lam, 1) == f_lambda(lam)


def _one_hook_removals(lam, t):
    s = BoundarySequence.from_partition(lam)
    for i in range(s.lo, s.hi + 1 - t):
        if s.value(i) == 1 and s.value(i + t) == 0:
            bits = [s.value(p) for p in range(s.lo, s.hi + 1)]
            bits[i - s.lo] = 0
            bits[i + t - s.lo] = 1
            yield BoundarySequence(s.lo, bits).to_partition()


def test_F_matches_removal_recursion():
    # independent oracle: F counts maximal removal chains down to mu
    def F_rec(lam, mu, t, memo):
        if lam == mu:
            return 1
        key = lam.parts
        if key not in memo:
            memo[key] = sum(
                F_rec(lower, mu, t, memo)
                for lower in _one_hook_removals(lam, t)
                if geq_t(lower, mu, t)
            )
        return memo[key]

    for t, mu_parts in ((1, ()), (2, ()), (2, (1,)), (3, ()), (3, (2,)), (3, (5, 3, 1, 1))):
        mu = Partition(mu_parts)
        for n in range(5):
            memo = {}
            for lam in layer(mu, t, n):
                assert F_skew(lam, mu, t) == F_rec(lam, mu, t, memo)


def test_G_examples():
    assert G_lambda(Partition((6, 3, 2, 2)), 7) == 1
    assert G_lambda(Partition((2,)), 2) == Fraction(1, 2)
    for n in range(8):
        for lam in enumerate_partitions(n):
            assert G_lambda(lam, 1) == Fraction(1, hook_product(lam))


def test_F_G_consistency():
    # F * product of hooks divisible by t == n! * t^n
    for t in (1, 2, 3):
        for n in range(4):
            for lam in layer(EMPTY, t, n):
                prod = 1
                for h in hook_lengths(lam):
                    if h % t == 0:
                        prod *= h
                assert F_lambda(lam, t) * prod == factorial(n) * t**n
                assert Fraction(F_lambda(lam, t)) == factorial(n) * t**n * G_lambda(lam, t)


def test_enumerate_layer_examples():
    assert sorted(layer(EMPTY, 2, 1)) == [Partition((1, 1)), Partition((2,))]
    mu = Partition((3, 1))
    assert layer(mu, 3, 0) == [mu]
    assert len(layer(EMPTY, 2, 2)) == 5


def test_enumerate_layer_is_exact():
    for t in (2, 3):
        for mu_parts in ((), (1,)) if t == 2 else ((), (2,)):
            mu = Partition(mu_parts)
            for n in range(4):
                members = layer(mu, t, n)
                assert len(set(members)) == len(members)
                for lam in members:
                    dec = decompose(lam, t)
                    assert dec.core == mu
                    assert lam.size == mu.size + n * t
                # cross-check against brute enumeration of all partitions
                brute = [
                    lam
                    for lam in enumerate_partitions(mu.size + n * t)
                    if decompose(lam, t).core == mu
                ]
                assert sorted(members) == sorted(brute)


def test_enumerate_layer_above_general_mu():
    mu = Partition((2, 1))  # not a 2-core
    members = layer(mu, 2, 1)
    assert all(geq_t(lam, mu, 2) and lam.size == mu.size + 2 for lam in members)
    from tcores.operators import covers

    assert set(members) == set(covers(mu, 2))


def test_normalization_sums_to_one():
    for t, mu_parts in ((1, ()), (2, ()), (2, (2, 1)), (3, (1,))):
        mu = Partition(mu_parts)
        for n in range(4):
            total = sum(
                Fraction(F_skew(lam, mu, t)) * G_lambda(lam, t)
                for lam in layer(mu, t, n)
            )
            assert total == 1


def test_multinomial_identity():
    import itertools

    from tcores.weights import _compositions

    for t in (1, 2, 3):
        for n in range(5):
            total = Fraction(0)
            for comp in _compositions(n, t):
                for quots in itertools.product(*[list(enumerate_partitions(c)) for c in comp]):
                    term = Fraction(multinomial(comp))
                    for q in quots:
                        term *= Fraction(f_lambda(q) ** 2, factorial(q.size))
                    total += term
            assert total == t**n


def test_random_layer_membership():
    rng = random.Random(9)
    for _ in range(30):
        t = rng.choice((2, 3))
        lam = rng.choice(list(enumerate_partitions(rng.randrange(13))))
        dec = decompose(lam, t)
        n = sum(q.size for q in dec.quotients)
        assert lam in layer(dec.core, t, n)


def test_layer_above_rejects_negative_index():
    with pytest.raises(ValueError):
        layer_walk(EMPTY, 2, -1)


def test_layer_walk_F_matches_skew_oracle():
    # Above cores (hook formula per quotient) and above non-cores (skew
    # counts), F from the quotients equals F_skew, which decomposes every
    # lam and counts tableaux with the exhaustive oracle.
    for t, n_max in ((1, 6), (2, 4), (3, 3), (4, 2)):
        for mu in (lam for size in range(6) for lam in enumerate_partitions(size)):
            for n in range(n_max + 1):
                pairs = list(layer_walk(mu, t, n))
                assert sorted(lam for lam, _ in pairs) == [
                    lam for lam in sorted(enumerate_partitions(mu.size + n * t)) if geq_t(lam, mu, t)
                ]
                assert len({lam for lam, _ in pairs}) == len(pairs)
                for lam, F in pairs:
                    assert F == F_skew(lam, mu, t)
