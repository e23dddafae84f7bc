import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from tcores.corners import (
    CornerData,
    StatSpec,
    content_delta,
    corners,
    hook_delta_power,
    hook_delta_power_total,
    q_increment,
    q_k,
    q_partition,
    q_tuple,
    stat_eval,
)
from tcores.littlewood import LittlewoodDecomposition, is_t_core, recompose
from tcores.partitions import Partition, contents, enumerate_partitions, hook_lengths
from tcores.weights import hook_product

EMPTY = Partition()


def test_corners_examples():
    assert corners(Partition((6, 3, 2, 2))) == CornerData((-4, 0, 2, 6), (-2, 1, 5))
    assert corners(EMPTY) == CornerData((0,), ())
    assert corners(Partition((3,))) == CornerData((-1, 3), (2,))


def test_corners_match_row_scan():
    for n in range(12):
        for lam in enumerate_partitions(n):
            cd = corners(lam)
            assert cd.x == lam.addable_contents()
            assert cd.y == lam.removable_contents()


def test_q_k_examples():
    lam = Partition((6, 3, 2, 2))
    assert q_k(lam, 1) == 0
    assert q_k(lam, 2) == 26 == 2 * lam.size
    assert q_k(EMPTY, 0) == 1
    assert q_k(EMPTY, 1) == 0
    assert q_k(EMPTY, 5) == 0


def test_q_low_orders():
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert q_k(lam, 0) == 1
            assert q_k(lam, 1) == 0
            assert q_k(lam, 2) == 2 * lam.size


def test_q_negative_exponent():
    assert q_k(Partition((3,)), -1) == Fraction(-1, 1) + Fraction(1, 3) - Fraction(1, 2)


def test_q_negative_exponent_rejects_zero_content_corner():
    with pytest.raises(ValueError):
        q_k(Partition((1,)), -1)
    with pytest.raises(ValueError):
        q_k(EMPTY, -2)


def test_q_increment_examples():
    lam = Partition((2,))
    assert q_increment(lam, 2, -1) == 2
    assert q_increment(lam, 2, 2) == 2
    assert q_increment(lam, 3, 2) == 6 * 2
    assert q_increment(EMPTY, 3, 0) == 0
    # k = 4 at corner content 2: 2*C(4,2)*4 + 2*C(4,4) = 50, cross-checked directly
    assert q_increment(lam, 4, 2) == 50
    assert q_k(lam.add_cell(2), 4) - q_k(lam, 4) == 50
    with pytest.raises(ValueError):
        q_increment(lam, 2, 7)


def test_q_increment_matches_direct():
    for n in range(9):
        for lam in enumerate_partitions(n):
            for c in corners(lam).x:
                grown = lam.add_cell(c)
                for k in range(7):
                    assert q_increment(lam, k, c) == q_k(grown, k) - q_k(lam, k)


def test_per_partition_suite_catches_q_increment_without_its_j1_term(monkeypatch):
    from tcores import suites

    rep = suites.per_partition_suite(max_size=0, layer_n=0, samples=30, seed=7)
    assert rep.ok
    monkeypatch.setattr(
        suites, "q_increment", lambda lam, k, c: q_increment(lam, k, c) - 2 * comb(k, 2) * c ** (k - 2)
    )
    rep = suites.per_partition_suite(max_size=0, layer_n=0, samples=30, seed=7)
    assert rep.first_failure["check"] == "q-increment"


def test_q3_along_growth_chain():
    # cumulative increments along empty -> (1) -> (2) -> (2,1) agree with q_3
    chain = [(EMPTY, 0), (Partition((1,)), 1), (Partition((2,)), -1)]
    total = 0
    for lam, c in chain:
        total += q_increment(lam, 3, c)
    assert chain[-1][0].add_cell(chain[-1][1]) == Partition((2, 1))
    assert total == q_k(Partition((2, 1)), 3) - q_k(EMPTY, 3)


def test_q_partition_and_tuple():
    lam = Partition((3, 1))
    assert q_partition(lam, EMPTY) == 1
    assert q_partition(lam, Partition((2,))) == 2 * lam.size
    assert q_partition(lam, Partition((2, 2))) == 4 * lam.size**2
    quots = (lam, Partition((1,)))
    assert q_tuple(quots, (EMPTY, EMPTY)) == 1
    assert q_tuple(quots, (Partition((2,)), EMPTY)) == 2 * lam.size
    assert q_tuple(quots, (Partition((2,)), Partition((2,)))) == 2 * lam.size * 2
    with pytest.raises(ValueError):
        q_tuple(quots, (EMPTY,))


def test_stat_spec_validation_and_text():
    spec = StatSpec("hook", 3, 1, 2, paired=True)
    assert spec.render() == "hook:t=3,j=1,pow=2,paired"
    assert StatSpec.parse("hook:t=3,j=1,pow=2,paired") == spec
    assert StatSpec.parse("content:j=2,pow=1", default_t=3) == StatSpec("content", 3, 2, 1)
    with pytest.raises(ValueError):
        StatSpec("hook", 3, 3, 2)
    with pytest.raises(ValueError):
        StatSpec("arm", 3, 0, 2)
    with pytest.raises(ValueError):
        StatSpec.parse("hook:j=0")
    with pytest.raises(ValueError):
        StatSpec.parse("hook:j=0,pow=2,bogus=1", default_t=2)


def test_stat_spec_rejects_repeated_keys():
    for text in ("hook:j=0,pow=2,pow=4", "hook:t=2,j=0,t=3,pow=2", "content:j=1,j=1,pow=2",
                 "hook:j=1,pow=2,paired,paired"):
        with pytest.raises(ValueError, match="repeated statistic key"):
            StatSpec.parse(text, default_t=2)


def test_stat_eval_examples():
    lam = Partition((2,))
    assert stat_eval(lam, StatSpec("hook", 2, 0, 2, paired=True)) == 8
    assert stat_eval(lam, StatSpec("hook", 2, 0, 2)) == 4
    assert stat_eval(lam, StatSpec("content", 2, 1, 2)) == 1
    assert stat_eval(EMPTY, StatSpec("hook", 3, 1, 4, paired=True)) == 0


def test_stat_eval_negative_contents_reduce_to_nonnegative_residue():
    lam = Partition((1, 1, 1))  # contents 0, -1, -2
    assert stat_eval(lam, StatSpec("content", 3, 2, 1)) == -1
    assert stat_eval(lam, StatSpec("content", 3, 1, 1)) == -2


def test_paired_counts_coinciding_class_twice():
    lam = Partition((4, 2, 1))
    for t, k in ((2, 0), (2, 1), (4, 2)):
        paired = stat_eval(lam, StatSpec("hook", t, k, 2, paired=True))
        single = stat_eval(lam, StatSpec("hook", t, k, 2))
        mirror = stat_eval(lam, StatSpec("hook", t, (t - k) % t, 2))
        assert paired == single + mirror


def test_content_delta_examples():
    dec = LittlewoodDecomposition.of(EMPTY, (EMPTY, EMPTY), 2)
    assert content_delta(dec, 0, 0) == [0, -1]
    assert content_delta(dec, 1, 0) == [1, 0]
    assert recompose(EMPTY, (Partition((1,)), EMPTY), 2) == Partition((1, 1))
    assert recompose(EMPTY, (EMPTY, Partition((1,))), 2) == Partition((2,))
    dec1 = LittlewoodDecomposition.of(EMPTY, (Partition((3, 1)),), 1)
    assert content_delta(dec1, 0, 3) == [3]
    assert content_delta(dec1, 0, -2) == [-2]
    with pytest.raises(ValueError):
        content_delta(dec, 0, 5)


def _random_instances(seed, count, ts=(1, 2, 3, 4), quotient_max=3, core_max=5):
    rng = random.Random(seed)
    pool = [lam for n in range(quotient_max + 1) for lam in enumerate_partitions(n)]
    cores = {
        t: [mu for n in range(core_max + 1) for mu in enumerate_partitions(n) if is_t_core(mu, t)]
        for t in ts
    }
    for _ in range(count):
        t = rng.choice(ts)
        mu = rng.choice(cores[t])
        quots = tuple(rng.choice(pool) for _ in range(t))
        i = rng.randrange(t)
        c = rng.choice(corners(quots[i]).x)
        dec = LittlewoodDecomposition.of(mu, quots, t)
        grown = quots[:i] + (quots[i].add_cell(c),) + quots[i + 1 :]
        yield dec, i, c, recompose(mu, grown, t)


def test_content_delta_matches_recomputation():
    for dec, i, c, lam_plus in _random_instances(2, 80):
        lam = dec.partition()
        assert Counter(contents(lam)) + Counter(content_delta(dec, i, c)) == Counter(contents(lam_plus))


def test_content_delta_aggregates_over_chain():
    # the content multiset of lam relative to its core is the union of the
    # per-box windows t*c + b_i - j over all quotient boxes
    rng = random.Random(3)
    pool = [lam for n in range(5) for lam in enumerate_partitions(n)]
    for _ in range(40):
        t = rng.choice((2, 3, 4))
        cores = [mu for n in range(6) for mu in enumerate_partitions(n) if is_t_core(mu, t)]
        mu = rng.choice(cores)
        quots = tuple(rng.choice(pool) for _ in range(t))
        dec = LittlewoodDecomposition.of(mu, quots, t)
        lam = dec.partition()
        expected = Counter(contents(mu))
        for i, q in enumerate(quots):
            for c in contents(q):
                expected.update(c * t + dec.offsets.b[i] - j for j in range(t))
        assert Counter(contents(lam)) == expected


def test_hook_delta_power_examples():
    dec = LittlewoodDecomposition.of(EMPTY, (EMPTY, EMPTY), 2)
    # one net new multiple-of-t hook per box
    assert hook_delta_power(dec, 0, 0, 0, 0) == 1
    assert hook_delta_power_total(dec, 0, 0, 0) == 2
    with pytest.raises(ValueError):
        hook_delta_power(dec, 0, 0, 0, 3)
    with pytest.raises(ValueError):
        hook_delta_power(dec, 0, 0, 2, 2)


def test_hook_delta_power_matches_recomputation():
    for dec, i, c, lam_plus in _random_instances(4, 120):
        lam = dec.partition()
        t = dec.t
        for k in range(t):
            for power in (0, 2, 4):
                spec = StatSpec("hook", t, k, power, paired=k != 0)
                expected = stat_eval(lam_plus, spec) - stat_eval(lam, spec)
                assert hook_delta_power(dec, i, c, k, power) == expected
        for power in (0, 2, 4):
            direct = sum(h**power for h in hook_lengths(lam_plus)) - sum(
                h**power for h in hook_lengths(lam)
            )
            assert hook_delta_power_total(dec, i, c, power) == direct


def test_hook_delta_total_at_t1():
    lam = Partition((2, 1))
    dec_at = LittlewoodDecomposition.of(EMPTY, (lam,), 1)
    for c in corners(lam).x:
        grown = lam.add_cell(c)
        for power in (0, 2, 4):
            direct = sum(h**power for h in hook_lengths(grown)) - sum(
                h**power for h in hook_lengths(lam)
            )
            assert hook_delta_power_total(dec_at, 0, c, power) == direct
            assert hook_delta_power(dec_at, 0, c, 0, power) == direct


def test_weighted_corner_sums():
    # sum over addable corners of (H_lam / H_lam+) * x is 0; with x^2 it is |lam|
    for n in range(17):
        for lam in enumerate_partitions(n):
            h0 = hook_product(lam)
            first = sum(Fraction(h0, hook_product(lam.add_cell(c))) * c for c in corners(lam).x)
            second = sum(Fraction(h0, hook_product(lam.add_cell(c))) * c * c for c in corners(lam).x)
            assert first == 0
            assert second == lam.size


def _lagrange_eval(points, x):
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


@pytest.mark.parametrize("spec_kind,power", [("hook", 2), ("content", 2), ("content", 1)])
def test_increments_are_polynomial_in_corner_content(spec_kind, power):
    # the one-box increment, as a function of the added corner's content, lies
    # on a single polynomial whose coefficients depend only on (lam, i)
    t = 3
    staircase = Partition((4, 3, 2, 1))
    quots = (staircase, Partition((1,)), EMPTY)
    dec = LittlewoodDecomposition.of(EMPTY, quots, t)
    lam = dec.partition()
    k = 1
    spec = StatSpec(spec_kind, t, k, power, paired=spec_kind == "hook")
    points = []
    for c in corners(staircase).x:
        grown = (staircase.add_cell(c),) + quots[1:]
        lam_plus = recompose(EMPTY, grown, t)
        points.append((c, stat_eval(lam_plus, spec) - stat_eval(lam, spec)))
    degree = power
    fit, rest = points[: degree + 1], points[degree + 1 :]
    assert len(rest) >= 1
    for c, value in rest:
        assert _lagrange_eval(fit, c) == value
