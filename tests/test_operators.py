import os
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest

from oracles import apply_Dt_power_inductive
from tcores import operators
from tcores.boundary import BoundarySequence
from tcores.corners import StatSpec
from tcores.littlewood import decompose, is_t_core, t_core
from tcores.operators import (
    PartitionStatistic,
    _check_path_recursion,
    apply_Dt,
    apply_Dt_power,
    certify_polynomiality,
    covers,
    forward_differences,
    layer_sum,
)
from tcores.partitions import Partition, enumerate_partitions
from tcores.suites import _mixed_statistics, _q_exponent_tuples, _standard_statistics, operators_suite
from tcores.weights import G_lambda, layer_walk

EMPTY = Partition()
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_covers_examples():
    assert covers(EMPTY, 2) == (Partition((1, 1)), Partition((2,)))
    assert covers(EMPTY, 1) == (Partition((1,)),)
    cov = covers(Partition((3, 1)), 3)
    assert len(cov) == 3
    for lam in cov:
        assert t_core(lam, 3) == Partition((3, 1))
        assert sum(q.size for q in decompose(lam, 3).quotients) == 1


def test_covers_match_quotient_space():
    from tcores.littlewood import recompose

    for n in range(9):
        for lam in enumerate_partitions(n):
            for t in (1, 2, 3):
                dec = decompose(lam, t)
                grown = set()
                for i, q in enumerate(dec.quotients):
                    for c in q.addable_contents():
                        quots = dec.quotients[:i] + (q.add_cell(c),) + dec.quotients[i + 1 :]
                        grown.add(recompose(dec.core, quots, t))
                assert set(covers(lam, t)) == grown


def test_apply_Dt_examples():
    g = PartitionStatistic(2)
    for n in range(10):
        for lam in enumerate_partitions(n):
            assert apply_Dt(g, lam, 2) == 0
    assert apply_Dt(lambda lam: 1, EMPTY, 2) == 1
    g2 = PartitionStatistic(2, specs=(StatSpec("hook", 2, 0, 2),))
    assert apply_Dt(g2, EMPTY, 2) == 4


def test_apply_Dt_power_examples():
    g = PartitionStatistic(3)
    assert apply_Dt_power(g, Partition((1,)), 3, 0) == 1
    for r in (1, 2, 3):
        assert apply_Dt_power(g, Partition((1,)), 3, r) == 0
    g2 = PartitionStatistic(2, specs=(StatSpec("hook", 2, 0, 2),))
    assert apply_Dt_power(g2, EMPTY, 2, 2) == 6
    with pytest.raises(ValueError):
        apply_Dt_power(g, EMPTY, 3, -1)


def test_layer_sum_examples():
    g = PartitionStatistic(2)
    for n in range(5):
        assert layer_sum(g, EMPTY, 2, n) == 1
    g2 = PartitionStatistic(2, specs=(StatSpec("hook", 2, 0, 2),))
    assert layer_sum(g2, EMPTY, 2, 1) == 4
    g3 = PartitionStatistic(2, specs=(StatSpec("content", 2, 1, 2),))
    assert layer_sum(g3, EMPTY, 2, 1) == 1
    with pytest.raises(ValueError):
        layer_sum(g, Partition((2,)), 2, 1)


def test_forward_differences():
    rows = forward_differences([0, 4, 14, 30])
    assert rows[0] == [0, 4, 14, 30]
    assert rows[1] == [4, 10, 16]
    assert rows[2] == [6, 6]
    assert rows[3] == [0]


def test_certify_hook_square_divisible():
    g = PartitionStatistic(2, specs=(StatSpec("hook", 2, 0, 2),))
    table = certify_polynomiality(g, EMPTY, 2, 2)
    assert table.verdict == "certified"
    assert table.values[:4] == [0, 4, 14, 30]
    assert [v == n * 4 + 6 * (n * (n - 1) // 2) for n, v in enumerate(table.values)] == [True] * 6
    assert table.empirical_degree == 2
    assert table.witness is None
    assert table.degree == 2


def test_certify_constant_weight():
    table = certify_polynomiality(PartitionStatistic(3), EMPTY, 3, 0)
    assert table.verdict == "certified"
    assert table.values == [1, 1, 1, 1]
    assert table.empirical_degree == 0


def test_certify_mixed_product_small():
    g = PartitionStatistic(
        3,
        specs=(StatSpec("hook", 3, 1, 2, paired=True), StatSpec("content", 3, 0, 2)),
    )
    table = certify_polynomiality(g, EMPTY, 3, 4)
    assert table.verdict == "certified"
    assert len(table.values) == 8  # window n <= 7
    assert table.empirical_degree <= 4


def test_certify_refutation_with_witness():
    # a statistic whose averages are genuinely quadratic is refuted at degree 1
    g = PartitionStatistic(2, specs=(StatSpec("hook", 2, 0, 2),))
    table = certify_polynomiality(g, EMPTY, 2, 1)
    assert table.verdict == "refuted"
    assert table.witness == 0
    assert table.empirical_degree == 2


def test_binomial_transform_round_trip():
    mu = Partition((1,))
    t = 2
    for g in (
        PartitionStatistic(t),
        PartitionStatistic(t, specs=(StatSpec("hook", t, 1, 2, paired=True),)),
        PartitionStatistic(t, specs=(StatSpec("content", t, 0, 2),)),
        PartitionStatistic(t, q_exponents=(Partition((2,)), EMPTY)),
    ):
        from math import comb

        dvals = [apply_Dt_power(g, mu, t, r) for r in range(5)]
        for n in range(5):
            direct = layer_sum(g, mu, t, n)
            assert direct == sum(comb(n, k) * dvals[k] for k in range(n + 1))


def test_telescoping():
    mu = EMPTY
    t = 3
    g = PartitionStatistic(t, specs=(StatSpec("hook", t, 1, 2, paired=True),))
    for n in range(4):
        lhs = layer_sum(g, mu, t, n + 1) - layer_sum(g, mu, t, n)
        rhs = layer_sum(lambda lam: apply_Dt(g, lam, t), mu, t, n)
        assert lhs == rhs


def test_q_statistic_vanishing_order():
    # total corner-power weight w forces D^r = 0 at r = ceil(w/2) + 1
    t = 2
    for exponents, w in (
        ((Partition((2,)), EMPTY), 2),
        ((Partition((2,)), Partition((2,))), 4),
        ((Partition((4,)), EMPTY), 4),
    ):
        g = PartitionStatistic(t, q_exponents=exponents)
        r = -(-w // 2) + 1
        for lam in enumerate_partitions(4):
            assert apply_Dt_power(g, lam, t, r) == 0


def test_statistic_labels_and_degree_bounds():
    g = PartitionStatistic(2, specs=(StatSpec("hook", 2, 0, 2),))
    assert g.label() == "G*hook:t=2,j=0,pow=2"
    assert g.degree_bound() == 3
    gq = PartitionStatistic(2, weight=True, q_exponents=(Partition((2, 2)), EMPTY))
    assert gq.degree_bound() == 3
    assert "q[2,2;-]" in gq.label()
    assert PartitionStatistic(2, weight=False).label() == "1"


def test_statistic_evaluation_matches_parts():
    lam = Partition((3, 1))
    g = PartitionStatistic(
        2,
        specs=(StatSpec("hook", 2, 0, 2),),
        q_exponents=(Partition((2,)), EMPTY),
    )
    from tcores.corners import q_tuple, stat_eval
    from tcores.littlewood import t_quotients
    from tcores.weights import G_lambda

    expected = (
        G_lambda(lam, 2)
        * stat_eval(lam, StatSpec("hook", 2, 0, 2))
        * q_tuple(t_quotients(lam, 2), (Partition((2,)), EMPTY))
    )
    assert g(lam) == expected
def test_covers_rejects_bad_modulus():
    with pytest.raises(ValueError):
        covers(EMPTY, 0)


def test_statistic_rejects_wrong_exponent_count():
    with pytest.raises(ValueError):
        PartitionStatistic(3, q_exponents=(Partition((2,)),))


def test_reimports_do_not_pin_old_packages():
    # Nothing at module level may hold a package class in a process-wide
    # cache (typing caches subscripts like Callable[[Partition], ...] in
    # 128-entry LRUs), or every re-import keeps the old package alive: one
    # more live Partition class per re-import.
    code = """
import gc, sys
for _ in range(20):
    for name in [m for m in sys.modules if m == "tcores" or m.startswith("tcores.")]:
        del sys.modules[name]
    import tcores
gc.collect()
print(sum(1 for o in gc.get_objects() if isinstance(o, type) and o.__name__ == "Partition"))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 2


def _covers_window(lam, t):
    """Oracle: every (0, 1) -> (1, 0) swap at distance t in the boundary
    window, the boundary-word form of adding one t-hook."""
    seq = BoundarySequence.from_partition(lam)
    out = []
    for i in range(seq.lo - t, seq.hi + 1):
        if seq.value(i) == 0 and seq.value(i + t) == 1:
            lo = min(seq.lo, i)
            hi = max(seq.hi, i + t)
            bits = [seq.value(p) for p in range(lo, hi + 1)]
            bits[i - lo] = 1
            bits[i + t - lo] = 0
            out.append(BoundarySequence(lo, bits).to_partition())
    return tuple(sorted(out))


def test_abacus_covers_match_boundary_window():
    pairs = 0
    for n in range(15):
        for lam in enumerate_partitions(n):
            for t in range(1, 7):
                assert covers(lam, t) == _covers_window(lam, t)
                pairs += 1
    assert pairs == 3048


# The non-empty cores of the suites' grids; each is used at the t where it is a t-core.
SUITE_CORES = [Partition(p) for p in ((1,), (2,), (2, 1), (3, 1), (5, 3, 1, 1))]


def _suite_layers():
    for t in range(1, 5):
        for mu in [EMPTY] + [mu for mu in SUITE_CORES if is_t_core(mu, t)]:
            for n in range(6):
                yield t, mu, n


def test_integer_measure_matches_generic_layer_sum():
    # F^2 / (n! t^n) with integer sums against the generic sum of F * g(lam)
    for t, mu, n in _suite_layers():
        stats = _standard_statistics(t) + (_mixed_statistics(t) if t >= 2 else [])
        for g in stats:
            generic = sum(F * g(lam) for lam, F in layer_walk(mu, t, n))
            assert layer_sum(g, mu, t, n) == generic, (t, mu, n, g.label())


def test_F_times_G_is_F_squared_over_layer_norm():
    for t, mu, n in _suite_layers():
        for lam, F in layer_walk(mu, t, n):
            assert F * G_lambda(lam, t) == Fraction(F * F, factorial(n) * t**n)



def test_unit_normalization_check_reads_G(monkeypatch):
    # The operators suite's "sum F*G=1" compares G, from the hooks, with F,
    # from the quotients; the F^2 measure never evaluates G and would miss this.
    monkeypatch.setattr(operators, "G_lambda", lambda lam, t: 2 * G_lambda(lam, t))
    rep = operators_suite(dG_size=1, dG_ts=(2,), n_max=1, ts=(2,), eq11_n=0)
    assert rep.first_failure["check"] == "sum F*G=1"

@pytest.fixture
def fresh_path_checks():
    _check_path_recursion.cache_clear()
    yield
    _check_path_recursion.cache_clear()


def test_path_recursion_holds_on_suite_layers(fresh_path_checks):
    for t, mu, n in _suite_layers():
        assert _check_path_recursion(mu, t, n) is None


def test_path_recursion_catches_a_dropped_cover(fresh_path_checks, monkeypatch):
    real = operators._cover_parts
    # (2, 2) is reached at t=2 from both (2) and (1, 1), so dropping it from
    # (2) leaves the cover sets whole and only breaks the F sum; (2, 1, 1)
    # is reached from (2) alone, so dropping it loses it from the covers.
    for victim, dropped in (((2,), (2, 2)), ((2,), (2, 1, 1))):
        monkeypatch.setattr(
            operators, "_cover_parts",
            lambda parts, t, victim=victim, dropped=dropped: (
                nu for nu in real(parts, t) if parts != victim or nu != dropped
            ),
        )
        with pytest.raises(RuntimeError, match="path recursion"):
            _check_path_recursion(EMPTY, 2, 1)
        _check_path_recursion.cache_clear()


def test_path_recursion_catches_an_F_off_by_one(fresh_path_checks, monkeypatch):
    real = operators.layer_walk

    def off_by_one(mu, t, n):
        pairs = real(mu, t, n)
        if n != 2:
            return pairs
        (lam, F), rest = pairs[0], pairs[1:]
        return ((lam, F + 1),) + rest

    monkeypatch.setattr(operators, "layer_walk", off_by_one)
    with pytest.raises(RuntimeError, match="path recursion"):
        _check_path_recursion(EMPTY, 2, 1)


def test_path_recursion_checks_the_F_squared_normalization(fresh_path_checks, monkeypatch):
    # Doubling every F keeps F(nu) = sum of F(lam) over lower covers, so only
    # the sum of F^2 can catch it.
    real = operators.layer_walk
    monkeypatch.setattr(
        operators, "layer_walk", lambda mu, t, n: tuple((lam, 2 * F) for lam, F in real(mu, t, n))
    )
    with pytest.raises(RuntimeError, match="F\\^2"):
        _check_path_recursion(EMPTY, 3, 2)


def test_certify_runs_the_path_recursion_check(fresh_path_checks, monkeypatch):
    # drops the first of each partition's covers in `covers`' sorted order
    real = operators._cover_parts
    monkeypatch.setattr(
        operators, "_cover_parts", lambda parts, t: sorted(real(parts, t), key=Partition)[1:]
    )
    with pytest.raises(RuntimeError, match="path recursion"):
        certify_polynomiality(PartitionStatistic(2), EMPTY, 2, 0)


def test_path_recursion_leaves_no_covers_in_the_cache(fresh_path_checks):
    covers.cache_clear()
    for n in range(8):
        _check_path_recursion(EMPTY, 3, n)
    assert covers.cache_info().currsize == 0


def test_covers_are_the_sorted_cover_parts():
    for n in range(11):
        for lam in enumerate_partitions(n):
            for t in range(1, 5):
                parts = operators._cover_parts(lam.parts, t)
                assert covers(lam, t) == tuple(sorted(map(Partition, parts)))


def test_apply_Dt_power_matches_the_inductive_oracle():
    # the F-weighted layer sums against the memoized recursion over covers
    lams = [lam for n in range(7) for lam in enumerate_partitions(n)]
    for t in (2, 3):
        q_stats = [PartitionStatistic(t, q_exponents=e) for e in _q_exponent_tuples(t, 4)]
        assert len(q_stats) == 7
        for g in q_stats + _standard_statistics(t):
            for lam in lams:
                for r in range(4):
                    expected = apply_Dt_power_inductive(g, lam, t, r)
                    assert apply_Dt_power(g, lam, t, r) == expected, (t, g.label(), lam, r)


# (2) is no 2-core, so the F^2 normalization says nothing above it.
NON_CORE = Partition((2,))
Q2 = PartitionStatistic(2, q_exponents=(Partition((2,)), EMPTY))


def test_apply_Dt_power_catches_F_doubled_above_a_non_core(fresh_path_checks, monkeypatch):
    # Doubling F in every layer keeps F(nu) = sum of F(lam) over lower covers,
    # and above a non-core no F^2 sum pins F's scale: only the anchor F = 1 at
    # layer 0 does.  Without it D^1 of Q2 would read 1, not 1/2.
    assert not is_t_core(NON_CORE, 2)
    assert apply_Dt_power(Q2, NON_CORE, 2, 1) == Fraction(1, 2)
    _check_path_recursion.cache_clear()
    real = operators.layer_walk
    monkeypatch.setattr(
        operators, "layer_walk", lambda mu, t, n: tuple((lam, 2 * F) for lam, F in real(mu, t, n))
    )
    assert _check_path_recursion(NON_CORE, 2, 0) is None
    for r in range(4):
        with pytest.raises(RuntimeError, match="path recursion"):
            apply_Dt_power(Q2, NON_CORE, 2, r)


def test_apply_Dt_power_catches_an_F_off_by_one_at_layer_0(fresh_path_checks, monkeypatch):
    real = operators.layer_walk
    monkeypatch.setattr(
        operators, "layer_walk", lambda mu, t, n: tuple((lam, F + (n == 0)) for lam, F in real(mu, t, n))
    )
    for r in range(4):
        with pytest.raises(RuntimeError, match="path recursion"):
            apply_Dt_power(Q2, NON_CORE, 2, r)


@pytest.mark.parametrize("victim, dropped, first_r", [((2,), (4,), 1), ((4,), (6,), 2)])
def test_apply_Dt_power_catches_a_dropped_cover(fresh_path_checks, monkeypatch, victim, dropped, first_r):
    # (4) is reached at t=2 from (2) alone and (6) from (4) alone; a power
    # below first_r never reads the layer whose covers lose them
    real = operators._cover_parts
    monkeypatch.setattr(
        operators, "_cover_parts",
        lambda parts, t: (nu for nu in real(parts, t) if parts != victim or nu != dropped),
    )
    for r in range(first_r):
        assert apply_Dt_power(Q2, NON_CORE, 2, r) == [0, Fraction(1, 2)][r]
    for r in range(first_r, 4):
        with pytest.raises(RuntimeError, match="path recursion"):
            apply_Dt_power(Q2, NON_CORE, 2, r)
