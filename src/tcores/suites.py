"""Named verification suites.

Each suite sweeps a parameter grid, compares exact left- and right-hand
sides, and returns a SuiteReport; the CLI `verify` command is a thin
wrapper.  Everything is integer/rational arithmetic, so every comparison
is exact equality.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .corners import (
    StatSpec,
    content_delta,
    corners,
    hook_delta_power,
    hook_delta_power_total,
    q_increment,
    q_k,
    stat_eval,
)
from .littlewood import (
    LittlewoodDecomposition,
    bk_pairs,
    core_offsets,
    decompose,
    is_t_core,
    recompose,
    residue_hook_count,
)
from .operators import PartitionStatistic, apply_Dt, apply_Dt_power, certify_polynomiality, layer_sum
from .partitions import (
    Partition,
    contents,
    enumerate_partitions,
    hook_lengths,
    hook_multiset_mod,
    syt_count_oracle,
)
from .weights import G_lambda, _compositions, f_lambda, layer_walk, multinomial

EMPTY = Partition()
SUITE_NAMES = ("bijection", "fundamental", "per-partition", "averages", "operators", "polynomiality")


@dataclass
class SuiteReport:
    """What a suite checked: its grid, the check count, the failure count,
    and the first failing check with its inputs and both sides."""

    suite: str
    grid: dict
    checks: int = 0
    failures: int = 0
    first_failure: dict | None = None

    @property
    def ok(self) -> bool:
        """No failures, and at least one check: a suite that swept nothing proved nothing."""
        return self.failures == 0 and self.checks > 0

    def check(self, name: str, lhs, rhs, **inputs) -> None:
        """Count one exact comparison lhs == rhs, and record it if it is the first to fail."""
        self.checks += 1
        if lhs != rhs:
            self.failures += 1
            if self.first_failure is None:
                self.first_failure = {
                    "check": name,
                    "inputs": {k: str(v) for k, v in inputs.items()},
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }


def _all_partitions_up_to(max_size: int):
    for n in range(max_size + 1):
        yield from enumerate_partitions(n)


def _t_cores_up_to(t: int, max_size: int) -> list[Partition]:
    return [lam for lam in _all_partitions_up_to(max_size) if is_t_core(lam, t)]


# ---------------------------------------------------------------- bijection


def bijection_suite(max_size: int = 20, ts: tuple[int, ...] = (1, 2, 3, 4, 5)) -> SuiteReport:
    """Decomposition round trip, size identity, and the hook-division
    multiset identity, for every partition up to max_size and every t."""
    rep = SuiteReport("bijection", {"max_size": max_size, "t": list(ts)})
    for t in ts:
        for lam in _all_partitions_up_to(max_size):
            dec = decompose(lam, t)
            rep.check("roundtrip", dec.partition(), lam, t=t, lam=lam)
            rep.check(
                "size",
                lam.size,
                dec.core.size + t * sum(dec.quotient_sizes),
                t=t,
                lam=lam,
            )
            divided = sorted(h // t for h in hook_lengths(lam) if h % t == 0)
            pooled = sorted(h for q in dec.quotients for h in hook_lengths(q))
            rep.check("hook-division", divided, pooled, t=t, lam=lam)
    return rep


# -------------------------------------------------------------- fundamental


def fundamental_suite(max_size: int = 12, square_max: int = 8) -> SuiteReport:
    """The worked examples pinned to exact values, the hook-length formula
    against the exhaustive tableau count, and the squared-count identity."""
    rep = SuiteReport("fundamental", {"max_size": max_size, "square_max": square_max})

    lam = Partition((18, 7, 6))
    dec = decompose(lam, 3)
    rep.check("example/core", dec.core, Partition((3, 1)), lam=lam, t=3)
    rep.check(
        "example/quotients",
        dec.quotients,
        (Partition((2,)), EMPTY, Partition((5, 2))),
        lam=lam,
        t=3,
    )

    lam = Partition((6, 3, 2, 2))
    rep.check(
        "example/hooks",
        list(hook_lengths(lam)),
        [9, 8, 5, 3, 2, 1, 5, 4, 1, 3, 2, 2, 1],
        lam=lam,
    )
    rep.check("example/7-core", hook_multiset_mod(lam, 7, {0}), [], lam=lam)
    cd = corners(lam)
    rep.check("example/corners", (cd.x, cd.y), ((-4, 0, 2, 6), (-2, 1, 5)), lam=lam)
    rep.check("example/q1", q_k(lam, 1), 0, lam=lam)
    rep.check("example/q2", q_k(lam, 2), 2 * lam.size, lam=lam)

    mu = Partition((5, 3, 1, 1))
    off = core_offsets(mu, 3)
    rep.check("example/b", off.b, (0, 7, -4), mu=mu, t=3)
    rep.check("example/d", off.d, (0, 2, -2), mu=mu, t=3)
    rep.check("example/sum-d", sum(off.d), 0, mu=mu, t=3)

    for lam in _all_partitions_up_to(max_size):
        rep.check("hook-formula", f_lambda(lam), syt_count_oracle(lam), lam=lam)
    for n in range(square_max + 1):
        total = sum(f_lambda(lam) ** 2 for lam in enumerate_partitions(n))
        rep.check("sum-f-squared", total, factorial(n), n=n)
    return rep


# ---------------------------------------------------------------- operators


def _standard_statistics(t: int) -> list[PartitionStatistic]:
    stats = [
        PartitionStatistic(t),
        PartitionStatistic(t, specs=(StatSpec("hook", t, 0, 2),)),
        PartitionStatistic(t, specs=(StatSpec("content", t, 0, 2),)),
        PartitionStatistic(t, q_exponents=(Partition((2,)),) + (EMPTY,) * (t - 1)),
        PartitionStatistic(t, specs=(StatSpec("hook", t, 0, 2), StatSpec("content", t, 1 % t, 2))),
    ]
    if t >= 2:
        stats.insert(2, PartitionStatistic(t, specs=(StatSpec("hook", t, 1, 2, paired=True),)))
        stats.insert(4, PartitionStatistic(t, specs=(StatSpec("content", t, 1, 1),)))
    return stats


def _core_grid(ts: tuple[int, ...], extra: dict[int, tuple] | None = None) -> list[tuple[int, Partition]]:
    grid = []
    for t in ts:
        cores = [EMPTY]
        for parts in (extra or {}).get(t, ()):
            cores.append(Partition(parts))
        grid.extend((t, mu) for mu in cores)
    return grid


def operators_suite(
    dG_size: int = 14,
    dG_ts: tuple[int, ...] = (1, 2, 3, 4),
    n_max: int = 4,
    ts: tuple[int, ...] = (1, 2, 3),
    eq11_n: int = 5,
) -> SuiteReport:
    """Vanishing of D on the weight G, the unit normalization of the layer
    averages, the multinomial identity, and the binomial-transform pair."""
    rep = SuiteReport(
        "operators",
        {"dG_size": dG_size, "dG_t": list(dG_ts), "n_max": n_max, "t": list(ts), "eq11_n": eq11_n},
    )

    for t in dG_ts:
        g = PartitionStatistic(t)
        for lam in _all_partitions_up_to(dG_size):
            rep.check("D(G)=0", apply_Dt(g, lam, t), 0, t=t, lam=lam)

    unit_grid = _core_grid(ts, {2: ((1,), (2, 1)), 3: ((1,), (3, 1))})
    for t, mu in unit_grid:
        g = PartitionStatistic(t)
        for n in range(n_max + 1):
            # g.__call__ is no PartitionStatistic, so the generic sum reads G
            # from the hooks against F from the quotients
            rep.check("sum F*G=1", layer_sum(g.__call__, mu, t, n), 1, t=t, mu=mu, n=n)

    for t in ts:
        for n in range(eq11_n + 1):
            total = Fraction(0)
            for comp in _compositions(n, t):
                weight = Fraction(multinomial(comp))
                for quots in itertools.product(*[list(enumerate_partitions(c)) for c in comp]):
                    term = weight
                    for q in quots:
                        term *= Fraction(f_lambda(q) ** 2, factorial(q.size))
                    total += term
            rep.check("multinomial=t^n", total, t**n, t=t, n=n)

    transform_grid = _core_grid(ts, {2: ((1,),), 3: ((5, 3, 1, 1),)})
    for t, mu in transform_grid:
        for g in _standard_statistics(t):
            # apply_Dt_power checks the path recursion of the layers it sums
            dvals = [apply_Dt_power(g, mu, t, k) for k in range(n_max + 1)]
            pvals = [layer_sum(g, mu, t, n) for n in range(n_max + 1)]
            for n in range(n_max + 1):
                rep.check(
                    "binomial-transform",
                    pvals[n],
                    sum(comb(n, k) * dvals[k] for k in range(n + 1)),
                    t=t,
                    mu=mu,
                    n=n,
                    g=g.label(),
                )
            for n in range(n_max):
                step = layer_sum(lambda lam: apply_Dt(g, lam, t), mu, t, n)
                rep.check("telescoping", pvals[n + 1] - pvals[n], step, t=t, mu=mu, n=n, g=g.label())
    return rep


# ------------------------------------------------------------ per-partition


def _paired_diff(lam: Partition, t: int, k: int) -> int:
    hooks = stat_eval(lam, StatSpec("hook", t, k, 2, paired=True))
    conts = stat_eval(lam, StatSpec("content", t, k, 2, paired=True))
    return hooks - conts


def per_partition_suite(
    max_size: int = 18,
    ts: tuple[int, ...] = (2, 3, 4),
    layer_n: int = 3,
    samples: int = 300,
    sample_ts: tuple[int, ...] = (1, 2, 3, 4),
    seed: int = 20260808,
) -> SuiteReport:
    """Per-partition square identities (empty core and general core) plus
    randomized single-box increment checks against direct recomputation."""
    rep = SuiteReport(
        "per-partition",
        {
            "max_size": max_size,
            "t": list(ts),
            "layer_n": layer_n,
            "samples": samples,
            "sample_t": list(sample_ts),
            "seed": seed,
        },
    )
    _square_identity_checks(rep, max_size, ts, layer_n)
    _increment_checks(rep, samples, sample_ts, seed)
    return rep


def _square_identity_checks(rep: SuiteReport, max_size: int, ts: tuple[int, ...], layer_n: int) -> None:
    for t in ts:
        for n in range(max_size // t + 1):
            for lam, _ in layer_walk(EMPTY, t, n):
                sizes = decompose(lam, t).quotient_sizes
                for k in range(t):
                    rhs = 2 * t * t * (
                        sum(sizes[i] * sizes[i + k] for i in range(t - k))
                        + sum(sizes[i] * sizes[i + t - k] for i in range(k))
                    )
                    rep.check("square-diff/empty-core", _paired_diff(lam, t, k), rhs, t=t, k=k, lam=lam)

    for lam in _all_partitions_up_to(max_size):
        lhs = sum(h * h for h in hook_lengths(lam)) - sum(c * c for c in contents(lam))
        rep.check("hook2-content2", lhs, lam.size**2, lam=lam)

    grid = [(t, Partition(core)) for t, core in
            ((2, (1,)), (3, (1,)), (4, (1,)), (3, (2,)), (4, (2,)), (3, (5, 3, 1, 1))) if t in ts]
    for t, mu in grid:
        off = core_offsets(mu, t)
        b, d = off.b, off.d
        for n in range(layer_n + 1):
            for lam, _ in layer_walk(mu, t, n):
                dec = decompose(lam, t)
                sizes = dec.quotient_sizes
                q3 = [q_k(q, 3) for q in dec.quotients]
                for k in range(1, t):
                    rhs = Fraction(_paired_diff(mu, t, k))
                    for i, j in bk_pairs(t, k):
                        rhs += (
                            2 * t * t * sizes[i] * sizes[j]
                            + t * (b[j] + j - 2 * b[i]) * d[j] * sizes[i]
                            + t * (b[i] + i - 2 * b[j]) * d[i] * sizes[j]
                            - Fraction(t * t, 3) * (d[j] * q3[i] + d[i] * q3[j])
                        )
                    rep.check("square-diff/core", Fraction(_paired_diff(lam, t, k)), rhs,
                              t=t, mu=mu, k=k, lam=lam)
                lhs0 = stat_eval(lam, StatSpec("hook", t, 0, 2)) - stat_eval(
                    lam, StatSpec("content", t, 0, 2)
                )
                rhs0 = t * t * sum(
                    Fraction(sizes[i] ** 2 - d[i] ** 2 * sizes[i]) - Fraction(d[i] * q3[i], 3)
                    for i in range(t)
                ) - stat_eval(mu, StatSpec("content", t, 0, 2))
                rep.check("square-diff/divisible", Fraction(lhs0), rhs0, t=t, mu=mu, lam=lam)


def _increment_checks(rep: SuiteReport, samples: int, sample_ts: tuple[int, ...], seed: int) -> None:
    rng = random.Random(seed)
    pool = list(_all_partitions_up_to(3))
    cores = {t: _t_cores_up_to(t, 5) for t in sample_ts}
    for _ in range(samples):
        t = rng.choice(sample_ts)
        mu = rng.choice(cores[t])
        quots = tuple(rng.choice(pool) for _ in range(t))
        i = rng.randrange(t)
        xs = corners(quots[i]).x
        c = rng.choice(xs)
        dec = LittlewoodDecomposition.of(mu, quots, t)
        lam = dec.partition()
        grown = quots[:i] + (quots[i].add_cell(c),) + quots[i + 1 :]
        lam_plus = recompose(mu, grown, t)

        delta = content_delta(dec, i, c)
        rep.check(
            "content-delta",
            Counter(contents(lam)) + Counter(delta),
            Counter(contents(lam_plus)),
            t=t, mu=mu, quotient=i, content=c,
        )
        for k in (2, 3, 4):
            rep.check(
                "q-increment",
                q_increment(quots[i], k, c),
                q_k(grown[i], k) - q_k(quots[i], k),
                t=t, mu=mu, quotient=i, content=c, k=k,
            )
        for k in range(t):
            for power in (0, 2, 4):
                spec = StatSpec("hook", t, k, power, paired=k != 0)
                rep.check(
                    "hook-delta",
                    hook_delta_power(dec, i, c, k, power),
                    stat_eval(lam_plus, spec) - stat_eval(lam, spec),
                    t=t, mu=mu, quotient=i, content=c, k=k, power=power,
                )
        for power in (0, 2, 4):
            rep.check(
                "hook-delta-total",
                hook_delta_power_total(dec, i, c, power),
                sum(h**power for h in hook_lengths(lam_plus))
                - sum(h**power for h in hook_lengths(lam)),
                t=t, mu=mu, quotient=i, content=c, power=power,
            )


# ----------------------------------------------------------------- averages


@dataclass(frozen=True)
class _WeightedPowerSum:
    """G times the unfiltered power sum of hooks or contents (all residues)."""

    t: int
    kind: str
    power: int

    def __call__(self, lam: Partition) -> Fraction:
        vals = hook_lengths(lam) if self.kind == "hook" else contents(lam)
        return G_lambda(lam, self.t) * sum(v**self.power for v in vals)


def averages_suite(ts: tuple[int, ...] = (2, 3), n_max: int = 4) -> SuiteReport:
    """The closed-form layer averages of squared hooks and contents, on the
    fixed core grid, matched exactly."""
    rep = SuiteReport("averages", {"t": list(ts), "n_max": n_max})
    grid = _core_grid(ts, {2: ((1,),), 3: ((5, 3, 1, 1), (3, 1))})
    for t, mu in grid:
        off = core_offsets(mu, t)
        mu_hooks_sq = sum(h * h for h in hook_lengths(mu))
        mu_conts_sq = sum(c * c for c in contents(mu))
        for n in range(n_max + 1):
            binom2 = comb(n, 2)
            for k in range(1, t):
                g = PartitionStatistic(t, specs=(StatSpec("hook", t, k, 2, paired=True),))
                closed = (
                    6 * t * binom2
                    + (2 * k * (t - k)
                       + 4 * t * residue_hook_count(mu, t, k)
                       + 4 * t * residue_hook_count(mu, t, t - k)) * n
                    + stat_eval(mu, StatSpec("hook", t, k, 2, paired=True))
                )
                rep.check("hook-sq/paired", layer_sum(g, mu, t, n), closed,
                          t=t, mu=mu, n=n, k=k)
            g = PartitionStatistic(t, specs=(StatSpec("hook", t, 0, 2),))
            rep.check("hook-sq/divisible", layer_sum(g, mu, t, n),
                      n * t * t + 3 * t * binom2, t=t, mu=mu, n=n)
            g_all = _WeightedPowerSum(t, "hook", 2)
            closed = (
                Fraction(3 * t * t * n * n, 2)
                + Fraction(n * t * (t * t - 3 * t - 1 + 24 * mu.size), 6)
                + mu_hooks_sq
            )
            rep.check("hook-sq/all", layer_sum(g_all, mu, t, n), closed, t=t, mu=mu, n=n)
            for k in range(t):
                g = PartitionStatistic(t, specs=(StatSpec("content", t, k, 2),))
                offset_sq = sum((off.b[i] - ((i - k) % t)) ** 2 for i in range(t))
                closed = (
                    t * binom2
                    + Fraction(offset_sq * n, t)
                    + stat_eval(mu, StatSpec("content", t, k, 2))
                )
                got = layer_sum(g, mu, t, n)
                rep.check("content-sq/class", got, closed, t=t, mu=mu, n=n, k=k)
                if not mu:
                    rep.check("content-sq/class-empty", got, t * binom2 + k * (t - k) * n,
                              t=t, n=n, k=k)
            g_all = _WeightedPowerSum(t, "content", 2)
            got = layer_sum(g_all, mu, t, n)
            closed = (
                t * t * binom2
                + Fraction((t**3 - t) * n, 6)
                + 2 * t * n * mu.size
                + mu_conts_sq
            )
            rep.check("content-sq/all", got, closed, t=t, mu=mu, n=n)
            if not mu:
                rep.check("content-sq/all-empty", got,
                          t * t * binom2 + Fraction((t**3 - t) * n, 6), t=t, n=n)
    return rep


# ------------------------------------------------------------ polynomiality


def _mixed_statistics(t: int) -> list[PartitionStatistic]:
    """Ten product statistics built from paired hook powers and content
    powers, total power at most 6."""
    h = lambda j, p: StatSpec("hook", t, j, p, paired=True)
    c = lambda j, p: StatSpec("content", t, j, p)
    combos = [
        (h(1, 2),),
        (h(0, 2),),
        (h(1, 4),),
        (c(0, 2),),
        (c(1, 3),),
        (h(1, 2), c(0, 1)),
        (h(1, 2), c(1, 2)),
        (h(0, 2), c(1, 2)),
        (h(1, 4), c(1, 2)),
        (h(1, 2), h(0, 2), c(1, 1)),
    ]
    return [PartitionStatistic(t, specs=specs) for specs in combos]


def polynomiality_suite(
    ts: tuple[int, ...] = (2, 3),
    classic_window: int = 8,
    q_weight: int = 4,
    q_lam_size: int = 6,
) -> SuiteReport:
    """Vanishing forward-difference certificates for mixed product
    statistics, the operator-vanishing bound for pure corner statistics,
    and the classical t = 1 cases."""
    if min(ts, default=2) < 2:
        raise ValueError(
            f"polynomiality needs every t >= 2, got t = {min(ts)}: t = 1 is its classical family"
        )
    rep = SuiteReport(
        "polynomiality",
        {"t": list(ts), "classic_window": classic_window, "q_weight": q_weight, "q_lam_size": q_lam_size},
    )

    for t in ts:
        for g in _mixed_statistics(t):
            table = certify_polynomiality(g, EMPTY, t, g.degree_bound())
            rep.check("mixed/certified", table.verdict, "certified", t=t, g=g.label(),
                      degree=g.degree_bound(), witness=table.witness)
            rep.check("mixed/degree-within-bound",
                      table.empirical_degree <= g.degree_bound(), True, t=t, g=g.label())

    for t in ts:
        lams = list(_all_partitions_up_to(q_lam_size))
        if t == 3:
            lams.append(Partition((5, 3, 1, 1)))
        for exponents in _q_exponent_tuples(t, q_weight):
            w = sum(nu.size for nu in exponents)
            r = -(-w // 2) + 1
            g = PartitionStatistic(t, q_exponents=exponents)
            for lam in lams:
                rep.check("q-vanishing", apply_Dt_power(g, lam, t, r), 0,
                          t=t, lam=lam, r=r, g=g.label())

    for kind, power in (("content", 1), ("content", 2), ("hook", 2), ("hook", 4)):
        g = PartitionStatistic(1, specs=(StatSpec(kind, 1, 0, power),))
        bound = g.degree_bound()
        safety = min(3, classic_window - bound)
        table = certify_polynomiality(g, EMPTY, 1, bound, safety)
        rep.check("classical/certified", table.verdict, "certified",
                  kind=kind, power=power, degree=bound, witness=table.witness)
    return rep


def _q_exponent_tuples(t: int, max_weight: int) -> list[tuple[Partition, ...]]:
    def tup(*shapes) -> tuple[Partition, ...]:
        padded = list(shapes) + [()] * (t - len(shapes))
        return tuple(Partition(s) for s in padded)

    out = [tup((2,)), tup((), (2,)), tup((3,)), tup((2,), (1,)), tup((2,), (2,)), tup((4,)), tup((2, 2))]
    return [e for e in out if sum(nu.size for nu in e) <= max_weight]


SUITES = {
    "bijection": bijection_suite,
    "fundamental": fundamental_suite,
    "per-partition": per_partition_suite,
    "averages": averages_suite,
    "operators": operators_suite,
    "polynomiality": polynomiality_suite,
}
