"""The three workloads: seeded inputs, the library call each op makes, and
the check each result must pass.

Every op is built from a seeded `random.Random`, so one seed gives the
same ops.  The call looks its functions up through the module objects at
call time, so the traced run sees the rebound, traced names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

# Caches are cleared before every op ("op"), or once per round ("round").
PER_OP, PER_ROUND = "op", "round"


@dataclass
class Op:
    label: str  # names every input, so the labels digest the inputs
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    """Why each workload exists is in perfbench/README.md."""

    name: str
    clear: str
    build: Callable  # (modules, rng, smoke) -> list[Op]


# ---------------------------------------------------------------- layer-sums

CORES = ((), (1,), (2, 1), (3, 1), (5, 3, 1, 1))
N_CAP = {1: 20, 2: 10, 3: 7}
SMOKE_N_CAP = {1: 4, 2: 2, 3: 2}


def _layer_sum_stat(m, kind: str, t: int, mu, n: int, rng: random.Random):
    """A statistic with a closed-form layer value (the averages suite's
    formulas), as (label, statistic, expected value)."""
    P, S = m["operators"].PartitionStatistic, m["corners"].StatSpec
    lw, co = m["littlewood"], m["corners"]
    binom2 = comb(n, 2)
    if kind == "G":
        return kind, P(t), 1
    if kind == "hook-sq/divisible":
        return kind, P(t, specs=(S("hook", t, 0, 2),)), n * t * t + 3 * t * binom2
    if kind == "hook-sq/paired":
        k = rng.randrange(1, t)
        spec = S("hook", t, k, 2, paired=True)
        closed = (
            6 * t * binom2
            + (2 * k * (t - k)
               + 4 * t * lw.residue_hook_count(mu, t, k)
               + 4 * t * lw.residue_hook_count(mu, t, t - k)) * n
            + co.stat_eval(mu, spec)
        )
        return f"{kind}[k={k}]", P(t, specs=(spec,)), closed
    k = rng.randrange(t)
    spec = S("content", t, k, 2)
    off = lw.core_offsets(mu, t)
    offset_sq = sum((off.b[i] - ((i - k) % t)) ** 2 for i in range(t))
    closed = t * binom2 + Fraction(offset_sq * n, t) + co.stat_eval(mu, spec)
    return f"{kind}[k={k}]", P(t, specs=(spec,)), closed


def build_layer_sums(m, rng: random.Random, smoke: bool) -> list[Op]:
    # Every statistic kind at every (t, core, n) point, once per round: a
    # layer's cost grows exponentially in n and differs by kind, so a free
    # draw would give seeds very different amounts of work.  The seed draws
    # the residue classes and the order.
    Partition, ops_mod = m["partitions"].Partition, m["operators"]
    caps = SMOKE_N_CAP if smoke else N_CAP
    ops = []
    for t, cap in caps.items():
        kinds = ["G", "hook-sq/divisible", "content-sq/class"] + (["hook-sq/paired"] if t >= 2 else [])
        for parts in CORES:
            mu = Partition(parts)
            if not m["littlewood"].is_t_core(mu, t):
                continue
            for n in range(cap + 1):
                for kind in kinds:
                    label, g, expected = _layer_sum_stat(m, kind, t, mu, n, rng)
                    ops.append(Op(
                        f"layer_sum t={t} mu={mu.to_text()} n={n} {label}",
                        lambda g=g, mu=mu, t=t, n=n: ops_mod.layer_sum(g, mu, t, n),
                        lambda got, expected=expected: got == expected,
                    ))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------ certify

def _mixed_specs(S, t: int):
    """The polynomiality suite's ten mixed product statistics."""
    h = lambda j, p: S("hook", t, j, p, paired=True)
    c = lambda j, p: S("content", t, j, p)
    return [
        (h(1, 2),), (h(0, 2),), (h(1, 4),), (c(0, 2),), (c(1, 3),),
        (h(1, 2), c(0, 1)), (h(1, 2), c(1, 2)), (h(0, 2), c(1, 2)),
        (h(1, 4), c(1, 2)), (h(1, 2), h(0, 2), c(1, 1)),
    ]


CLASSICAL = (("content", 1), ("content", 2), ("hook", 2), ("hook", 4))
CLASSIC_WINDOW = 8
Q_EXPONENTS = (((2,),), ((), (2,)), ((3,),), ((2,), (1,)), ((2,), (2,)), ((4,),), ((2, 2),))
Q_LAM_MAX = 6  # D^r g = 0 is checked at every partition up to this size,
Q_LAM_EXTRA = {3: (5, 3, 1, 1)}  # and at these, as in the suite


def _certificate(m, g, mu, t: int, bound: int, safety: int, label: str) -> Op:
    ops_mod = m["operators"]

    def check(table) -> bool:
        return table.verdict == "certified" and table.empirical_degree <= bound

    return Op(
        f"certify t={t} {label} bound={bound} safety={safety}",
        lambda: ops_mod.certify_polynomiality(g, mu, t, bound, safety),
        check,
    )


def build_certify(m, rng: random.Random, smoke: bool) -> list[Op]:
    # The polynomiality suite's grid in the suite's order, whatever the
    # seed: with caches warm across the round, a check's cost depends on
    # what the checks before it left in the caches, so a seeded order made
    # the cost percentiles of one grid move by 20% between seeds.
    Partition = m["partitions"].Partition
    P, S = m["operators"].PartitionStatistic, m["corners"].StatSpec
    empty = Partition()
    ops = []
    for t in (2, 3):
        family = _mixed_specs(S, t)[: 2 if smoke else None]
        for specs in family:
            g = P(t, specs=specs)
            ops.append(_certificate(m, g, empty, t, g.degree_bound(), 3, g.label()))
    pool = [lam for n in range(2 if smoke else Q_LAM_MAX + 1)
            for lam in m["partitions"].enumerate_partitions(n)]
    for t in (2, 3):
        for shapes in Q_EXPONENTS[: 1 if smoke else None]:
            exponents = tuple(Partition(s) for s in shapes + ((),) * (t - len(shapes)))
            w = sum(nu.size for nu in exponents)
            r = -(-w // 2) + 1
            g = P(t, q_exponents=exponents)
            extra = [Partition(Q_LAM_EXTRA[t])] if t in Q_LAM_EXTRA and not smoke else []
            for lam in pool + extra:
                ops.append(Op(
                    f"q-vanishing t={t} {g.label()} lam={lam.to_text()} r={r}",
                    lambda g=g, lam=lam, t=t, r=r: m["operators"].apply_Dt_power(g, lam, t, r),
                    lambda got: got == 0,
                ))
    for kind, power in CLASSICAL[: 1 if smoke else None]:
        g = P(1, specs=(S(kind, 1, 0, power),))
        bound = g.degree_bound()
        ops.append(_certificate(m, g, empty, 1, bound, min(3, CLASSIC_WINDOW - bound), g.label()))
    return ops


# ----------------------------------------------------------- decompose-long

def _is_t_core(parts: tuple[int, ...], t: int) -> bool:
    """No hook length divisible by t, from arm + leg + 1; kept apart from
    the library so the check does not trace or warm its caches."""
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    return all(
        (row - j - 1 + cols[j] - i) % t
        for i, row in enumerate(parts)
        for j in range(row)
    )


LONG_OPS = 100
LOG_LO, LOG_HI = 2.0, 5.5
SMOKE_LOG_HI = 3.0


def build_decompose_long(m, rng: random.Random, smoke: bool) -> list[Op]:
    # A call costs in proportion to the largest part, and its memory also
    # grows as t shrinks.  So the (largest part, t) pairs are fixed: parts
    # log-spaced from 10^2 to 10^5.5, t cycling through 2..7 with t = 2 on
    # the largest, and every seed does the same window work and peaks on
    # the same window.  The seed draws the other parts and the order.
    Partition, lw = m["partitions"].Partition, m["littlewood"]
    count, hi = (4, SMOKE_LOG_HI) if smoke else (LONG_OPS, LOG_HI)
    ops = []
    for i in range(count):
        top = round(10 ** (LOG_LO + (hi - LOG_LO) * i / (count - 1)))
        rest = sorted((rng.randint(1, top) for _ in range(rng.randint(0, 5))), reverse=True)
        lam = Partition((top, *rest))
        t = 2 + (count - 1 - i) % 6

        def call(lam=lam, t=t):
            dec = lw.decompose(lam, t)
            return dec, dec.partition()

        def check(got, lam=lam, t=t) -> bool:
            dec, back = got
            return (
                back == lam
                and lam.size == dec.core.size + t * sum(q.size for q in dec.quotients)
                and _is_t_core(dec.core.parts, t)
            )

        ops.append(Op(f"decompose t={t} lam={lam.to_text()}", call, check))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("layer-sums", PER_OP, build_layer_sums),
        Workload("certify", PER_ROUND, build_certify),
        Workload("decompose-long", PER_OP, build_decompose_long),
    )
}
