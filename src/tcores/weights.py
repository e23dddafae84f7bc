"""Exact walk counts and weights: f, the weight G, and the layer walk that
builds every (lam, F) above a core, with F the t-hook walk count."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Iterator

from .littlewood import decompose, recompose
from .partitions import Partition, enumerate_partitions, hook_lengths, syt_count_oracle


def hook_product(lam: Partition) -> int:
    return prod(hook_lengths(lam))


@lru_cache(maxsize=None)
def f_lambda(lam: Partition) -> int:
    """Number of standard Young tableaux via |lam|! / (product of hooks)."""
    q, r = divmod(factorial(lam.size), hook_product(lam))
    if r:
        raise RuntimeError(f"hook product does not divide {lam.size}! for {lam.to_text()}")
    return q


def multinomial(counts: tuple[int, ...]) -> int:
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


@lru_cache(maxsize=None)
def G_lambda(lam: Partition, t: int) -> Fraction:
    """Reciprocal of the product of the hook lengths divisible by t.

    Equals 1 on t-cores and 1/(product of all hooks) at t = 1; ties to F by
    F = n! t^n G with n the total quotient size.
    """
    if t < 1:
        raise ValueError(f"modulus must be positive, got {t}")
    return Fraction(1, prod(h for h in hook_lengths(lam) if h % t == 0))


@lru_cache(maxsize=None)
def layer_walk(mu: Partition, t: int, n: int) -> tuple[tuple[Partition, int], ...]:
    """(lam, F) for every lam >=_t mu with |lam/mu| = n*t, each exactly once,
    for arbitrary mu; F counts the maximal t-hook addition chains from mu
    up to lam.  Generated through quotient space: compositions of n (first
    component largest first), then tuples of partitions of each component
    containing mu's quotients, in enumeration order, then recomposition.
    F is the multinomial of the composition times the skew tableau count
    of each quotient over mu's; above a t-core every inner quotient is
    empty and that count is the hook formula.  Cached, so every statistic
    and check over a layer shares one build of it."""
    if n < 0:
        raise ValueError(f"layer index must be non-negative, got {n}")
    dm = decompose(mu, t)
    core, inners = dm.core, dm.quotients
    pairs = []
    for comp in _compositions(n, t):
        M = multinomial(comp)
        for quots in product(*map(superpartitions, inners, comp)):
            F = M
            for q, inner in zip(quots, inners):
                F *= syt_count_oracle(q, inner) if inner else f_lambda(q)
            pairs.append((recompose(core, quots, t), F))
    return tuple(pairs)


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def superpartitions(inner: Partition, extra: int) -> tuple[Partition, ...]:
    """Partitions of |inner| + extra containing inner, in enumeration order."""
    return tuple(p for p in enumerate_partitions(inner.size + extra) if p.contains(inner))
