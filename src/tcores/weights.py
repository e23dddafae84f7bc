"""Exact walk counts and weights: f, skew f, the t-hook walk count F, the
weight G, and enumeration of the layers above a core."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Iterator

from .littlewood import decompose, is_t_core, offending_hook, recompose
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


def f_skew(outer: Partition, inner: Partition) -> int:
    """Skew tableau count, by the memoized corner-removal recursion."""
    return syt_count_oracle(outer, inner)


def multinomial(counts: tuple[int, ...]) -> int:
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


@lru_cache(maxsize=None)
def F_skew(lam: Partition, mu: Partition, t: int) -> int:
    """Number of maximal t-hook addition chains from mu up to lam:
    multinomial over the quotient size gaps times the skew counts."""
    dl, dm = decompose(lam, t), decompose(mu, t)
    if dl.core != dm.core or not all(a.contains(b) for a, b in zip(dl.quotients, dm.quotients)):
        raise ValueError(f"{lam.to_text()} is not >=_{t} {mu.to_text()}")
    gaps = tuple(a.size - b.size for a, b in zip(dl.quotients, dm.quotients))
    out = multinomial(gaps)
    for a, b in zip(dl.quotients, dm.quotients):
        out *= f_skew(a, b)
    return out


def F_lambda(lam: Partition, t: int) -> int:
    """F of lam over its own t-core."""
    return F_skew(lam, decompose(lam, t).core, t)


@lru_cache(maxsize=None)
def G_lambda(lam: Partition, t: int) -> Fraction:
    """Reciprocal of the product of the hook lengths divisible by t.

    Equals 1 on t-cores and 1/(product of all hooks) at t = 1; ties to F by
    F = n! t^n G with n the total quotient size.
    """
    if t < 1:
        raise ValueError(f"modulus must be positive, got {t}")
    return Fraction(1, prod(h for h in hook_lengths(lam) if h % t == 0))


def enumerate_layer(mu: Partition, t: int, n: int) -> Iterator[Partition]:
    """All lam with t-core mu and |lam/mu| = n*t, each exactly once.

    Generated through quotient space: compositions of n (first component
    largest first), then tuples of partitions of each component in
    enumeration order, then recomposition.
    """
    if not is_t_core(mu, t):
        raise ValueError(f"{mu.to_text()} is not a {t}-core (hook {offending_hook(mu, t)})")
    for dm, _, tuples in _quotient_walk(mu, t, n):
        for quots in tuples:
            yield recompose(dm.core, quots, t)


@lru_cache(maxsize=None)
def layer_walk(mu: Partition, t: int, n: int) -> tuple[tuple[Partition, int], ...]:
    """(lam, F_skew(lam, mu, t)) for every lam >=_t mu with |lam/mu| = n*t,
    in enumerate_layer's order, for arbitrary mu.  F is taken from the
    quotient tuples the walk generates: the multinomial of the composition
    times f of each quotient over mu's.  Above a t-core every inner quotient
    is empty and f is the hook formula.  Cached, so every statistic and
    check over a layer shares one build of it."""
    pairs = []
    for dm, comp, tuples in _quotient_walk(mu, t, n):
        core, inners, M = dm.core, dm.quotients, multinomial(comp)
        for quots in tuples:
            F = M
            for q, inner in zip(quots, inners):
                F *= f_skew(q, inner) if inner else f_lambda(q)
            pairs.append((recompose(core, quots, t), F))
    return tuple(pairs)


def _quotient_walk(mu: Partition, t: int, n: int) -> Iterator[tuple]:
    """(decompose(mu, t), composition, its quotient tuples) per composition of n."""
    if n < 0:
        raise ValueError(f"layer index must be non-negative, got {n}")
    dm = decompose(mu, t)
    for comp in _compositions(n, t):
        yield dm, comp, product(*map(superpartitions, dm.quotients, comp))


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
