"""Slow, independent reference implementations the package is checked
against.  The package computes none of these on its own paths: each is a
second route to a value the package gets faster, or a closed-form identity
the package's formulas rest on.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from tcores.boundary import BoundarySequence
from tcores.littlewood import bk_pairs, core_offsets, decompose
from tcores.operators import covers
from tcores.partitions import Partition, syt_count_oracle
from tcores.weights import multinomial

# ------------------------------------------------------------------ cells


class CellStat(NamedTuple):
    row: int
    col: int
    hook: int
    content: int


def conjugate(lam: Partition) -> Partition:
    """The transposed diagram: part j is the height of lam's column j."""
    cols = [0] * (lam.parts[0] if lam.parts else 0)
    for p in lam.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(cols)


def cell_stats(lam: Partition) -> list[CellStat]:
    """Hook length and content of every cell, row-major.

    Hooks come from conjugate column counts, O(cells) overall:
    hook = arm + leg + 1 = (row length - col) + (col height - row) + 1.
    """
    conj = conjugate(lam).parts
    out = []
    for i, row_len in enumerate(lam.parts, start=1):
        for j in range(1, row_len + 1):
            out.append(CellStat(i, j, (row_len - j) + (conj[j - 1] - i) + 1, j - i))
    return out


# ------------------------------------------------------------ walk counts


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
        out *= syt_count_oracle(a, b)
    return out


def F_lambda(lam: Partition, t: int) -> int:
    """F of lam over its own t-core."""
    return F_skew(lam, decompose(lam, t).core, t)


# ---------------------------------------------------- difference operator


def apply_Dt_power_inductive(g, mu: Partition, t: int, r: int):
    """D^r g(mu) by the inductive definition: D^k g(lam) is the sum of
    D^(k-1) g over the covers of lam minus D^(k-1) g(lam), memoized per
    (lam, k).  It reads `covers` and never the layer walk's F."""
    memo = {}

    def rec(lam: Partition, k: int):
        if k == 0:
            return g(lam)
        key = (lam.parts, k)
        if key not in memo:
            memo[key] = sum(rec(c, k - 1) for c in covers(lam, t)) - rec(lam, k - 1)
        return memo[key]

    return rec(mu, r)


# -------------------------------------------------------- boundary word


def inversion_pairs(seq: BoundarySequence) -> list[tuple[int, int]]:
    """All (i, j) with i < j, z_i = 1, z_j = 0.

    There is one pair per cell of the partition and the hook length of
    that cell is j - i, which makes this an independent hook oracle.
    """
    ones: list[int] = []
    pairs: list[tuple[int, int]] = []
    for p in range(seq.lo, seq.hi + 1):
        if seq.bits[p - seq.lo]:
            ones.append(p)
        else:
            pairs.extend((i, p) for i in ones)
    return pairs


def corner_contents(seq: BoundarySequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(inner, outer) corner contents, both ascending.

    An inner (addable) corner of content k shows up as the descent
    (z_{k-1}, z_k) = (0, 1); an outer (removable) corner as (1, 0).
    """
    inner, outer = [], []
    for k in range(seq.lo, seq.hi + 2):
        pair = (seq.value(k - 1), seq.value(k))
        if pair == (0, 1):
            inner.append(k)
        elif pair == (1, 0):
            outer.append(k)
    return tuple(inner), tuple(outer)


def render(seq: BoundarySequence) -> str:
    """Figure-style rendering with the '|' between indices -1 and 0."""
    left = "".join(str(seq.value(i)) for i in range(min(seq.lo, 0), 0))
    right = "".join(str(seq.value(i)) for i in range(0, seq.hi + 1))
    return f"⋯0{left}|{right}1⋯"


# ------------------------------------------------- core offset identities


def gbinom2(x: int) -> int:
    """x(x-1)/2, the choose-2 polynomial extended to every integer."""
    return x * (x - 1) // 2


class IdentityCheck(NamedTuple):
    name: str
    lhs: object
    rhs: object

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def bk_identities(mu: Partition, t: int) -> list[IdentityCheck]:
    """Evaluate both sides of the B_k square identity, the three offset
    identities, and the three expressions for |mu|, for a t-core mu."""
    off = core_offsets(mu, t)
    b, d = off.b, off.d
    checks = []
    for k in range(1, t):
        pairs = bk_pairs(t, k)
        checks.append(IdentityCheck(
            f"Bk1[k={k}]",
            sum((j - i) ** 2 for i, j in pairs),
            t * k * (t - k),
        ))
        checks.append(IdentityCheck(
            f"Bk2[k={k}]",
            sum((2 * j - 2 * i) * (d[i] - d[j]) for i, j in pairs),
            t * sum(d[i] - d[j] for i, j in pairs),
        ))
    upper = [(i, j) for i in range(t) for j in range(i + 1, t)]
    checks.append(IdentityCheck(
        "Bk3",
        t * sum(x * x for x in d),
        sum((d[i] - d[j]) ** 2 for i, j in upper),
    ))
    checks.append(IdentityCheck(
        "Bk4",
        -2 * sum(i * d[i] for i in range(t)),
        sum(d[i] - d[j] for i, j in upper),
    ))
    checks.append(IdentityCheck(
        "size[pairs]",
        mu.size,
        sum(gbinom2(d[i] - d[j]) for i, j in upper),
    ))
    checks.append(IdentityCheck(
        "size[quadratic]",
        Fraction(mu.size),
        Fraction(t, 2) * sum(x * x for x in d) + sum(i * d[i] for i in range(t)),
    ))
    checks.append(IdentityCheck(
        "size[offsets]",
        Fraction(mu.size),
        Fraction(1, 2 * t * t) * sum((b[i] - b[j]) ** 2 - (i - j) ** 2 for i, j in upper),
    ))
    return checks
