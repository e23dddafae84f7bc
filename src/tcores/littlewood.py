"""The core/quotient decomposition at a modulus t, and its offset bookkeeping.

A partition corresponds to its boundary word; removing a t-hook swaps some
(z_i, z_{i+t}) = (1, 0) into (0, 1).  Within each residue class i mod t
that is an adjacent swap, so the t-core is obtained by sorting every class
(all 0s before all 1s), and the i-th quotient is the partition encoded by
the class-i subsequence on its own terms.  The map

    lam  ->  (core; quotient_0, ..., quotient_{t-1})

is a bijection; `decompose` and `recompose` are the two directions.

For a t-core mu, b_i is the first index congruent to i mod t carrying a 1,
and d_i = (b_i - i)/t.  These offsets tie the quotient words back into the
global word: z_{lam^i, j} = z_{lam, j*t + b_i} whenever lam has core mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable, NamedTuple

from .boundary import BoundarySequence, partition_from_word
from .partitions import Partition, hook_lengths


def is_t_core(lam: Partition, t: int) -> bool:
    if t < 1:
        raise ValueError(f"modulus must be positive, got {t}")
    return all(h % t for h in hook_lengths(lam))


def offending_hook(lam: Partition, t: int) -> int | None:
    """Some hook length divisible by t, or None if lam is a t-core."""
    for h in hook_lengths(lam):
        if h % t == 0:
            return h
    return None


@lru_cache(maxsize=None)
def t_core(lam: Partition, t: int) -> Partition:
    """Remove t-hooks until none remain; the result is removal-order free."""
    if t < 1:
        raise ValueError(f"modulus must be positive, got {t}")
    seq = BoundarySequence.from_partition(lam)
    if not seq.bits:
        return Partition()
    bits = list(seq.bits)
    for i in range(t):
        idx = [p for p in range(seq.lo, seq.hi + 1) if p % t == i]
        for p, v in zip(idx, sorted(bits[p - seq.lo] for p in idx)):
            bits[p - seq.lo] = v
    return BoundarySequence(seq.lo, bits).to_partition()


@lru_cache(maxsize=None)
def t_quotients(lam: Partition, t: int) -> tuple[Partition, ...]:
    """The t quotients, each decoded from its residue subsequence."""
    if t < 1:
        raise ValueError(f"modulus must be positive, got {t}")
    seq = BoundarySequence.from_partition(lam)
    return tuple(partition_from_word(seq.residue_class_bits(t, i)[1]) for i in range(t))


class CoreOffsets(NamedTuple):
    t: int
    b: tuple[int, ...]
    d: tuple[int, ...]


@lru_cache(maxsize=None)
def core_offsets(mu: Partition, t: int) -> CoreOffsets:
    """b_i = min{j = i mod t : z_{mu,j} = 1} and d_i = (b_i - i)/t for a t-core mu."""
    if not is_t_core(mu, t):
        raise ValueError(f"{mu.to_text()} is not a {t}-core (hook {offending_hook(mu, t)})")
    seq = BoundarySequence.from_partition(mu)
    b = []
    for i in range(t):
        j_lo, bits = seq.residue_class_bits(t, i)
        b.append(t * (j_lo + bits.count(0)) + i)
    d = tuple((bi - i) // t for i, bi in enumerate(b))
    assert sum(d) == 0, "offset sum must vanish by the balance condition"
    return CoreOffsets(t, tuple(b), d)


def recompose(core: Partition, quotients: tuple[Partition, ...], t: int) -> Partition:
    """Inverse of (t_core, t_quotients): interleave the runners of the
    t-abacus.  Quotient i's beads q_k - k sit on runner i shifted by d_i, at
    positions t*(q_k - k + d_i) + i; the first M + d_i beads of every runner,
    M = max(len(q_i) - d_i), are the first t*M beads beta_j of lam, and
    lam_j = beta_j + j."""
    if len(quotients) != t:
        raise ValueError(f"need exactly {t} quotients, got {len(quotients)}")
    d = core_offsets(core, t).d
    m = max(len(q.parts) - d[i] for i, q in enumerate(quotients))
    beads = []
    for i, q in enumerate(quotients):
        shift, ps = t * d[i] + i, q.parts
        beads += [t * (p - k) + shift for k, p in enumerate(ps, start=1)]
        # the empty parts k = len(q) + 1 .. m + d_i
        beads += range(shift - t * (len(ps) + 1), shift - t * (m + d[i] + 1), -t)
    beads.sort(reverse=True)
    parts = list(map(add, beads, range(1, len(beads) + 1)))
    while parts and not parts[-1]:
        parts.pop()
    return Partition(parts)


@dataclass(frozen=True)
class LittlewoodDecomposition:
    t: int
    core: Partition
    quotients: tuple[Partition, ...]
    offsets: CoreOffsets

    @classmethod
    def of(cls, core: Partition, quotients: Iterable[Partition], t: int) -> "LittlewoodDecomposition":
        quotients = tuple(quotients)
        return cls(t, core, quotients, core_offsets(core, t))

    def partition(self) -> Partition:
        return recompose(self.core, self.quotients, self.t)

    @property
    def quotient_sizes(self) -> tuple[int, ...]:
        return tuple(q.size for q in self.quotients)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "core": self.core.to_text(),
            "quotients": [q.to_text() for q in self.quotients],
            "b": list(self.offsets.b),
            "d": list(self.offsets.d),
        }


def decompose(lam: Partition, t: int) -> LittlewoodDecomposition:
    return LittlewoodDecomposition.of(t_core(lam, t), t_quotients(lam, t), t)


def residue_hook_count(lam: Partition, t: int, k: int) -> int:
    """#{hooks of lam congruent to k mod t}."""
    if not 0 <= k < t:
        raise ValueError(f"residue {k} out of range for modulus {t}")
    return sum(1 for h in hook_lengths(lam) if h % t == k)


def bk_pairs(t: int, k: int) -> list[tuple[int, int]]:
    """The multiset B_k of residue pairs at circular distance k: pairs (i, j)
    with j - i = k, together with those with j - i = t - k; when k = t - k
    both copies are kept."""
    if not 1 <= k <= t - 1:
        raise ValueError(f"k must be in 1..{t - 1}, got {k}")
    return [(i, i + k) for i in range(t - k)] + [(i, i + t - k) for i in range(k)]
