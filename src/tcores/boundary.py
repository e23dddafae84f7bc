"""The boundary edge word of a partition.

Walk the rim of the Young diagram from far below the first column to far
right of the first row: every vertical edge is a 0 and every horizontal
edge a 1.  That gives a bi-infinite word, all 0s towards -oo and all 1s
towards +oo.  Index 0 is pinned by the balance condition

    #{i >= 0 : z_i = 0}  ==  #{i < 0 : z_i = 1},

which puts the origin on the main diagonal.  Concretely the 0s sit exactly
at the indices {lam_j - j : j = 1, 2, ...} (parts padded with zeros), so a
0 at index i closes a row whose last cell has content i, and a 1 at index
i runs under a column whose bottom cell has content i + 1.

Only the irregular middle window is stored; everything below it is 0,
everything above it is 1.
"""

from __future__ import annotations

from typing import Iterable

from .partitions import Partition


def partition_from_word(bits: Iterable[int]) -> Partition:
    """Shift-invariant decode of a finite 0/1 word (implicit 0s before it,
    implicit 1s after it): each 0 closes a row whose length is the number
    of 1s strictly before it."""
    parts = []
    ones = 0
    for b in bits:
        if b:
            ones += 1
        else:
            parts.append(ones)
    parts.reverse()
    return Partition(tuple(p for p in parts if p > 0))


class BoundarySequence:
    """Canonical window of the bi-infinite 0/1 boundary word.

    `bits` covers indices lo..lo+len(bits)-1; the window is trimmed so it
    starts with a 1 and ends with a 0 (or is empty, for the empty
    partition).  Construction validates the balance condition: a shifted
    window denotes a differently labelled abacus, so it is an error, not
    something to renormalize silently.
    """

    __slots__ = ("lo", "bits")

    def __init__(self, lo: int, bits: Iterable[int]):
        word = tuple(bits)
        if any(b not in (0, 1) for b in word):
            raise ValueError("bits must be 0 or 1")
        start = 0
        while start < len(word) and word[start] == 0:
            start += 1
        end = len(word)
        while end > start and word[end - 1] == 1:
            end -= 1
        lo += start
        word = word[start:end]
        if not word:
            lo = 0
        hi = lo + len(word) - 1
        zeros_nonneg = sum(
            1 for p in range(max(lo, 0), hi + 1) if word[p - lo] == 0
        ) + max(0, min(lo, hi + 1))
        ones_negative = sum(1 for p in range(lo, min(hi + 1, 0)) if word[p - lo] == 1) + max(0, -1 - hi)
        if zeros_nonneg != ones_negative:
            raise ValueError(
                f"unbalanced window: {zeros_nonneg} zeros at indices >= 0 "
                f"vs {ones_negative} ones at indices < 0"
            )
        self.lo = lo
        self.bits = word

    @property
    def hi(self) -> int:
        return self.lo + len(self.bits) - 1

    def value(self, i: int) -> int:
        if i < self.lo:
            return 0
        if i > self.hi:
            return 1
        return self.bits[i - self.lo]

    @classmethod
    def from_partition(cls, lam: Partition) -> "BoundarySequence":
        if not lam.parts:
            return cls(0, ())
        zero_at = {lam.parts[j] - (j + 1) for j in range(len(lam.parts))}
        lo, hi = -len(lam.parts), lam.parts[0] - 1
        return cls(lo, tuple(0 if p in zero_at else 1 for p in range(lo, hi + 1)))

    def to_partition(self) -> Partition:
        return partition_from_word(self.bits)

    def residue_class_bits(self, t: int, i: int) -> tuple[int, tuple[int, ...]]:
        """The subsequence (z_{t*j + i})_j over the window it needs.

        Returns (j_lo, bits) with bits[k] = z_{t*(j_lo+k) + i}; indices of
        the subsequence below j_lo are implicit 0s, above implicit 1s.
        """
        j_lo = -((i - self.lo) // t)
        j_hi = (self.hi - i) // t
        return j_lo, tuple(self.value(t * j + i) for j in range(j_lo, j_hi + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundarySequence) and (self.lo, self.bits) == (other.lo, other.bits)

    def __hash__(self) -> int:
        return hash((self.lo, self.bits))

    def __repr__(self) -> str:
        return f"BoundarySequence(lo={self.lo}, bits={''.join(map(str, self.bits))!r})"
