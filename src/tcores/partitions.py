"""Integer partitions, cell geometry, and exhaustive tableau counting.

`Partition` is the universal value object for the whole package.  The
counting routines here (`enumerate_partitions`, `syt_count_oracle`) are
deliberately independent of the fancier machinery in the other modules so
they can serve as brute-force oracles for it.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from operator import add, lt
from typing import Iterable, Iterator

_EXACT_INT = {int}


@total_ordering
class Partition:
    """Weakly decreasing sequence of positive integers.

    Immutable value object with structural equality and a total order
    (size first, then lexicographic on parts) so that enumerations,
    reports, and cover sets come out in a reproducible order.  Trailing
    zeros are stripped on construction; any other non-positive entry or
    increasing adjacent pair is rejected.  The hash of the parts is taken
    once, here: partitions key every cache and layer dictionary.
    """

    __slots__ = ("parts", "size", "_hash")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(parts)
        if not set(map(type, ps)) <= _EXACT_INT:  # else int subclasses but bool still pass
            for p in ps:
                if not isinstance(p, int) or isinstance(p, bool):
                    raise TypeError(f"partition parts must be integers, got {p!r}")
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        if any(map(lt, ps, ps[1:])):
            raise ValueError(f"not weakly decreasing: {ps}")
        if ps and ps[-1] <= 0:
            raise ValueError(f"parts must be positive: {ps}")
        self.parts = ps
        self.size = sum(ps)
        self._hash = hash(ps)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the wire form: comma-separated parts, "-" for the empty partition."""
        text = text.strip()
        if text in ("-", ""):
            return cls()
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse partition {text!r}") from None
        return cls(parts)

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def contains(self, other: "Partition") -> bool:
        """Cellwise containment of Young diagrams."""
        if len(other.parts) > len(self.parts):
            return False
        return all(s >= o for s, o in zip(self.parts, other.parts))

    def addable_contents(self) -> tuple[int, ...]:
        """Contents of the cells that can be added (inner corners), ascending."""
        out = [-len(self.parts)]
        for i in range(len(self.parts), 0, -1):
            if i == 1 or self.parts[i - 2] > self.parts[i - 1]:
                out.append(self.parts[i - 1] + 1 - i)
        return tuple(out)

    def removable_contents(self) -> tuple[int, ...]:
        """Contents of the cells that can be removed (outer corners), ascending."""
        out = []
        for i in range(len(self.parts), 0, -1):
            if i == len(self.parts) or self.parts[i - 1] > self.parts[i]:
                out.append(self.parts[i - 1] - i)
        return tuple(out)

    def add_cell(self, content: int) -> "Partition":
        """Add the unique addable cell with the given content."""
        if content == -len(self.parts):
            return Partition(self.parts + (1,))
        for i in range(1, len(self.parts) + 1):
            if self.parts[i - 1] + 1 - i == content and (i == 1 or self.parts[i - 2] > self.parts[i - 1]):
                return Partition(self.parts[: i - 1] + (self.parts[i - 1] + 1,) + self.parts[i:])
        raise ValueError(f"no addable cell of content {content} in {self.to_text()}")

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Partition) and self.parts == other.parts)

    def __lt__(self, other) -> bool:
        return (self.size, self.parts) < (other.size, other.parts)

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return self.to_text()


EMPTY = Partition()


@lru_cache(maxsize=None)
def hook_lengths(lam: Partition) -> tuple[int, ...]:
    """Row-major hook lengths, arm + leg + 1.  Laying rows 1, 2, ... over
    their first lam_i columns leaves each column holding its height, the
    last row that reached it; cell (i, j), j from 0, has hook
    (lam_i - j) + (height_j - i)."""
    cols, out = [], []
    for i, row in enumerate(lam.parts, start=1):
        cols[:row] = [i] * row  # the first row extends the empty list
    for i, row in enumerate(lam.parts, start=1):
        out.extend(map(add, cols[:row], range(row - i, -i, -1)))
    return tuple(out)


def contents(lam: Partition) -> tuple[int, ...]:
    """Row-major contents (col - row, signed)."""
    return tuple(j - i for i, row in enumerate(lam.parts) for j in range(row))


def hook_multiset_mod(lam: Partition, t: int, residues: Iterable[int]) -> list[int]:
    """Sorted multiset of hook lengths whose residue mod t lies in `residues`.

    Listing a residue twice does not double-count here; double counting of
    coinciding classes is the statistic layer's business.
    """
    if t < 1:
        raise ValueError(f"modulus must be positive, got {t}")
    rset = set(residues)
    for r in rset:
        if not 0 <= r < t:
            raise ValueError(f"residue {r} out of range for modulus {t}")
    return sorted(h for h in hook_lengths(lam) if h % t in rset)


def enumerate_partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, each exactly once.

    Order: descending lexicographic on parts, (n) first and (1,...,1) last.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    for parts in _partition_tuples(n, n if max_part is None else max_part):
        yield Partition(parts)


def _partition_tuples(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


def syt_count_oracle(outer: Partition, inner: Partition = EMPTY) -> int:
    """Number of standard Young tableaux of the skew shape outer/inner.

    Exhaustive corner-removal recursion with memoization; the empty shape
    counts 1.  This is the independent oracle against which the hook-length
    formula and the product form of the walk counts are checked, so it must
    stay free of either.
    """
    if not outer.contains(inner):
        raise ValueError(f"{inner.to_text()} is not contained in {outer.to_text()}")
    return _syt(outer.parts, inner.parts)


@lru_cache(maxsize=None)
def _syt(outer: tuple[int, ...], inner: tuple[int, ...]) -> int:
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for i in range(len(outer)):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        floor = inner[i] if i < len(inner) else 0
        if outer[i] > below and outer[i] > floor:
            shrunk = outer[:i] + (outer[i] - 1,) + outer[i + 1 :]
            if shrunk[-1] == 0:
                shrunk = shrunk[:-1]
            total += _syt(shrunk, inner)
    return total
