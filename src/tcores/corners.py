"""Corner power sums, residue-filtered box statistics, and their one-box
increments under the core/quotient decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb
from typing import NamedTuple

from .littlewood import LittlewoodDecomposition
from .partitions import Partition, hook_lengths


class CornerData(NamedTuple):
    x: tuple[int, ...]  # inner (addable) corner contents, ascending
    y: tuple[int, ...]  # outer (removable) corner contents, ascending


@lru_cache(maxsize=None)
def corners(lam: Partition) -> CornerData:
    """Corner contents: the addable and removable cells' contents.

    Always one more inner corner than outer, strictly interleaved
    x_0 < y_1 < x_1 < ... < x_m.
    """
    return CornerData(lam.addable_contents(), lam.removable_contents())


def q_k(lam: Partition, k: int):
    """Corner power sum: sum of x_i^k minus sum of y_j^k.

    q_0 = 1, q_1 = 0 and q_2 = 2|lam| for every partition.  Negative k is
    accepted (exact rationals) unless a corner has content 0, but unused by
    anything built on top.
    """
    cd = corners(lam)
    if k >= 0:
        return sum(x**k for x in cd.x) - sum(y**k for y in cd.y)
    if 0 in cd.x or 0 in cd.y:
        raise ValueError(f"q_{k} of {lam.to_text()} divides by its corner content 0")
    return sum(Fraction(1, x) ** -k for x in cd.x) - sum(Fraction(1, y) ** -k for y in cd.y)


@lru_cache(maxsize=None)
def q_partition(lam: Partition, exponents: Partition) -> int:
    """Product of q_k(lam) over the parts k of `exponents`; empty product 1."""
    out = 1
    for k in exponents.parts:
        out *= q_k(lam, k)
    return out


def q_tuple(quotients: tuple[Partition, ...], exponents: tuple[Partition, ...]) -> int:
    """Product over residue classes of q_{exponents[i]}(quotients[i]).

    Spelled out as parallel tuples because "q of a partition" is already
    taken by the per-partition product above.
    """
    if len(quotients) != len(exponents):
        raise ValueError("quotients and exponents must have the same length")
    out = 1
    for q, nu in zip(quotients, exponents):
        out *= q_partition(q, nu)
    return out


def q_increment(lam: Partition, k: int, corner_content: int) -> int:
    """q_k(lam + box) - q_k(lam) for the addable box of the given content:
    the even-binomial expansion sum over j >= 1 of 2*C(k, 2j)*c^(k-2j)."""
    if k < 0:
        raise ValueError("increment formula needs k >= 0")
    _require_inner_corner(lam, corner_content)
    return sum(2 * comb(k, 2 * j) * corner_content ** (k - 2 * j) for j in range(1, k // 2 + 1))


def _require_inner_corner(lam: Partition, c: int) -> None:
    if c not in corners(lam).x:
        raise ValueError(f"content {c} is not an inner corner of {lam.to_text()}")


@dataclass(frozen=True)
class StatSpec:
    """One residue-filtered power-sum factor.

    Sums v^power over the boxes whose hook length (kind "hook") or content
    (kind "content") is congruent to `residue` mod t.  With `paired` the
    mirror class t - residue is added as a second pass, so classes that
    coincide mod t are counted twice.  Contents reduce to the least
    non-negative residue.
    """

    kind: str
    t: int
    residue: int
    power: int
    paired: bool = False

    def __post_init__(self):
        if self.kind not in ("hook", "content"):
            raise ValueError(f"kind must be 'hook' or 'content', got {self.kind!r}")
        if self.t < 1:
            raise ValueError(f"modulus must be positive, got {self.t}")
        if not 0 <= self.residue < self.t:
            raise ValueError(f"residue {self.residue} out of range for modulus {self.t}")
        if self.power < 0:
            raise ValueError(f"power must be non-negative, got {self.power}")

    def render(self) -> str:
        text = f"{self.kind}:t={self.t},j={self.residue},pow={self.power}"
        return text + (",paired" if self.paired else "")

    @classmethod
    def parse(cls, text: str, default_t: int | None = None) -> "StatSpec":
        head, _, body = text.partition(":")
        kind = head.strip()
        t = default_t
        residue = power = None
        paired = False
        seen = set()
        for token in filter(None, (tok.strip() for tok in body.split(","))):
            key, eq, val = token.partition("=")
            if key in seen:
                raise ValueError(f"repeated statistic key {key!r} in {text!r}")
            seen.add(key)
            if token == "paired":
                paired = True
            elif eq:
                try:
                    num = int(val)
                except ValueError:
                    raise ValueError(f"bad statistic token {token!r} in {text!r}") from None
                if key == "t":
                    t = num
                elif key == "j":
                    residue = num
                elif key == "pow":
                    power = num
                else:
                    raise ValueError(f"unknown statistic key {key!r} in {text!r}")
            else:
                raise ValueError(f"bad statistic token {token!r} in {text!r}")
        if t is None or residue is None or power is None:
            raise ValueError(f"statistic {text!r} needs t=, j= and pow=")
        return cls(kind, t, residue, power, paired)


def stat_eval(lam: Partition, spec: StatSpec) -> int:
    t, power = spec.t, spec.power
    classes = {spec.residue, (t - spec.residue) % t} if spec.paired else {spec.residue}
    if spec.kind == "hook":
        total = sum(h**power for h in hook_lengths(lam) if h % t in classes)
    else:
        # Row i (from 0) has class r at the columns j = (r + i) mod t, then
        # every t-th one; their contents are j - i.
        total = sum(sum(map(pow, range((r + i) % t - i, row - i, t), repeat(power)))
                    for r in classes for i, row in enumerate(lam.parts))
    return 2 * total if spec.paired and len(classes) == 1 else total


def content_delta(dec: LittlewoodDecomposition, i: int, c: int) -> list[int]:
    """Contents gained by the whole partition when a box of content c is
    added to quotient i: the t consecutive values c*t + b_i - j, j = 0..t-1."""
    _require_inner_corner(dec.quotients[i], c)
    b_i = dec.offsets.b[i]
    return [c * dec.t + b_i - j for j in range(dec.t)]


def hook_delta_power(dec: LittlewoodDecomposition, i: int, c: int, k: int, power: int) -> int:
    """Change of the residue-k hook power sum when a box of content c is
    added to quotient i.

    For k = 0 this is the change of sum(h^power) over h = 0 mod t; for
    1 <= k <= t-1 it is the change of the paired sum over the classes k and
    t - k together.  `power` must be even: the derivation collapses
    absolute values into even powers.
    """
    if power < 0 or power % 2:
        raise ValueError(f"power must be even and non-negative, got {power}")
    if not 0 <= k < dec.t:
        raise ValueError(f"residue {k} out of range for modulus {dec.t}")
    _require_inner_corner(dec.quotients[i], c)
    t = dec.t
    if k == 0:
        return t**power + _own_class_delta(dec.quotients[i], c, t, power)
    return sum(_cross_class_delta(dec, i, other, c, power) for other in ((i + k) % t, (i - k) % t))


def hook_delta_power_total(dec: LittlewoodDecomposition, i: int, c: int, power: int) -> int:
    """Change of the full hook power sum sum(h^power) under the same box
    addition; the residue-0 and paired contributions combined."""
    own = hook_delta_power(dec, i, c, 0, power)  # validates power and the corner
    return own + sum(_cross_class_delta(dec, i, j, c, power) for j in range(dec.t) if j != i)


def _own_class_delta(quotient: Partition, c: int, t: int, power: int) -> int:
    # The added corner's own x-term is excluded: the multiset of gained
    # multiple-of-t hooks is {t} + {t|c-x| : x != c} - {t|c-y|}, and only
    # for positive powers does the (c-c) term vanish by itself.
    cd = corners(quotient)
    return sum((t * (c - x)) ** power for x in cd.x if x != c) - sum(
        (t * (c - y)) ** power for y in cd.y
    )


def _cross_class_delta(dec: LittlewoodDecomposition, i: int, j: int, c: int, power: int) -> int:
    # Hooks gained between the new box of quotient i and the corners of
    # quotient j: sum (base - t x)^power over inner x minus over outer y.
    t, cd = dec.t, corners(dec.quotients[j])
    base = t * c + dec.offsets.b[i] - dec.offsets.b[j]
    return sum((base - t * x) ** power for x in cd.x) - sum((base - t * y) ** power for y in cd.y)
