"""The t-hook poset, the difference operator on partition functions, exact
layer averages, and polynomiality certificates.

For a statistic g, D g(lam) sums g over the partitions one t-hook above
lam and subtracts g(lam).  Averages over the layer n t-hooks above a core
mu, weighted by the walk counts F, are tied to the operator by

    P_g(n) = sum_k C(n, k) (D^k g)(mu),

so P_g is a polynomial of degree < r as soon as D^r g vanishes identically
above mu.  The same walk counts give D^r g(mu) itself, at any mu, as the
alternating binomial transform of F-weighted layer sums, once the path
recursion (the covers of each layer are the next, F summed over lower
covers) is checked.  The certificate machinery checks the finite
consequence of polynomiality: vanishing forward differences of P_g(0..m)
on an explicit window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add
from typing import Callable, Iterator, Sequence

from .corners import StatSpec, q_tuple, stat_eval
from .littlewood import is_t_core, offending_hook, t_quotients
from .partitions import Partition
from .weights import G_lambda, layer_walk

# A string, not a typing subscript: typing caches subscripts by argument, so
# Callable[[Partition], ...] would keep every re-imported Partition alive.
Statistic = "Callable[[Partition], Fraction | int]"


@lru_cache(maxsize=None)
def covers(lam: Partition, t: int) -> tuple[Partition, ...]:
    """All partitions one t-hook above lam, sorted, hence deterministic: the
    cached Partition view of `_cover_parts`, read by the difference operator."""
    return tuple(sorted(map(Partition, _cover_parts(lam.parts, t))))


def _cover_parts(parts: tuple[int, ...], t: int) -> Iterator[tuple[int, ...]]:
    """The parts of every partition one t-hook above `parts`, on the abacus:
    of the beads lam_j - j (parts padded with t zeros), every bead p with a
    gap at p + t moves there, and lam_j = beta_j + j.  Unsorted and uncached."""
    if t < 1:
        raise ValueError(f"modulus must be positive, got {t}")
    beads = [p - j for j, p in enumerate(parts + (0,) * t, start=1)]
    occupied = set(beads)
    for k, p in enumerate(beads):
        if p + t not in occupied:
            moved = sorted(beads[:k] + [p + t] + beads[k + 1 :], reverse=True)
            out = list(map(add, moved, range(1, len(moved) + 1)))
            while not out[-1]:
                out.pop()
            yield tuple(out)


def apply_Dt(g: Statistic, lam: Partition, t: int):
    """One application of the difference operator: sum over covers minus g(lam)."""
    return sum(g(c) for c in covers(lam, t)) - g(lam)


def layer_sum(g: Statistic, mu: Partition, t: int, n: int):
    """Exact t-weighted average of g over {lam : core(lam) = mu, |lam/mu| = nt}.

    Above a t-core F = n! t^n G, so for a G-weighted product statistic the
    measure F*G is F^2 / (n! t^n): integer sums and one division.  Any other
    callable takes the generic sum of F*g(lam) over the layer walk."""
    if not is_t_core(mu, t):
        raise ValueError(f"{mu.to_text()} is not a {t}-core (hook {offending_hook(mu, t)})")
    if isinstance(g, PartitionStatistic) and g.weight and g.t == t:
        total = sum(F * F * g.unweighted(lam) for lam, F in layer_walk(mu, t, n))
        return Fraction(total, factorial(n) * t**n)
    return sum(F * g(lam) for lam, F in layer_walk(mu, t, n))


def apply_Dt_power(g: Statistic, mu: Partition, t: int, r: int):
    """D^r g(mu) for arbitrary mu, as one F-weighted sum over the layers:

        D^r g(mu) = sum_k (-1)^(r-k) C(r, k) sum_{(lam, F) in layer k} F g(lam),

    since F counts the chains of k t-hook additions from mu up to lam.  The
    walk's F is those chain counts when layer 0 is mu alone with F = 1 and
    `_check_path_recursion` holds for every layer below r; both are checked
    first, and a failure is an internal inconsistency and aborts."""
    if r < 0:
        raise ValueError(f"operator power must be non-negative, got {r}")
    if layer_walk(mu, t, 0) != ((mu, 1),):
        raise RuntimeError(f"path recursion is not anchored: layer 0 above {mu.to_text()} "
                           f"(t={t}) is not {mu.to_text()} with F = 1")
    for n in range(r):
        _check_path_recursion(mu, t, n)
    return sum(
        (-1) ** (r - k) * comb(r, k) * sum(F * g(lam) for lam, F in layer_walk(mu, t, k))
        for k in range(r + 1)
    )


@dataclass(frozen=True)
class PartitionStatistic:
    """A weighted product statistic: optionally the weight G, times
    residue-filtered power-sum factors, times corner power sums on the
    quotients.  Frozen: a statistic is a value, compared and hashed by its fields."""

    t: int
    weight: bool = True
    specs: tuple[StatSpec, ...] = ()
    q_exponents: tuple[Partition, ...] | None = None

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"modulus must be positive, got {self.t}")
        if self.q_exponents is not None and len(self.q_exponents) != self.t:
            raise ValueError("need one exponent partition per residue class")

    def __call__(self, lam: Partition):
        val = self.unweighted(lam)
        return G_lambda(lam, self.t) * val if self.weight else val

    def unweighted(self, lam: Partition) -> int:
        """The product of the factors without G."""
        val = 1
        for spec in self.specs:
            val *= stat_eval(lam, spec)
        if self.q_exponents is not None:
            val *= q_tuple(t_quotients(lam, self.t), self.q_exponents)
        return val

    def label(self) -> str:
        pieces = ["G"] if self.weight else []
        pieces.extend(spec.render() for spec in self.specs)
        if self.q_exponents is not None:
            pieces.append("q[" + ";".join(nu.to_text() for nu in self.q_exponents) + "]")
        return "*".join(pieces) if pieces else "1"

    def degree_bound(self) -> int:
        """Safe over-bound on the degree of n -> P_g(n): total power plus the
        number of power-sum factors, plus the operator-vanishing bound
        ceil(w/2)+1 for a corner-power part of total weight w."""
        bound = sum(spec.power for spec in self.specs) + len(self.specs)
        if self.q_exponents is not None:
            w = sum(nu.size for nu in self.q_exponents)
            bound += -(-w // 2) + 1
        return bound


def forward_differences(values: Sequence) -> list[list]:
    """All forward-difference rows of the sequence: row 0 is the input, row
    k+1 the consecutive differences of row k."""
    rows = [list(values)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([b - a for a, b in zip(prev, prev[1:])])
    return rows


@dataclass
class DifferenceTable:
    """Exact layer averages P(0..m) with their forward differences and a
    window-polynomiality verdict.

    The verdict "certified" means every difference of order degree+1
    vanishes on the sampled window [0, len(values) - 1]; globality beyond
    the window is the operator theory's contribution, not the table's.
    `empirical_degree` is the largest order with a non-vanishing difference
    row, i.e. the apparent degree on the window, with no claim of
    theoretical minimality.
    """

    values: list
    diffs: list[list]
    degree: int
    verdict: str
    witness: int | None
    empirical_degree: int


def certify_polynomiality(
    g: Statistic, mu: Partition, t: int, degree_bound: int, safety: int = 3
) -> DifferenceTable:
    """Sample P_g on [0, degree_bound + safety] and certify (or refute, with
    a witness) that all differences of order degree_bound + 1 vanish there.

    Every layer of the window is checked once, whatever g is, by
    `_check_path_recursion`; that check implies the telescoping identity
    P_g(n+1) - P_g(n) = P_{Dg}(n) for every g, and a failure there is an
    internal inconsistency, not a refutation, and aborts.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be non-negative, got {degree_bound}")
    if safety < 1:
        raise ValueError(f"safety margin must be positive, got {safety}")
    m = degree_bound + safety
    values = [layer_sum(g, mu, t, n) for n in range(m + 1)]
    for n in range(m):
        _check_path_recursion(mu, t, n)
    diffs = forward_differences(values)
    row = diffs[degree_bound + 1]
    witness = next((j for j, v in enumerate(row) if v != 0), None)
    empirical = max((k for k, r in enumerate(diffs) if any(v != 0 for v in r)), default=-1)
    return DifferenceTable(
        values=values,
        diffs=diffs,
        degree=degree_bound,
        verdict="refuted" if witness is not None else "certified",
        witness=witness,
        empirical_degree=empirical,
    )


@lru_cache(maxsize=None)
def _check_path_recursion(mu: Partition, t: int, n: int) -> None:
    """Raise unless the covers of layer n are exactly layer n+1, with
    F(nu) = sum of F(lam) over its lower covers lam, and, when mu is a
    t-core, the sum of F^2 over layer n+1 is (n+1)! t^(n+1), the
    normalization of the F^2 measure (above a non-core it is not).  It
    walks the parts tuples of `_cover_parts`, so it fills no `covers` cache."""
    reached: dict[tuple[int, ...], int] = {}
    for lam, F in layer_walk(mu, t, n):
        for parts in _cover_parts(lam.parts, t):
            reached[parts] = reached.get(parts, 0) + F
    upper = {lam.parts: F for lam, F in layer_walk(mu, t, n + 1)}
    where = f"n={n} (t={t}, mu={mu.to_text()})"
    if reached != upper:
        raise RuntimeError(f"path recursion fails between layers {where}")
    if is_t_core(mu, t) and sum(F * F for F in upper.values()) != factorial(n + 1) * t ** (n + 1):
        raise RuntimeError(f"sum of F^2 over layer n+1 is not (n+1)! t^(n+1) at {where}")
