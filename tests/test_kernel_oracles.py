"""The per-partition kernels against their slow oracles.

`stat_eval` is checked against a residue filter over the per-cell records
of `cell_stats`, exhaustively on small partitions and on seeded random
ones; `hook_lengths` against `cell_stats`; the abacus `recompose` against
the boundary-window reference; and partitions built by different routes
must be equal and hash equal.
"""

import random
from collections import defaultdict

from oracles import cell_stats
from test_littlewood import window_recompose

from tcores.corners import StatSpec, stat_eval
from tcores.littlewood import decompose, recompose
from tcores.operators import covers
from tcores.partitions import Partition, enumerate_partitions, hook_lengths

SEED = 20261018


def cell_classes(lam, t):
    """{(kind, residue mod t): cell values of that class}, from cell_stats."""
    classes = defaultdict(list)
    for cell in cell_stats(lam):
        classes["hook", cell.hook % t].append(cell.hook)
        classes["content", cell.content % t].append(cell.content)
    return classes


def stat_oracle(classes, spec):
    residues = [spec.residue] + ([(spec.t - spec.residue) % spec.t] if spec.paired else [])
    return sum(v**spec.power for r in residues for v in classes[spec.kind, r])


def test_stat_eval_matches_cell_filter_up_to_12():
    for size in range(13):
        for lam in enumerate_partitions(size):
            for t in range(1, 6):
                classes = cell_classes(lam, t)
                for kind in ("hook", "content"):
                    for r in range(t):
                        for power in range(5):
                            for paired in (False, True):
                                spec = StatSpec(kind, t, r, power, paired)
                                assert stat_eval(lam, spec) == stat_oracle(classes, spec), (lam, spec)


def random_partition(rng, max_size=200):
    """A partition of a uniform size up to max_size, with parts drawn up to
    a random cap, so shapes run from one long row to many short ones."""
    n = rng.randint(0, max_size)
    cap = rng.randint(1, max(n, 1))
    parts = []
    while n:
        parts.append(rng.randint(1, min(n, cap)))
        n -= parts[-1]
    return Partition(sorted(parts, reverse=True))


def test_random_partitions_against_oracles():
    rng = random.Random(SEED)
    for _ in range(250):
        lam, t = random_partition(rng), rng.randint(1, 12)
        cells = cell_stats(lam)
        assert hook_lengths(lam) == tuple(c.hook for c in cells)

        dec = decompose(lam, t)
        assert recompose(dec.core, dec.quotients, t) == lam
        assert window_recompose(dec.core, dec.quotients, t) == lam

        classes = cell_classes(lam, t)
        for _ in range(4):
            spec = StatSpec(rng.choice(("hook", "content")), t, rng.randrange(t), rng.randint(0, 4),
                            rng.random() < 0.5)
            assert stat_eval(lam, spec) == stat_oracle(classes, spec), (lam, spec)


def test_equal_partitions_by_any_route_hash_equal():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        lam, t = random_partition(rng, 60), rng.randint(1, 12)
        ups = covers(lam, t)
        nu = rng.choice(ups)
        dec = decompose(nu, t)
        routes = [
            Partition.from_text(nu.to_text()),
            recompose(dec.core, dec.quotients, t),
            Partition(list(nu.parts) + [0, 0]),
        ]
        for other in routes:
            assert other == nu and hash(other) == hash(nu)
            assert other in set(ups)
