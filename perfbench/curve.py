"""Cost of one layer sum against the layer index n; on demand, not gated.

    python3 perfbench/curve.py                    # t=1 n<=40, t=2 n<=15, t=3 n<=10
    python3 perfbench/curve.py --t 2 --n-max 6    # one line of the curve

Each point is the layer sum of G times the squared hooks divisible by t
over the n-th layer above the empty core, checked against its closed form
n*t^2 + 3*t*C(n, 2).  Every point runs in a fresh child process, one at a
time: an untraced pass from cold caches gives the wall time and peak RSS,
then a traced pass from cold caches gives the stage split and per-layer
self times.  Times are raw; `speed_factor` is the host-speed scale of the
untraced pass (see speed.py): raw time x factor is the scaled time.  Rows
print as TSV; the table also goes to `.perfbench/curve.json`.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
from math import comb
from time import perf_counter

from run import OUT, SRC, git_commit, source_digest
from speed import Speedometer
from tracing import LAYERS, STAGES, CacheLedger, Tracer, install, package_modules

CAPS = {1: 40, 2: 15, 3: 10}


def point(t: int, n: int) -> dict:
    """Measure one (t, n) point in this process."""
    sys.path.insert(0, str(SRC))
    m = package_modules()
    Partition, ops = m["partitions"].Partition, m["operators"]
    g = ops.PartitionStatistic(t, specs=(m["corners"].StatSpec("hook", t, 0, 2),))
    mu = Partition()
    expected = n * t * t + 3 * t * comb(n, 2)
    ledger = CacheLedger(m)

    speed = Speedometer()
    ledger.clear()
    speed.sample()
    start = perf_counter()
    value = ops.layer_sum(g, mu, t, n)
    wall = perf_counter() - start
    speed.sample()
    factor = speed.factor(start, start + wall)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ledger.clear()
    tracer = Tracer()
    restore, _ = install(tracer, m)
    tracer.active = True
    tracer.enter("op", "op")
    start = perf_counter()
    try:
        traced_value = ops.layer_sum(g, mu, t, n)
    finally:
        traced_wall = perf_counter() - start
        tracer.exit()
        tracer.active = False
        restore()
    return {
        "t": t,
        "n": n,
        "correct": value == expected == traced_value,
        "wall_s": wall,
        "speed_factor": factor,
        "layer_size": tracer.counts["weights.enumerate_layer_above.items"],
        "peak_rss_mb": peak,
        "traced_wall_s": traced_wall,
        "stage_s": {stage: tracer.stage_s[stage] for stage in STAGES},
        "self_s": {layer: tracer.self_s[layer] for layer in LAYERS + ("op",)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t", type=int, choices=sorted(CAPS), help="one modulus (default: all)")
    parser.add_argument("--n-max", type=int, help="largest n (default: the cap for each t)")
    parser.add_argument("--point", type=int, nargs=2, metavar=("T", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tcores" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'tcores'}", file=sys.stderr)
        return 2
    if args.point:
        print(json.dumps(point(*args.point)))
        return 0

    ts = [args.t] if args.t else sorted(CAPS)
    rows = []
    print("t\tn\tlayer_size\twall_s\tspeed_factor\tpeak_rss_mb\t"
          + "\t".join(f"{s}_s" for s in STAGES) + "\tcorrect")
    for t in ts:
        for n in range(min(CAPS[t], args.n_max if args.n_max is not None else CAPS[t]) + 1):
            child = subprocess.run(
                [sys.executable, __file__, "--point", str(t), str(n)],
                capture_output=True, text=True, check=True,
            )
            row = json.loads(child.stdout.splitlines()[-1])
            rows.append(row)
            stages = "\t".join(f"{row['stage_s'][s]:.4f}" for s in STAGES)
            print(f"{t}\t{n}\t{row['layer_size']}\t{row['wall_s']:.4f}\t{row['speed_factor']:.3f}\t"
                  f"{row['peak_rss_mb']:.1f}\t"
                  f"{stages}\t{row['correct']}", flush=True)
    OUT.mkdir(exist_ok=True)
    record = {"git_commit": git_commit(), "source_digest": source_digest(),
              "python": platform.python_version()}
    (OUT / "curve.json").write_text(json.dumps({"record": record, "rows": rows}, indent=1) + "\n")
    return 0 if all(row["correct"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
