"""tcores benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload layer-sums --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One client in one thread calls the library, and each call starts
when the previous one returned.  A round is one pass over the seeded op
list; rounds repeat until the time is up, and every result of every round
is checked.  Times are scaled to the reference host speed (see speed.py);
the raw figures are printed too.  With `--trace 0` the last line carries
the end-to-end metrics, with `--trace 1` the per-layer ones (see
perfbench/README.md).  The run record, cache counters and traced spans go
to `.perfbench/<workload>-seed<seed>-trace<k>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

from speed import Speedometer  # noqa: E402
from tracing import LAYERS, STAGES, CacheLedger, Tracer, install, package_modules, purge_package  # noqa: E402
from workloads import PER_OP, PER_ROUND, WORKLOADS  # noqa: E402

KEEP_SPANS = 20_000


def setup(workload, seed: int, smoke: bool, speed: Speedometer):
    """Import the package afresh and build the op list: what a user pays
    before the first call.  Returns ((start, seconds), modules, ops)."""
    purge_package()
    speed.sample()
    start = perf_counter()
    modules = package_modules()
    ops = workload.build(modules, random.Random(seed), smoke)
    seconds = perf_counter() - start
    speed.sample()
    return (start, seconds), modules, ops


def run_round(ops, ledger: CacheLedger, clear: str, tracer: Tracer | None, failures: list,
              speed: Speedometer) -> list[tuple[float, float]]:
    """One pass over the ops; returns (start, seconds) of each call."""
    times = []
    if clear == PER_ROUND:
        ledger.clear()
    for index, op in enumerate(ops):
        speed.tick()
        if clear == PER_OP:
            ledger.clear()
        if tracer is not None:
            tracer.op = index
            tracer.active = True
            tracer.enter("op", "op")
        start = perf_counter()
        try:
            got = op.call()
            error = None
        except Exception as exc:  # counted as a failed op, reported below
            error = exc
        times.append((start, perf_counter() - start))
        if tracer is not None:
            tracer.exit()
            tracer.active = False
        if error is None:
            try:
                ok = op.check(got)
            except Exception as exc:  # a malformed result fails its check
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            if not failures:
                print(f"first failure: {op.label}", file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
            failures.append(op.label)
    speed.sample()
    return times


def repeat(one_round, seconds: float, started: float) -> None:
    """Call `one_round` at least once, then until one more call would, at
    the median call time so far, end past `seconds` after `started`."""
    walls = []
    while True:
        t0 = perf_counter()
        one_round()
        walls.append(perf_counter() - t0)
        if perf_counter() - started + statistics.median(walls) > seconds:
            return


def scale(timed: list[tuple[float, float]], speed: Speedometer | None) -> list[float]:
    """Seconds of each (start, seconds), scaled to the reference speed
    (or raw, without a speedometer)."""
    if speed is None:
        return [seconds for _, seconds in timed]
    return [seconds * speed.factor(start, start + seconds) for start, seconds in timed]


def percentile_90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def end_to_end(rounds, setups, speed: Speedometer | None) -> dict:
    scaled = [scale(r, speed) for r in rounds]
    samples = [t for r in scaled for t in r]
    return {
        "ops_per_s": (statistics.median(len(r) / sum(r) for r in scaled), "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": (percentile_90(samples) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(scale(setups, speed)), "s"),
    }


def per_layer(tracer: Tracer, cache: dict, ops: int, factor: float, overhead: float) -> dict:
    """Per-op layer metrics from the traced rounds; `cache` holds the
    (hits, misses) each cache took during them, and times are multiplied
    by `factor`, the median speed scale of the traced calls."""

    def calls(key):
        hits, misses = cache.get(key, (0, 0))
        return hits + misses

    def hit_ratio(*keys):
        total = sum(calls(k) for k in keys)
        return sum(cache.get(k, (0, 0))[0] for k in keys) / total if total else 0.0

    littlewood = [k for k in cache if k.startswith("littlewood.")]
    per_op = lambda x: x / ops
    c = tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_op(tracer.self_s[layer]) * factor, "s/op")
    out.update({
        "partitions.hook_lengths.calls": (per_op(calls("partitions.hook_lengths")), "count/op"),
        "partitions.hook_lengths.hit_ratio": (hit_ratio("partitions.hook_lengths"), "ratio"),
        "partitions.syt_states": (per_op(cache.get("partitions._syt", (0, 0))[1]), "count/op"),
        "boundary.words": (per_op(c["boundary.BoundarySequence.from_partition"]), "count/op"),
        "boundary.window_bits": (per_op(c["boundary.window_bits"]), "count/op"),
        "littlewood.decompose.calls": (per_op(c["littlewood.decompose"]), "count/op"),
        "littlewood.recompose.calls": (per_op(calls("littlewood.recompose")), "count/op"),
        "littlewood.hit_ratio": (hit_ratio(*littlewood), "ratio"),
        "corners.stat_eval.calls": (per_op(calls("corners.stat_eval")), "count/op"),
        "corners.stat_eval.hit_ratio": (hit_ratio("corners.stat_eval"), "ratio"),
        "weights.F_skew.calls": (per_op(calls("weights.F_skew")), "count/op"),
        "weights.G_lambda.calls": (per_op(calls("weights.G_lambda")), "count/op"),
        "weights.layer_members": (per_op(c["weights.enumerate_layer_above.items"]), "count/op"),
        "operators.layer_walks": (per_op(c["operators.layer_average"]), "count/op"),
        "operators.covers.calls": (per_op(calls("operators.covers")), "count/op"),
        "operators.covers.hit_ratio": (hit_ratio("operators.covers"), "ratio"),
        "operators.apply_Dt.calls": (per_op(c["operators.apply_Dt"]), "count/op"),
    })
    for stage in STAGES:
        out[f"stage.{stage}_s"] = (per_op(tracer.stage_s[stage]) * factor, "s/op")
    out["trace.op_s"] = (per_op(sum(tracer.self_s.values())) * factor, "s/op")
    out["trace.unattributed_s"] = (per_op(tracer.self_s["op"]) * factor, "s/op")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tcores").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness test")
    args = parser.parse_args(argv)

    if not (SRC / "tcores" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'tcores'}: run from a tcores checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload]
    speed = Speedometer()

    first, modules, ops = setup(workload, args.seed, args.smoke, speed)
    setups = [first]
    if not Path(modules[""].__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"tcores imported from {modules[''].__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ledger = CacheLedger(modules)
    failures: list[str] = []
    rounds: list[list[tuple[float, float]]] = []
    started = perf_counter()
    if args.trace:
        # Untraced and traced rounds alternate, so the overhead ratio
        # compares rounds that ran under the same host load.
        tracer = Tracer(KEEP_SPANS)
        cache_calls = {key: [0, 0] for key in ledger.caches}
        traced: list[str] = []
        untraced = []

        def pair():
            untraced.append(run_round(ops, ledger, workload.clear, None, failures, speed))
            before = ledger.totals()
            restore, traced[:] = install(tracer, modules)
            try:
                rounds.append(run_round(ops, ledger, workload.clear, tracer, failures, speed))
            finally:
                restore()
            for key, (hits, misses) in ledger.totals().items():
                cache_calls[key][0] += hits - before[key][0]
                cache_calls[key][1] += misses - before[key][1]

        repeat(pair, args.seconds, started)
        factor = statistics.median(speed.factor(s, s + t) for r in rounds for s, t in r)
        overhead = (statistics.median(sum(scale(r, speed)) for r in rounds)
                    / statistics.median(sum(scale(r, speed)) for r in untraced))
        metrics = per_layer(tracer, cache_calls, len(rounds) * len(ops), factor, overhead)
        rounds = untraced + rounds
        raw = {}
    else:
        # Set-up is timed again after every round, so its samples spread
        # over the run like the ops'; the ops keep the first set-up's modules.
        tracer, traced = None, []

        def one_round():
            rounds.append(run_round(ops, ledger, workload.clear, None, failures, speed))
            setups.append(setup(workload, args.seed, args.smoke, speed)[0])

        repeat(one_round, args.seconds, started)
        metrics = end_to_end(rounds, setups, speed)
        raw = end_to_end(rounds, setups, None)
    wall = perf_counter() - started

    attempted = sum(len(r) for r in rounds)
    samples = [t for r in rounds for t in scale(r, speed)]
    factors = [speed.factor(s, s + t) for r in rounds for s, t in r]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs_digest": hashlib.sha256("\n".join(op.label for op in ops).encode()).hexdigest()[:16],
        "ops_per_round": len(ops),
        "rounds": len(rounds),
        "samples": attempted,
        "samples_beyond_p90": sum(1 for t in samples if t > percentile_90(samples)),
        "speed_factor": {"min": min(factors), "median": statistics.median(factors), "max": max(factors)},
        "wall_s": round(wall, 3),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "lru_caches": len(ledger.caches),
    }

    for name, (value, unit) in metrics.items():
        extra = f"   raw {raw[name][0]:.6g}" if name in raw else ""
        print(f"{name:36s} {value:14.6g} {unit}{extra}")
    print(f"{'failed_ops_ratio':36s} {len(failures) / attempted:14.6g} ratio ({len(failures)} of {attempted})")
    print("record " + json.dumps(record, sort_keys=True))

    as_json = lambda ms: {k: {"value": v, "unit": u} for k, (v, u) in ms.items()}
    OUT.mkdir(exist_ok=True)
    detail = {
        "record": record,
        "metrics": as_json(metrics),
        "raw_metrics": as_json(raw),
        "failures": failures[:100],
        "caches": ledger.snapshot(),
        "traced": traced,
        "spans": tracer.spans if tracer else [],
    }
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail) + "\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": as_json(metrics),
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
