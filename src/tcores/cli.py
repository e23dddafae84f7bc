"""Command-line front end.

Subcommands:
  decompose  core/quotient decomposition of one partition, as JSON
  average    exact layer averages of statistics over a core, TSV or JSON
  verify     run a named verification suite and report pass/fail

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output is
byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict

from .corners import StatSpec
from .littlewood import decompose, is_t_core, offending_hook
from .operators import PartitionStatistic, layer_sum
from .partitions import Partition
from .suites import SUITE_NAMES, SUITES


def _parse_int_set(text: str) -> tuple[int, ...]:
    """Moduli sets: '1..5' or '2,3' or '4'; each positive, none repeated."""
    if ".." in text:
        lo, hi = _parse_range(text)
        values = tuple(range(lo, hi + 1))
    else:
        values = tuple(int(tok) for tok in text.split(","))
    if len(set(values)) < len(values):
        raise ValueError(f"repeated modulus in {text!r}")
    if min(values) < 1:
        raise ValueError(f"modulus must be positive, got {min(values)}")
    return values


def _parse_count(value: int) -> int:
    """A size bound or a sample count: a negative one would sweep nothing."""
    if value < 0:
        raise ValueError(f"count must be non-negative, got {value}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    """Index ranges: '0..4' or '3'; an empty (inverted) range is an error."""
    if ".." in text:
        a, _, b = text.partition("..")
        if int(b) < int(a):
            raise ValueError(f"empty range {text!r}")
        return int(a), int(b)
    n = int(text)
    return n, n


def _parse_n_max(text: str) -> int:
    """A verify layer range: the suites sweep every layer from 0."""
    lo, hi = _parse_range(text)
    if lo != 0:
        raise ValueError(f"layer range {text!r} must start at 0")
    return hi


def _parse_stat_column(text: str, t: int, weight_all: bool) -> tuple[StatSpec, bool]:
    """One --stat value; a bare G token turns on the weight for the column."""
    head, _, body = text.partition(":")
    tokens = [tok.strip() for tok in body.split(",") if tok.strip()]
    kept = [tok for tok in tokens if tok != "G"]
    if len(tokens) - len(kept) > 1:
        raise ValueError(f"repeated statistic key 'G' in {text!r}")
    spec = StatSpec.parse(f"{head}:{','.join(kept)}", default_t=t)
    return spec, weight_all or len(kept) < len(tokens)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcores",
        description="Exact core/quotient combinatorics: decompositions, layer averages, verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="core, quotients and offsets of a partition")
    p.add_argument("partition", help='comma-separated parts, "-" for empty, e.g. 18,7,6')
    p.add_argument("--t", type=int, required=True, help="modulus")

    p = sub.add_parser("average", help="exact layer averages of statistics over a core")
    p.add_argument("--core", default="-", help="t-core partition (default empty)")
    p.add_argument("--t", type=int, required=True, help="modulus")
    p.add_argument("--n", default="0..4", help="layer range, e.g. 0..4 or 3")
    p.add_argument(
        "--stat",
        action="append",
        required=True,
        metavar="SPEC",
        help='statistic column, e.g. "hook:j=0,pow=2,G" or "content:t=3,j=2,pow=1,paired"',
    )
    p.add_argument("--weight-g", action="store_true", help="weight every column by G")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--max-size", type=int, help="largest partition size swept")
    p.add_argument("--t", help="moduli, e.g. 1..5 or 2,3")
    p.add_argument("--n", help="layer range from 0, e.g. 0..4")
    p.add_argument("--samples", type=int, help="randomized checks (per-partition suite)")
    p.add_argument("--seed", type=int, help="seed for randomized checks")
    p.add_argument("--format", choices=("json", "tsv"), default="json",
                   help="full report (json) or one summary row (tsv)")
    return parser


def cmd_decompose(args) -> int:
    lam = Partition.from_text(args.partition)
    if args.t < 1:
        print(f"error: modulus must be positive, got {args.t}", file=sys.stderr)
        return 2
    dec = decompose(lam, args.t)
    out = dec.to_json_dict()
    out["size_identity"] = lam.size == dec.core.size + args.t * sum(dec.quotient_sizes)
    _emit(out)
    return 0


def cmd_average(args) -> int:
    core = Partition.from_text(args.core)
    if not is_t_core(core, args.t):
        print(
            f"error: {core.to_text()} is not a {args.t}-core "
            f"(hook {offending_hook(core, args.t)} is divisible by {args.t})",
            file=sys.stderr,
        )
        return 2
    columns = [_parse_stat_column(text, args.t, args.weight_g) for text in args.stat]
    stats = [PartitionStatistic(args.t, weight, (spec,)) for spec, weight in columns]
    labels = [g.label() for g in stats]
    n_lo, n_hi = _parse_range(args.n)
    rows = []
    for n in range(n_lo, n_hi + 1):
        rows.append((n, [str(layer_sum(g, core, args.t, n)) for g in stats]))
    if args.format == "tsv":
        print("\t".join(["n"] + labels))
        for n, cells in rows:
            print("\t".join([str(n)] + cells))
    else:
        _emit({
            "core": core.to_text(),
            "t": args.t,
            "columns": labels,
            "rows": [{"n": n, "values": cells} for n, cells in rows],
        })
    return 0


# verify flag (argparse dest) -> (suite parameter, value parser)
_VERIFY_FLAGS = {
    "max_size": ("max_size", _parse_count),
    "t": ("ts", _parse_int_set),
    "n": ("n_max", _parse_n_max),
    "samples": ("samples", _parse_count),
    "seed": ("seed", int),
}


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    params = inspect.signature(suite).parameters
    kwargs = {}
    for dest, (param, parse) in _VERIFY_FLAGS.items():
        value = getattr(args, dest)
        if value is None:
            continue
        if param not in params:
            raise ValueError(f"verify {args.suite} takes no --{dest.replace('_', '-')}")
        kwargs[param] = parse(value)
    report = suite(**kwargs)
    if args.format == "tsv":
        print("suite\tchecks\tfailures")
        print(f"{report.suite}\t{report.checks}\t{report.failures}")
    else:
        _emit(asdict(report))
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "decompose":
            return cmd_decompose(args)
        if args.command == "average":
            return cmd_average(args)
        return cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
