"""Per-layer tracing from outside the program.

The layers are the package modules that do work.  `install` rebinds every
public function of a layer in each package namespace that holds it (for
example `tcores.operators.F_skew`, the name `operators` looks `F_skew` up
through) to a wrapper that records a span around the call.  The
`lru_cache` objects themselves are left untouched, so `cache_info()` keeps
reading; `CacheLedger` holds them and sums their counters across clears.

A span is (name, start, end, parent, op).  Self time is a span's duration
minus the time its child spans cover.  It is aggregated online, so the
per-layer totals cover every traced call while memory stays flat; the raw
spans are kept only up to `keep_spans` and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

LAYERS = ("partitions", "boundary", "littlewood", "corners", "weights", "operators")

# Thin front ends over the layers: no layer of their own, but they hold
# rebindable names and lru caches like any other package module.
FRONT_ENDS = ("suites", "cli")

# Methods of work-doing classes that are traced.  `value` is left out on
# purpose: it is called once per boundary bit, and a span per bit would
# cost more than the bit; its time lands in the caller's layer.
TRACED_CLASSES = {"boundary": {"BoundarySequence": ("value",)}}

# Stage roots of the layer-sum pipeline.  Stages are disjoint: a span
# inside a stage root counts only towards that stage.
STAGE_OF = {
    "weights.enumerate_layer_above": "enumerate",
    "weights.F_skew": "weight",
    "weights.G_lambda": "weight",
    "corners.stat_eval": "statistic",
    "corners.q_tuple": "statistic",
    "operators.apply_Dt": "crosscheck",
}
STAGES = ("enumerate", "weight", "statistic", "accumulate", "crosscheck")
ACCUMULATE = "operators.layer_average"
TRANSFORM_PARENT = "operators.apply_Dt_power"


def package_modules() -> dict[str, object]:
    """Every module of the package by short name, plus the package as ''.

    Imported through `importlib` because `tcores.corners` the attribute is
    the function `corners`, which shadows the module of the same name.  A
    layer module the package no longer has is left out, and its metrics
    read 0, so the benchmark still runs across a refactor that folds one
    layer into another.
    """
    mods = {"": importlib.import_module("tcores")}
    for name in LAYERS + FRONT_ENDS:
        try:
            mods[name] = importlib.import_module(f"tcores.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"tcores.{name}":
                raise
    return mods


class CacheLedger:
    """Every `lru_cache` of the package, with hits and misses summed over
    the clears the benchmark makes."""

    def __init__(self, modules: dict[str, object]):
        self.caches = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    short
                    and hasattr(obj, "cache_info")
                    and hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    self.caches[f"{short}.{name}"] = obj
        self._past = {key: [0, 0] for key in self.caches}

    def clear(self) -> None:
        for key, cache in self.caches.items():
            info = cache.cache_info()
            self._past[key][0] += info.hits
            self._past[key][1] += info.misses
            cache.cache_clear()

    def totals(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) per cache since the ledger was made."""
        out = {}
        for key, cache in self.caches.items():
            info = cache.cache_info()
            past = self._past[key]
            out[key] = (past[0] + info.hits, past[1] + info.misses)
        return out

    def snapshot(self) -> dict[str, dict]:
        out = {}
        for key, (hits, misses) in self.totals().items():
            info = self.caches[key].cache_info()
            out[key] = {"hits": hits, "misses": misses, "currsize": info.currsize, "maxsize": info.maxsize}
        return out


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "stage", "in_stage", "index")


class Tracer:
    """Span stack with online self-time, stage and count aggregation."""

    def __init__(self, keep_spans: int = 0):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.stage_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op = -1
        self.active = False
        self._stack: list[_Frame] = []
        self._transform_depth = 0

    def enter(self, name: str, layer: str) -> None:
        frame = _Frame()
        frame.name = name
        frame.layer = layer
        frame.child = 0.0
        parent = self._stack[-1] if self._stack else None
        frame.in_stage = parent is not None and (parent.in_stage or parent.stage is not None)
        frame.stage = None
        if not frame.in_stage:
            frame.stage = STAGE_OF.get(name)
            if name == ACCUMULATE and self._transform_depth:
                frame.stage = "crosscheck"
        if name == TRANSFORM_PARENT:
            self._transform_depth += 1
        self.counts[name] += 1
        frame.index = -1
        if len(self.spans) < self.keep_spans:
            frame.index = len(self.spans)
            self.spans.append(None)
        self._stack.append(frame)
        frame.start = perf_counter()

    def exit(self) -> None:
        end = perf_counter()
        frame = self._stack.pop()
        dur = end - frame.start
        own = dur - frame.child
        self.self_s[frame.layer] += own
        if self._stack:
            self._stack[-1].child += dur
        if frame.stage is not None:
            self.stage_s[frame.stage] += dur
        elif frame.name == ACCUMULATE and not frame.in_stage:
            self.stage_s["accumulate"] += own
        if frame.name == TRANSFORM_PARENT:
            self._transform_depth -= 1
        if frame.index >= 0:
            parent = self._stack[-1].index if self._stack else -1
            self.spans[frame.index] = (frame.name, frame.start, end, parent, self.op)

    def wrap(self, fn, name: str, layer: str, after=None):
        """A stand-in for `fn` that records a span per call while the
        tracer is active (per item, for a generator function)."""
        tracer, enter, exit_ = self, self.enter, self.exit
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            counts = self.counts
            items = name + ".items"

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.active:
                    yield from it
                    return
                while True:
                    enter(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    counts[items] += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(self, args)
            return result

        return traced


def _count_window_bits(tracer: Tracer, args) -> None:
    tracer.counts["boundary.window_bits"] += len(args[0].bits)


AFTER = {"boundary.BoundarySequence.__init__": _count_window_bits}


def install(tracer: Tracer, modules: dict[str, object]):
    """Rebind the public functions of every layer to traced wrappers.

    Returns (undo, traced_names): calling `undo()` restores every binding.
    """
    undo = []
    traced = []
    for layer in LAYERS:
        mod = modules.get(layer)
        if mod is None:
            continue
        for name, obj in list(vars(mod).items()):
            if (
                name.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != mod.__name__
            ):
                continue
            qual = f"{layer}.{name}"
            wrapper = tracer.wrap(obj, qual, layer, AFTER.get(qual))
            traced.append(qual)
            for holder in modules.values():
                if vars(holder).get(name) is obj:
                    setattr(holder, name, wrapper)
                    undo.append((holder, name, obj))
        for cls_name, skip in TRACED_CLASSES.get(layer, {}).items():
            cls = vars(mod).get(cls_name)
            if cls is None:
                continue
            for attr, raw in list(vars(cls).items()):
                if attr in skip or (attr.startswith("_") and attr != "__init__"):
                    continue
                qual = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(raw.__func__, qual, layer, AFTER.get(qual)))
                elif isinstance(raw, FunctionType):
                    new = tracer.wrap(raw, qual, layer, AFTER.get(qual))
                else:
                    continue
                setattr(cls, attr, new)
                undo.append((cls, attr, raw))
                traced.append(qual)

    def restore():
        for holder, name, obj in reversed(undo):
            setattr(holder, name, obj)

    return restore, traced


def purge_package() -> None:
    """Forget every imported module of the package, so the next import is fresh."""
    for name in [m for m in sys.modules if m == "tcores" or m.startswith("tcores.")]:
        del sys.modules[name]
