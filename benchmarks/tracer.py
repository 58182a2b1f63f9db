"""Spans around the calls that cross between plane_forest's modules.

The tracer rebinds names in the namespaces of the calling modules (for
example `decode` inside `plane_forest.enumeration`), so only calls from one
layer into another are timed; calls inside a module stay untouched. Every
rebinding is undone on exit.

A span has a name (`<layer>.<function>`), a start, an end, its busy time,
the span that was running when it began (its parent) and an operation id.
A generator is charged only for the time spent inside its `next()` calls:
one span per generator and consuming parent, whose busy time is the sum of
those calls. A layer's self time is the busy time of its spans minus the
busy time of their child spans.
"""

from __future__ import annotations

import sys
import time
from types import GeneratorType
from typing import Callable, Iterable, Iterator

PACKAGE = "plane_forest"

#: The package's modules that do work, and the functions charged to each,
#: as the modules stand today. `errors` does no work.
LAYERS: dict[str, tuple[str, ...]] = {
    "trees": (
        "rooted_codes",
        "count_rooted",
        "enumerate_rooted",
        "iter_dyck_codes",
        "decode",
        "encode",
        "reflect",
    ),
    "canonical": (
        "canonical_plane",
        "rerooting_oracle_canon",
        "rotation_system",
        "_strip_centers",
        "_tree_from",
    ),
    "enumeration": (
        "count_plane",
        "enumerate_plane_center",
        "enumerate_plane_oracle",
        "reconcile_counts",
        "catalog_text",
        "catalog_json",
    ),
    "morse": ("count_flows", "enumerate_flows", "flow_record", "validate_flow_graph"),
    "render": ("render",),
    "cli": ("_emit", "main"),
}

LAYER_OF = {fn: layer for layer, fns in LAYERS.items() for fn in fns}

#: Calling module -> names it calls in another layer. `cli.main` is wrapped
#: in its own module so that the caller of `main` gets the root span.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "cli": (
        "rooted_codes",
        "count_rooted",
        "enumerate_rooted",
        "count_plane",
        "enumerate_plane_center",
        "enumerate_plane_oracle",
        "reconcile_counts",
        "catalog_text",
        "catalog_json",
        "count_flows",
        "enumerate_flows",
        "flow_record",
        "canonical_plane",
        "rerooting_oracle_canon",
        "render",
        "_emit",
        "main",
    ),
    "enumeration": (
        "iter_dyck_codes",
        "decode",
        "encode",
        "reflect",
        "count_rooted",
        "canonical_plane",
        "rotation_system",
        "_strip_centers",
    ),
    "morse": ("count_plane", "enumerate_plane_center", "canonical_plane", "_tree_from"),
    "canonical": ("decode",),
    "render": ("decode",),
}

#: Generators whose yielded values are counted.
STREAMS = ("iter_dyck_codes", "rooted_codes", "enumerate_rooted")


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "busy", "calls", "items")

    def __init__(
        self,
        name: str,
        parent: int,
        op: int,
        start: float = 0.0,
        end: float = 0.0,
        busy: float = 0.0,
        calls: int = 1,
        items: int = 0,
    ) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = end
        self.busy = busy
        # 1 for the span of a call; 0 for the span that continues a
        # generator under another consumer
        self.calls = calls
        # length of a returned list, or values yielded by a generator
        self.items = items

    def row(self) -> list:
        return [self.name, self.parent, self.op, self.start, self.end, self.busy, self.calls, self.items]


class Tracer:
    """Collects spans in memory; `install` rebinds, `uninstall` restores."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, boundaries: dict[str, Iterable[str]]) -> None:
        """Wrap each listed name in each calling module. Module names are
        short (`cli`) for the package's modules, full otherwise; they are
        resolved through `sys.modules`, because `plane_forest.render` as
        an attribute is the re-exported function, not the module. Names a
        module no longer has are skipped."""
        for caller, names in boundaries.items():
            module = sys.modules.get(f"{PACKAGE}.{caller}") or sys.modules[caller]
            for name in names:
                original = module.__dict__.get(name)
                if name not in LAYER_OF or not callable(original):
                    continue
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{LAYER_OF[name]}.{name}", original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _wrap(self, name: str, func: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, func, *args, **kwargs)

        return traced

    def call(self, name: str, func: Callable, /, *args, **kwargs):
        span = Span(name, self._stack[-1] if self._stack else -1, self.op)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = self.clock()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = self.clock()
            span.busy = span.end - span.start
            self._stack.pop()
        if isinstance(result, GeneratorType):
            return self._stream(name, result)
        if isinstance(result, list):
            span.items = len(result)
        return result

    def _stream(self, name: str, gen: Iterator) -> Iterator:
        span: Span | None = None
        index = -1
        while True:
            parent = self._stack[-1] if self._stack else -1
            fresh = span is None or span.parent != parent
            if fresh:
                span = Span(name, parent, self.op, calls=0)
                index = len(self.spans)
                self.spans.append(span)
            self._stack.append(index)
            start = self.clock()
            if fresh:
                span.start = start
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                span.end = self.clock()
                span.busy += span.end - start
                self._stack.pop()
            span.items += 1
            yield item


def from_rows(rows: list[list], base: int = 0) -> list[Span]:
    """Spans from `Span.row` lists, with parent indices shifted by `base`
    so that the spans of several processes can be joined into one list."""
    spans = [Span(*row) for row in rows]
    for span in spans:
        if span.parent >= 0:
            span.parent += base
    return spans


def self_times(spans: list[Span]) -> list[float]:
    """Busy time of each span minus the busy time of its direct children."""
    own = [span.busy for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.busy
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function calls and busy seconds, per-layer self time, stream
    lengths and the enumeration yields, summed over the given spans."""
    metrics: dict[str, float] = {}
    for layer, fns in LAYERS.items():
        metrics[f"{layer}.self_s"] = 0.0
        for fn in fns:
            metrics[f"{layer}.{fn}.calls"] = 0
            metrics[f"{layer}.{fn}.s"] = 0.0
    for fn in STREAMS:
        metrics[f"{LAYER_OF[fn]}.{fn}.items"] = 0
    center_classes = center_canon = oracle_classes = oracle_canon = 0
    for span, own in zip(spans, self_times(spans)):
        layer, _, fn = span.name.partition(".")
        metrics[f"{span.name}.calls"] += span.calls
        metrics[f"{span.name}.s"] += span.busy
        metrics[f"{layer}.self_s"] += own
        if fn in STREAMS:
            metrics[f"{span.name}.items"] += span.items
        elif fn == "enumerate_plane_center":
            center_classes += span.items
        elif fn == "enumerate_plane_oracle":
            oracle_classes += span.items
        elif fn == "canonical_plane" and span.parent >= 0:
            caller = spans[span.parent].name
            center_canon += caller == "enumeration.enumerate_plane_center"
            oracle_canon += caller == "enumeration.enumerate_plane_oracle"
    metrics["enumeration.classes"] = center_classes
    metrics["enumeration.center_yield"] = center_classes / center_canon if center_canon else 0.0
    metrics["enumeration.center_yield.base"] = center_canon
    metrics["enumeration.oracle_yield"] = oracle_classes / oracle_canon if oracle_canon else 0.0
    metrics["enumeration.oracle_yield.base"] = oracle_canon
    metrics["trace.spans"] = len(spans)
    return metrics
