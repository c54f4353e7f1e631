"""Spans at the package's layer boundaries, recorded from outside the package.

``Tracer.patched()`` replaces every binding of each traced function in the
loaded ``triblock`` modules with a wrapper that records a span: name, parent
span, start, end, and whether the call returned a truthy result (a witness,
``True`` from a planarity test).  A binding is every module attribute that
refers to the function, so a call is seen whichever module it goes through.

Calls that one ``patterns`` entry point makes to another (``is_free`` and
``isomorphic`` both call ``contains_subgraph``) are the matching seam's own
work: they fold into the caller's span, so every patterns span and count is
a call made from outside that layer.

Spans are kept in memory; ``summarize`` turns them into self time (a span's
duration minus its child spans' durations), call counts and truthy counts
per span name, and ``write_tsv`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

#: (span name, defining module, attribute) for every traced function.
TRACED = (
    ("plane_graph.parse", "triblock.plane_graph", "parse_planegraph"),
    ("plane_graph.format", "triblock.plane_graph", "format_planegraph"),
    ("plane_graph.faces", "triblock.plane_graph", "PlaneGraph.__init__"),
    ("constructions.build_skeleton", "triblock.constructions", "build_skeleton"),
    ("constructions.substitute_b5a", "triblock.constructions", "substitute_b5a"),
    ("patterns.is_free", "triblock.patterns", "is_free"),
    ("patterns.contains_subgraph", "triblock.patterns", "contains_subgraph"),
    ("patterns.anchored", "triblock.patterns", "contains_subgraph_using_edge"),
    ("patterns.isomorphic", "triblock.patterns", "isomorphic"),
    ("blocks.decompose", "triblock.blocks", "decompose"),
    ("blocks.classify", "triblock.blocks", "classify"),
    ("contribution.certify", "triblock.contribution", "certify"),
    ("contribution.form_clusters", "triblock.contribution", "form_clusters"),
    ("oracle.max_edges", "triblock.oracle", "max_edges"),
    ("oracle.is_planar", "triblock.oracle", "is_planar"),
    ("oracle.canonical_edges", "triblock.oracle", "canonical_edges"),
)

FOLDED_LAYERS = frozenset({"patterns"})


@dataclass
class SpanStats:
    self_s: float = 0.0
    calls: int = 0
    truthy: int = 0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.truthy: list[bool] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self.truthy.append(False)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        fold = layer in FOLDED_LAYERS
        names, open_ = self.names, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fold and open_ and names[open_[-1]].startswith(layer + "."):
                return fn(*args, **kwargs)
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            self.truthy[index] = bool(result)
            return result

        return traced

    @contextmanager
    def op(self) -> Iterator[None]:
        """One traced op: an ``op`` root span with every TRACED call inside."""
        with self.patched(), self.span("op"):
            yield

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Trace every call to the TRACED functions inside the block."""
        undo: list[tuple[object, str, object]] = []
        try:
            for name, module_name, attr in TRACED:
                owner = importlib.import_module(module_name)
                if "." in attr:  # a method: patch it on its class only
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    targets = [owner]
                else:
                    targets = _package_modules()
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            undo.append((target, key, original))
                            setattr(target, key, wrapper)
            yield
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def summarize(self) -> dict[str, SpanStats]:
        child_s = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_s[parent] += self.ends[index] - self.starts[index]
        stats: dict[str, SpanStats] = {}
        for index, name in enumerate(self.names):
            s = stats.setdefault(name, SpanStats())
            s.self_s += self.ends[index] - self.starts[index] - child_s[index]
            s.calls += 1
            s.truthy += self.truthy[index]
        return stats

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart\tend\ttruthy\n")
            for index, name in enumerate(self.names):
                out.write(
                    f"{index}\t{self.parents[index]}\t{name}\t"
                    f"{self.starts[index]:.9f}\t{self.ends[index]:.9f}\t"
                    f"{int(self.truthy[index])}\n"
                )


#: Spans whose call counts are reported, and the truthy-share ratios.
COUNTED = ("patterns.contains_subgraph", "patterns.anchored",
           "patterns.isomorphic", "blocks.classify", "oracle.is_planar")
RATIOS = (  # metric, span, share of calls that returned a truthy result?
    ("patterns.hit_ratio", "patterns.contains_subgraph", True),
    ("patterns.anchored_free_ratio", "patterns.anchored", False),
    ("oracle.planar_ratio", "oracle.is_planar", True),
)


def layer_values(stats: dict[str, SpanStats], ops: int) -> dict[str, float]:
    """Per-op self seconds and call counts, and outcome ratios; a layer the
    workload never calls reads 0."""
    empty = SpanStats()
    values = {f"{name}_s": stats.get(name, empty).self_s / ops
              for name, _, _ in TRACED}
    values.update({f"{name}_calls": stats.get(name, empty).calls / ops
                   for name in COUNTED})
    for metric, name, truthy in RATIOS:
        s = stats.get(name, empty)
        hits = s.truthy if truthy else s.calls - s.truthy
        values[metric] = hits / s.calls if s.calls else 0.0
    values["trace.unattributed_s"] = stats.get("op", empty).self_s / ops
    return values


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if name == "triblock" or name.startswith("triblock.")
    ]
