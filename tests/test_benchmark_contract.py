"""The benchmark's tracer patches package functions by name: every name it
lists must exist, or a traced benchmark run fails on its first lookup.  Its
layer counters must also see the oracle sweep's calls."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from triblock.oracle import max_edges
from triblock.patterns import THETA6_2

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file executes; no
    # bytecode cache is written next to it.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_in_the_package(monkeypatch):
    traced = _load_tracer(monkeypatch).TRACED
    assert traced
    missing = []
    for span, module_name, attr in traced:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{span}: {module_name}.{attr}")
    assert missing == []


def test_the_tracer_counts_the_oracle_sweeps_searches(monkeypatch):
    # The sweep's anchored freeness tests, isomorphism tests and planarity
    # tests go through the traced entry points, so none of their layers
    # reads 0 on a traced sweep.
    tracer = _load_tracer(monkeypatch).Tracer()
    with tracer.op():
        max_edges(6, THETA6_2, pattern_name="theta6-2", jobs=1)
    stats = tracer.summarize()
    for span in ("patterns.anchored", "patterns.isomorphic", "oracle.is_planar"):
        assert span in stats and stats[span].calls > 0, span
