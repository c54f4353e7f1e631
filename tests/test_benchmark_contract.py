"""The benchmark's tracer patches package functions by name: every name it
lists must exist, or a traced benchmark run fails on its first lookup.  Its
layer counters must also see the oracle sweep's calls and the certify
pipeline's."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import triblock as tb
from triblock.oracle import max_edges
from triblock.patterns import THETA6_2

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file executes; no
    # bytecode cache is written next to it.
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def _load_tracer(monkeypatch):
    return _load(monkeypatch, "tracer")


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


def test_the_tracer_counts_the_certify_pipelines_layers(monkeypatch):
    # One family op at k = 0 and one random-hosts op go through every
    # traced entry point of the certify pipeline, so a change that bypasses
    # one fails here rather than reading 0 in a benchmark run.
    tracer = _load_tracer(monkeypatch).Tracer()
    (host,) = _load(monkeypatch, "hosts").make_hosts(1, 1)
    with tracer.op():
        text = tb.format_planegraph(tb.substitute_b5a(tb.build_skeleton(0)))
        pg = tb.parse_planegraph(text)
        free = tb.is_free(pg, tb.THETA6_1)
        tb.certify(pg, tb.get_spec("theta6-1"), freeness_checked=free)
        pg = tb.parse_planegraph(host.text)
        witness = tb.contains_subgraph(pg, tb.THETA6_2)
        tb.certify(pg, tb.get_spec("theta6-2"), freeness_checked=witness is None)
    stats = tracer.summarize()
    for span in (
        "plane_graph.parse",
        "plane_graph.format",
        "plane_graph.faces",
        "constructions.build_skeleton",
        "constructions.substitute_b5a",
        "patterns.is_free",
        "patterns.contains_subgraph",
        "blocks.decompose",
        "contribution.certify",
    ):
        assert span in stats and stats[span].calls > 0, span
