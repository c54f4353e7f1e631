"""The benchmark's tracer patches package functions by name: every name it
lists must exist, or a traced benchmark run fails on its first lookup."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_in_the_package(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file executes; no
    # bytecode cache is written next to it.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    traced = tracer.TRACED
    assert traced
    missing = []
    for span, module_name, attr in traced:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{span}: {module_name}.{attr}")
    assert missing == []
