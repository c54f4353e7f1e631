"""Byte identity of the CLI and the oracle: sha256 digests of what
``cli.main`` prints, exit codes included, on a fixed set of inputs, and of
the oracle's results.

The inputs are the nine catalog blocks, the family member ``construct --k
1``, K5 minus an edge with a pendant vertex, and 20 seeded thinned stacked
triangulations, all built without networkx so that no embedding depends
on its version.  Each command gets one digest over every input in order.
The oracle gets one digest per (n, pattern) of the shared sweep fixture,
over its JSON dict without the wall-clock ``elapsed_seconds``: level
sizes, explored count and every witness edge tuple.  A change that alters
one of these outputs on purpose says so and records the new digest; any
other change must leave them as they are.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

from conftest import oracle_sweeps, random_thinned_triangulation
from drawing import from_coordinates
from triblock.catalog import CATALOG_LABELS, catalog_plane_graph
from triblock.cli import main
from triblock.oracle import OracleResult
from triblock.plane_graph import PlaneGraph, format_planegraph

COMMANDS: dict[str, list[str]] = {
    "decompose": ["decompose", "--json"],
    "certify theta6-1": ["certify", "--target", "theta6-1", "--json"],
    "certify theta6-2": ["certify", "--target", "theta6-2", "--json"],
    "check-free theta6-1": ["check-free", "--pattern", "theta6-1", "--json"],
    "check-free theta6-2": ["check-free", "--pattern", "theta6-2", "--json"],
}

#: Recorded at the commit before the dart-array decomposition.
GOLDEN: dict[str, str] = {
    "decompose": "60ad5f11322ec851ccabbb3414dd169094ab526619c5462afaf130ac25ed88fe",
    "certify theta6-1": "807de84410aef2ec54898158b320d7ea2723b90af397ab0485bac7bfb03f3ec9",
    "certify theta6-2": "0c3b220696b15b02749d3ad980178d1d609819c7b544921f7192635e98e0009e",
    "check-free theta6-1": "8a3beeccd99555054a0fc8722211b7f8ebbb37ec2195a474e6d0804d5d310252",
    "check-free theta6-2": "9c29f91c252aff9eb0ebf0cf2141b681f6e0b5fd9ddc6524565dadba7b5226e4",
}

#: Recorded at the commit before the twin-orbit expansion of the sweep.
ORACLE_GOLDEN: dict[tuple[int, str], str] = {
    (6, "theta6-1"): "a7a62c33786b06f79c1b7a3d274c411f5e979d4936cfb26837f7603a3c1b6131",
    (6, "theta6-2"): "6e48c14bae9dca9778c211ac6fb0dc6e6d7d073252fc39f4384e4afd8ff5cbff",
    (7, "theta6-1"): "61f1dc792978989849f84c495023b2e4114d220fd0962a50a967f65cd65b58b2",
    (7, "theta6-2"): "a3cdc37182da12e74323de7a214d300d2a5890ce6e6fc4bfada479ef9b87ff6b",
    (8, "theta6-1"): "8978c53ad2f2ee586afbaa75889cd651e0f87f561237d0f8984757f8edba4fac",
    (8, "theta6-2"): "f0e7ea6892cfcf20a227229d024597e05d9b662192b376b28561221c2f6c925a",
}


def run(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """``main(argv)`` with ``stdin`` as standard input: (exit code, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def k5_minus_edge_with_pendant() -> PlaneGraph:
    """K5 minus the edge 3-4 drawn with outer triangle 0-1-4, and a pendant
    vertex 5 on vertex 0 inside the triangle 0-2-4."""
    coords = [(0, 0), (6, 0), (3, 3), (3, 1), (3, 6), (2.5, 3.6)]
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)]
    return from_coordinates(coords, edges + [(0, 5)])


def golden_inputs() -> list[tuple[str, str]]:
    """(name, planegraph text) of every input, in digest order."""
    inputs = [
        (f"catalog {label}", format_planegraph(catalog_plane_graph(label)))
        for label in CATALOG_LABELS
    ]
    code, family, _ = run(["construct", "--k", "1"])
    assert code == 0
    inputs.append(("construct --k 1", family))
    pendant = format_planegraph(k5_minus_edge_with_pendant())
    inputs.append(("K5-e with a pendant", pendant))
    rng = random.Random(20261020)
    for i in range(20):
        p = (0.0, 0.2, 0.4, 0.55)[i % 4]
        rows = random_thinned_triangulation(rng.randrange(6, 60), p, rng)
        inputs.append((f"host {i}", format_planegraph(PlaneGraph(len(rows), rows))))
    return inputs


def digests() -> dict[str, str]:
    inputs = golden_inputs()
    out = {}
    for name, argv in COMMANDS.items():
        h = hashlib.sha256()
        for label, text in inputs:
            code, stdout, stderr = run(argv, text)
            h.update(f"{label}\n{code}\n{stdout}\n{stderr}\n".encode())
        out[name] = h.hexdigest()
    return out


def test_cli_outputs_match_the_recorded_digests():
    assert digests() == GOLDEN


def oracle_digest(result: OracleResult) -> str:
    data = result.to_json_dict()
    del data["elapsed_seconds"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_oracle_results_match_the_recorded_digests(oracle_results):
    got = {key: oracle_digest(result) for key, result in oracle_results.items()}
    assert got == ORACLE_GOLDEN


if __name__ == "__main__":  # print the digests, to record them
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
    for (n, name), result in oracle_sweeps().items():
        print(f'    ({n}, "{name}"): "{oracle_digest(result)}",')
