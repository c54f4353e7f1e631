"""Shared fixtures: the oracle cache, the mixed graph corpus, and the
two BBar gadgets used by the cluster-arithmetic tests."""

from __future__ import annotations

import os
import random

import pytest

from drawing import from_coordinates
from triblock.catalog import CATALOG_LABELS, catalog_plane_graph
from triblock.constructions import _build_chain, build_skeleton, substitute_b5a
from triblock.oracle import OracleResult, arbitrary_embedding, max_edges
from triblock.patterns import THETA6_1, THETA6_2, theta_pattern
from triblock.plane_graph import Graph, PlaneGraph, normalize_edge

PATTERNS: dict[str, Graph] = {"theta6-1": THETA6_1, "theta6-2": THETA6_2}

# Oracle values recomputed from scratch on every full run (criterion 4);
# frozen here so a regression in the search shows up as a value change.
KNOWN_MAX_EDGES: dict[tuple[int, str], int] = {
    (5, "theta6-1"): 9,
    (5, "theta6-2"): 9,
    (6, "theta6-1"): 10,
    (6, "theta6-2"): 10,
    (7, "theta6-1"): 12,
    (7, "theta6-2"): 12,
    (8, "theta6-1"): 15,
    (8, "theta6-2"): 15,
}

# Per (n, pattern): the isomorphism classes kept at each edge count, and
# the number of children examined over the whole sweep.
KNOWN_LEVEL_SIZES: dict[tuple[int, str], tuple[tuple[int, ...], int]] = {
    (6, "theta6-1"): ((1, 1, 2, 5, 9, 15, 21, 23, 21, 12, 4), 977),
    (6, "theta6-2"): ((1, 1, 2, 5, 9, 15, 21, 23, 19, 10, 3), 946),
    (7, "theta6-1"): ((1, 1, 2, 5, 10, 21, 41, 64, 92, 104, 78, 30, 5), 5834),
    (7, "theta6-2"): ((1, 1, 2, 5, 10, 21, 41, 64, 88, 92, 58, 22, 4), 5329),
    (8, "theta6-1"): (
        (1, 1, 2, 5, 11, 24, 56, 114, 215, 362, 496, 471, 277, 85, 15, 3),
        38744,
    ),
    (8, "theta6-2"): (
        (1, 1, 2, 5, 11, 24, 56, 114, 211, 341, 419, 334, 167, 49, 11, 2),
        32181,
    ),
}


def embed(g: Graph) -> PlaneGraph:
    return arbitrary_embedding(g)


# ---------------------------------------------------------------------------
# systematic small plane graphs


def cycle_edges(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def path_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def star_graph(j: int) -> Graph:
    return Graph.from_edges(j + 1, [(0, i) for i in range(1, j + 1)])


def wheel_graph(k: int) -> Graph:
    rim = [(i, i % k + 1) for i in range(1, k + 1)]
    return Graph.from_edges(k + 1, rim + [(0, i) for i in range(1, k + 1)])


def fan_graph(k: int) -> Graph:
    spine = [(i, i + 1) for i in range(1, k)]
    return Graph.from_edges(k + 1, spine + [(0, i) for i in range(1, k + 1)])


def prism_graph(k: int) -> Graph:
    edges = cycle_edges(k)
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges)


def antiprism_graph(k: int) -> Graph:
    edges = cycle_edges(k)
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    edges += [(i, k + (i + 1) % k) for i in range(k)]
    return Graph.from_edges(2 * k, edges)


def grid_graph(a: int, b: int) -> Graph:
    def vid(r: int, c: int) -> int:
        return r * b + c

    edges = []
    for r in range(a):
        for c in range(b):
            if c + 1 < b:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < a:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.from_edges(a * b, edges)


def book_graph(j: int) -> Graph:
    edges = [(0, 1)] + [(0, 2 + i) for i in range(j)] + [(1, 2 + i) for i in range(j)]
    return Graph.from_edges(j + 2, edges)


def tadpole_graph(k: int) -> Graph:
    return Graph.from_edges(k + 1, cycle_edges(k) + [(0, k)])


def triangulated_polygon(k: int) -> Graph:
    return Graph.from_edges(k, cycle_edges(k) + [(0, i) for i in range(2, k - 1)])


def k5_minus_edge_with_pendant() -> Graph:
    """K5 minus the edge 3-4, plus a pendant vertex 5 on vertex 0: a
    theta6-2-free host with the n = 6 maximum of 10 edges.  Embedded, the
    pendant edge turns one triangle of K5 - e into a 5-dart face."""
    k5_minus_edge = [
        (u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)
    ]
    return Graph.from_edges(6, k5_minus_edge + [(0, 5)])


def random_thinned_triangulation(
    n: int, p: float, rng: random.Random
) -> list[list[int]]:
    """Rotation rows of a random stacked triangulation on n vertices with
    each edge deleted with probability p unless that disconnects it."""
    rows = [[1, 2], [2, 0], [0, 1]]
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        x, y, z = faces.pop(rng.randrange(len(faces)))
        # v goes into the face x -> y -> z: right after the walk's
        # predecessor in each corner's row.
        for before, corner in ((z, x), (x, y), (y, z)):
            row = rows[corner]
            row.insert(row.index(before) + 1, v)
        rows.append([y, x, z])
        faces += [(x, y, v), (y, z, v), (z, x, v)]
    edges = sorted({normalize_edge(v, w) for v, row in enumerate(rows) for w in row})
    rng.shuffle(edges)
    for u, v in edges:
        if rng.random() >= p:
            continue
        saved = rows[u][:], rows[v][:]
        rows[u].remove(v)
        rows[v].remove(u)
        reached, stack = {u}, [u]
        while stack:
            for w in rows[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if v not in reached:  # a bridge: put it back where it was
            rows[u], rows[v] = saved
    return rows


def graph_atlas() -> list[Graph]:
    """Every graph on at most 7 vertices, one per isomorphism class (the
    1 253 graphs of networkx's graph atlas)."""
    import networkx as nx

    return [
        Graph.from_edges(g.number_of_nodes(), g.edges())
        for g in nx.graph_atlas_g()
    ]


def systematic_graphs() -> list[tuple[str, Graph]]:
    out: list[tuple[str, Graph]] = []
    for k in range(3, 20):
        out.append((f"cycle-{k}", Graph.from_edges(k, cycle_edges(k))))
    for k in range(2, 16):
        out.append((f"path-{k}", path_graph(k)))
    for j in range(1, 13):
        out.append((f"star-{j}", star_graph(j)))
    for k in range(3, 15):
        out.append((f"wheel-{k}", wheel_graph(k)))
    for k in range(2, 15):
        out.append((f"fan-{k}", fan_graph(k)))
    for k in range(3, 13):
        out.append((f"prism-{k}", prism_graph(k)))
    for k in range(3, 13):
        out.append((f"antiprism-{k}", antiprism_graph(k)))
    for a in range(2, 7):
        for b in range(a, 7):
            out.append((f"grid-{a}x{b}", grid_graph(a, b)))
    for j in range(1, 11):
        out.append((f"book-{j}", book_graph(j)))
    for k in range(3, 13):
        out.append((f"tadpole-{k}", tadpole_graph(k)))
    for k in range(4, 15):
        out.append((f"polygon-{k}", triangulated_polygon(k)))
    for k in range(4, 14):
        for d in range(2, k // 2 + 1):
            out.append((f"theta-{k}-{d}", theta_pattern(k, d)))
    return out


# ---------------------------------------------------------------------------
# session-wide expensive fixtures


def oracle_sweeps() -> dict[tuple[int, str], OracleResult]:
    """The oracle at n = 6, 7 and 8 for both patterns."""
    jobs = min(8, os.cpu_count() or 1)
    out: dict[tuple[int, str], OracleResult] = {}
    for n in (6, 7, 8):
        for name, pattern in PATTERNS.items():
            out[n, name] = max_edges(n, pattern, pattern_name=name, jobs=jobs)
    return out


@pytest.fixture(scope="session")
def oracle_results() -> dict[tuple[int, str], OracleResult]:
    return oracle_sweeps()


@pytest.fixture(scope="session")
def constructed_instances() -> list[tuple[str, PlaneGraph]]:
    out = [
        ("gadget-a", _build_chain("a")[0]),
        ("gadget-b", _build_chain("b")[0]),
    ]
    for k in (0, 1, 2):
        skeleton = build_skeleton(k)
        out.append((f"skeleton-{k}", skeleton))
        out.append((f"extremal-{k}", substitute_b5a(skeleton)))
    return out


@pytest.fixture(scope="session")
def corpus(
    oracle_results: dict[tuple[int, str], OracleResult],
    constructed_instances: list[tuple[str, PlaneGraph]],
) -> list[tuple[str, PlaneGraph]]:
    """Every graph the acceptance criteria sweep over, as plane graphs."""
    out: list[tuple[str, PlaneGraph]] = [
        (f"catalog-{label}", catalog_plane_graph(label)) for label in CATALOG_LABELS
    ]
    out.extend(constructed_instances)
    for (n, name), result in sorted(oracle_results.items()):
        for i, edges in enumerate(result.witnesses):
            out.append((f"witness-{name}-n{n}-{i}", embed(Graph.from_edges(n, edges))))
    for name, g in systematic_graphs():
        out.append((name, embed(g)))
    return out


# ---------------------------------------------------------------------------
# the BBar gadgets


@pytest.fixture()
def bbar_gadget() -> PlaneGraph:
    """B5c (frame x1..x5 = 0..4) plus outside apexes w=5 above and v=6
    below, giving the two forced 4-faces {x1,x2,x3,w} and {x1,x4,x3,v}."""
    coords = {
        0: (-2.0, 0.0),
        1: (0.0, 1.0),
        2: (2.0, 0.0),
        3: (0.0, -1.0),
        4: (0.0, 0.4),
        5: (0.0, 2.5),
        6: (0.0, -2.5),
    }
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 0),  # boundary 4-cycle
        (0, 4), (1, 4), (2, 4), (0, 2),  # interior of the B5c
        (0, 5), (2, 5), (0, 6), (2, 6),  # the four absorbed trivial edges
    ]
    return from_coordinates(coords, edges)


@pytest.fixture()
def bbar_merged() -> PlaneGraph:
    """The degenerate BBar neighborhood where both outside apexes are the
    same vertex z=5; only two trivial blocks get absorbed."""
    coords = {
        0: (-2.0, 0.0),
        1: (0.0, 1.0),
        2: (2.0, 0.0),
        3: (0.0, -1.0),
        4: (0.0, 0.4),
        5: (0.0, 2.5),
    }
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 0),
        (0, 4), (1, 4), (2, 4), (0, 2),
        (0, 5), (2, 5),
    ]
    return from_coordinates(coords, edges)
