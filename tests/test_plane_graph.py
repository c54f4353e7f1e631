from __future__ import annotations

import importlib.util
import pickle
import random
import re
import sys
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import random_thinned_triangulation
from drawing import AmbiguousLayout, from_coordinates
from triblock import plane_graph
from triblock.catalog import CATALOG_LABELS, catalog_plane_graph
from triblock.constructions import build_skeleton, substitute_b5a, verify_extremal
from triblock.contribution import certify, get_spec
from triblock.patterns import (
    THETA6_1,
    THETA6_2,
    contains_subgraph,
    contains_subgraph_using_edge,
    is_free,
)
from triblock.plane_graph import (
    DisconnectedGraph,
    FormatError,
    Graph,
    InconsistentRotation,
    NonPlanarEmbedding,
    PlaneGraph,
    PlaneGraphError,
    export_dot,
    format_planegraph,
    normalize_edge,
    parse_planegraph,
)

K4_ROTATIONS = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]


def test_k4_has_four_triangular_faces():
    pg = PlaneGraph(4, K4_ROTATIONS)
    assert (pg.n, pg.m, pg.face_count) == (4, 6, 4)
    assert all(len(walk) == 3 for walk in pg.faces)
    assert sorted(pg.triangle_faces()) == [0, 1, 2, 3]


def test_cycle_has_two_faces_of_full_length():
    k = 6
    rotations = [[(i - 1) % k, (i + 1) % k] for i in range(k)]
    pg = PlaneGraph(k, rotations)
    assert pg.face_count == 2
    assert sorted(map(len, pg.faces)) == [k, k]
    assert not any(len(walk) == 3 for walk in pg.faces)


def test_star_face_walks_every_edge_twice():
    # K_{1,3}: one face whose walk has six darts but only three edges, so
    # it must not count as a triangle.
    pg = PlaneGraph(4, [[1, 2, 3], [0], [0], [0]])
    assert pg.face_count == 1
    assert len(pg.faces[0]) == 6
    assert len(pg.face_edges(0)) == 3
    assert pg.triangle_faces() == ()


def test_bridge_edge_has_equal_face_pair():
    pg = PlaneGraph(4, [[1, 2, 3], [0], [0], [0]])
    assert pg.faces_of_edge(normalize_edge(0, 1)) == (0, 0)


def test_toroidal_k4_rotation_rejected():
    message = "Euler check failed: n - m + f = 4 - 6 + 2 = 0, expected 2"
    with pytest.raises(NonPlanarEmbedding, match=re.escape(message)):
        PlaneGraph(4, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def test_single_vertex_rejected():
    with pytest.raises(PlaneGraphError):
        PlaneGraph(1, [[]])


def test_asymmetric_rotation_rejected():
    message = "vertex 0 lists 2 but 2 does not list 0"
    with pytest.raises(InconsistentRotation, match=message):
        PlaneGraph(3, [[1, 2], [0], [1]])


def test_duplicate_neighbor_rejected():
    with pytest.raises(InconsistentRotation, match="vertex 0 lists neighbor 1 twice"):
        PlaneGraph(2, [[1, 1], [0]])
    # The first fault in row order is the one reported.
    with pytest.raises(InconsistentRotation, match="vertex 0 lists neighbor 1 twice"):
        PlaneGraph(3, [[1, 2, 1, 0], [0], [0]])


def test_loop_rejected():
    with pytest.raises(InconsistentRotation, match="loop at vertex 0"):
        PlaneGraph(2, [[1, 0], [0]])


def test_out_of_range_neighbor_rejected():
    for rows, message in (
        ([[1, 5], [0]], "vertex 0 lists out-of-range neighbor 5"),
        ([[1], [0, -1]], "vertex 1 lists out-of-range neighbor -1"),
        ([[1, 2], [0, 7, 0], [0, 1]], "vertex 1 lists out-of-range neighbor 7"),
    ):
        with pytest.raises(InconsistentRotation, match=message):
            PlaneGraph(len(rows), rows)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph, match="graph on 4 vertices is not connected"):
        PlaneGraph(4, [[1], [0], [3], [2]])
    # An isolated vertex is refused as disconnected, not by Euler's formula.
    with pytest.raises(DisconnectedGraph, match="graph on 3 vertices is not connected"):
        PlaneGraph(3, [[1], [0], []])


def test_disconnected_rejected_even_when_euler_holds():
    # A triangle (3 - 3 + 2) beside a K4 embedded on the torus (4 - 6 + 2):
    # 7 - 9 + 4 = 2, so only the connectivity check can refuse it.
    toroidal_k4 = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    rows = [[1, 2], [2, 0], [0, 1]] + [[w + 3 for w in row] for row in toroidal_k4]
    with pytest.raises(DisconnectedGraph, match="graph on 7 vertices is not connected"):
        PlaneGraph(7, rows)


def test_dart_counts_sum_to_twice_edges():
    pg = PlaneGraph(4, K4_ROTATIONS)
    assert sum(map(len, pg.faces)) == 2 * pg.m


def test_successor_walks_are_closed():
    pg = PlaneGraph(4, K4_ROTATIONS)
    for index, walk in enumerate(pg.faces):
        for dart, nxt in zip(walk, walk[1:] + walk[:1]):
            # nxt is the dart after twin[dart] in the head's row.
            row = pg.rotation[pg.head[dart]]
            after = row[(row.index(pg.tail[dart]) + 1) % len(row)]
            assert (pg.tail[nxt], pg.head[nxt]) == (pg.head[dart], after)
            assert pg.face[dart] == index


def test_immutability():
    pg = PlaneGraph(4, K4_ROTATIONS)
    with pytest.raises(AttributeError):
        pg.graph = None


def test_pickle_round_trip_rebuilds_from_the_rows():
    pg = substitute_b5a(build_skeleton(1))
    size = len(pickle.dumps(pg))
    assert pg.graph.m == pg.m  # the cached abstract graph is not pickled
    assert len(pickle.dumps(pg)) == size
    again = pickle.loads(pickle.dumps(pg))
    assert (again.rotation, again.faces) == (pg.rotation, pg.faces)
    for name in ("tail", "head", "twin", "face"):
        assert getattr(again, name) == getattr(pg, name)


@pytest.fixture
def graph_builds(monkeypatch):
    """The vertex counts of the abstract graphs plane_graph builds."""
    builds = []

    def counting_graph(n, edges):
        builds.append(n)
        return Graph(n, edges)

    monkeypatch.setattr(plane_graph, "Graph", counting_graph)
    return builds


def test_the_pipeline_never_builds_the_abstract_graph(graph_builds):
    member = substitute_b5a(build_skeleton(1))
    pg = parse_planegraph(format_planegraph(member))
    free = is_free(pg, THETA6_1)
    assert certify(pg, get_spec("theta6-1"), freeness_checked=free).bound_holds
    assert verify_extremal(1).ok
    assert graph_builds == []


def test_checking_a_witness_on_a_plane_host_builds_no_graph(graph_builds):
    member = substitute_b5a(build_skeleton(40))
    witness = contains_subgraph(member, THETA6_2)
    assert witness is not None
    assert witness.is_valid(member, THETA6_2)
    mp = witness.mapping
    a, b = min(THETA6_2.edges)
    again = contains_subgraph_using_edge(member, THETA6_2, (mp[a], mp[b]))
    assert again is not None and again.is_valid(member, THETA6_2)
    with pytest.raises(ValueError, match="is not a host edge"):
        contains_subgraph_using_edge(member, THETA6_2, (0, member.n - 1))
    assert graph_builds == []


def test_the_abstract_graph_is_built_once_on_first_read(graph_builds):
    pg = PlaneGraph(4, K4_ROTATIONS)
    assert graph_builds == []
    first = pg.graph
    assert graph_builds == [4]
    assert pg.graph is first
    assert graph_builds == [4]


def _random_hosts(monkeypatch, seed: int, count: int):
    """The benchmark's seeded random plane hosts, as planegraph text."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "hosts.py"
    spec = importlib.util.spec_from_file_location("perfbench_hosts", path)
    hosts = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, hosts)  # dataclasses look it up
    spec.loader.exec_module(hosts)
    return [host.text for host in hosts.make_hosts(seed, count)]


def test_the_built_graph_is_the_graph_of_the_rows(monkeypatch):
    pgs = [catalog_plane_graph(label) for label in CATALOG_LABELS]
    for k in range(3):
        skeleton = build_skeleton(k)
        pgs += [skeleton, substitute_b5a(skeleton)]
    pgs += [parse_planegraph(text) for text in _random_hosts(monkeypatch, 1, 200)]
    for pg in pgs:
        rows = Graph.from_edges(
            pg.n, [(v, w) for v, row in enumerate(pg.rotation) for w in row]
        )
        assert pg.graph == rows
        assert pg.graph.adjacency() == rows.adjacency()


def test_from_coordinates_square_with_diagonal():
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    pg = from_coordinates(coords, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert (pg.n, pg.m, pg.face_count) == (4, 5, 3)
    assert len(pg.triangle_faces()) == 2


def test_from_coordinates_collinear_neighbors_rejected():
    coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    with pytest.raises(AmbiguousLayout):
        from_coordinates(coords, [(0, 1), (0, 2), (1, 2)])


def test_format_parse_round_trip():
    pg = PlaneGraph(4, K4_ROTATIONS)
    text = format_planegraph(pg, comment="complete graph on four vertices")
    again = parse_planegraph(text)
    assert again.rotation == pg.rotation
    assert again.graph.edges == pg.graph.edges


def test_parse_rejects_bad_header():
    with pytest.raises(FormatError):
        parse_planegraph("graph 1\n2 1\n0: 1\n1: 0\n")


def test_parse_rejects_edge_count_mismatch():
    with pytest.raises(FormatError):
        parse_planegraph("planegraph 1\n2 2\n0: 1\n1: 0\n")


def test_parse_ignores_comments_and_blank_lines():
    text = "# a comment\nplanegraph 1\n\n2 1\n0: 1\n# mid\n1: 0\n"
    pg = parse_planegraph(text)
    assert (pg.n, pg.m) == (2, 1)


def test_export_dot_lists_every_edge():
    pg = PlaneGraph(4, K4_ROTATIONS)
    dot = export_dot(pg)
    assert dot.startswith("graph")
    assert dot.count("--") == pg.m


@given(st.integers(min_value=3, max_value=12))
def test_cycle_round_trip_and_euler(k: int):
    rotations = [[(i - 1) % k, (i + 1) % k] for i in range(k)]
    pg = PlaneGraph(k, rotations)
    assert pg.n - pg.m + pg.face_count == 2
    assert parse_planegraph(format_planegraph(pg)).rotation == pg.rotation


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
def test_normalize_edge_orders_endpoints(u: int, v: int):
    if u == v:
        return
    assert normalize_edge(u, v) == normalize_edge(v, u) == (min(u, v), max(u, v))


def test_graph_helpers():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert g.m == 5
    assert g.degree(0) == 3
    assert g.degree_sequence() == (3, 3, 2, 2)
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.has_edge(2, 0) and not g.has_edge(1, 3)
    assert g.is_connected()


def test_graph_refuses_unsorted_and_out_of_range_pairs():
    # Both ends of (1, 0) are vertices: the fault is the order, and
    # from_edges is the constructor that sorts.
    with pytest.raises(ValueError, match=re.escape(
        "edge (1, 0) is not a sorted pair; Graph.from_edges sorts pairs"
    )):
        Graph(3, frozenset({(1, 0)}))
    with pytest.raises(ValueError, match=re.escape("edge (1, 3) out of range for n=3")):
        Graph(3, frozenset({(1, 3)}))
    with pytest.raises(ValueError, match=re.escape("edge (3, 1) out of range for n=3")):
        Graph(3, frozenset({(3, 1)}))
    assert Graph.from_edges(3, [(1, 0)]).edges == {(0, 1)}


def _trace_by_tuples(rotation):
    """Faces traced independently of PlaneGraph: darts as (tail, head)
    pairs, the successor found with row.index, starts taken in row order."""
    seen = set()
    faces = []
    for v, row in enumerate(rotation):
        for w in row:
            if (v, w) in seen:
                continue
            walk = []
            dart = (v, w)
            while dart not in seen:
                seen.add(dart)
                walk.append(dart)
                a, b = dart
                nbrs = rotation[b]
                dart = (b, nbrs[(nbrs.index(a) + 1) % len(nbrs)])
            faces.append(walk)
    return faces


def _dart_hosts():
    hosts = [catalog_plane_graph(label) for label in CATALOG_LABELS]
    for k in range(3):
        skeleton = build_skeleton(k)
        hosts += [skeleton, substitute_b5a(skeleton)]
    rng = random.Random(2024)
    for i in range(40):
        p = (0.0, 0.3, 0.6)[i % 3]
        rows = random_thinned_triangulation(rng.randrange(4, 60), p, rng)
        hosts.append(PlaneGraph(len(rows), rows))
    return hosts


def test_dart_arrays_are_a_half_edge_structure():
    for pg in _dart_hosts():
        darts = range(2 * pg.m)
        # Darts are numbered in row order.
        assert list(zip(pg.tail, pg.head)) == [
            (v, w) for v, row in enumerate(pg.rotation) for w in row
        ]
        for d in darts:
            t = pg.twin[d]
            assert t != d and pg.twin[t] == d
            assert pg.head[d] == pg.tail[t] and pg.tail[d] == pg.head[t]
        for index, walk in enumerate(pg.faces):
            for cur, nxt in zip(walk, walk[1:] + walk[:1]):
                assert pg.tail[nxt] == pg.head[cur]
                assert pg.face[cur] == index
        assert sorted(chain(*pg.faces)) == list(darts)
        for u, v in pg.graph.edges:
            d = pg.dart(u, v)
            assert (pg.tail[d], pg.head[d]) == (u, v)
            assert pg.dart(v, u) == pg.twin[d]
            sides = sorted((pg.face[d], pg.face[pg.twin[d]]))
            assert pg.faces_of_edge((u, v)) == tuple(sides)
        # Faces, in order, are the independent trace's walks.
        expected = _trace_by_tuples(pg.rotation)
        assert len(pg.faces) == len(expected)
        for index, (face, walk) in enumerate(zip(pg.faces, expected)):
            assert [(pg.tail[d], pg.head[d]) for d in face] == walk
            assert pg.face_vertices(index) == tuple(a for a, _ in walk)
            assert pg.face_edges(index) == {normalize_edge(*dart) for dart in walk}


def test_dart_refuses_non_vertices_and_non_edges():
    # A negative vertex must not wrap to the last row: on the triangle,
    # (-1, 0) would otherwise read as a dart id past 2m - 1.
    pg = PlaneGraph(3, [[1, 2], [2, 0], [0, 1]])
    for u, v in ((-1, 0), (0, -1), (0, 3), (3, 0), (0, 0)):
        with pytest.raises(ValueError, match=rf"\({u}, {v}\)"):
            pg.dart(u, v)
    with pytest.raises(ValueError, match=r"\(-1, 0\)"):
        pg.faces_of_edge((-1, 0))
