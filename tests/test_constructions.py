from __future__ import annotations

import re

import pytest

from conftest import graph_atlas
from triblock import constructions
from triblock.constructions import (
    GluingMismatch,
    _build_chain,
    _check_edge_face_types,
    _has_four_cycle,
    _plant,
    build_skeleton,
    substitute_b5a,
    verify_extremal,
)
from triblock.patterns import THETA6_2, contains_subgraph, cycle_graph, is_free
from triblock.plane_graph import PlaneGraph, normalize_edge


def edge_face_lengths(pg, edge):
    return sorted(len(pg.faces[f]) for f in pg.faces_of_edge(edge))


def lone_gadget(kind):
    """One copy of gadget ``kind`` and its two junction rings, the
    innermost and the outermost ring level, each in cyclic order."""
    pg, places = _build_chain(kind)
    inner, outer = (
        tuple(v for v, (level, _) in enumerate(places) if level == end)
        for end in (0, places[-1][0])
    )
    return pg, inner, outer


def ring_edges(ring):
    return {
        normalize_edge(ring[i], ring[(i + 1) % len(ring)])
        for i in range(len(ring))
    }


def test_gadget_a_counts_and_regularity():
    pg, _, _ = lone_gadget("a")
    assert (pg.n, pg.m, pg.face_count) == (30, 60, 32)
    assert all(pg.graph.degree(v) == 4 for v in range(pg.n))


def test_gadget_a_edge_face_types():
    pg, _, _ = lone_gadget("a")
    for edge in pg.graph.edges:
        assert edge_face_lengths(pg, edge) == [3, 5]


def test_gadget_b_counts_and_regularity():
    pg, _, _ = lone_gadget("b")
    assert (pg.n, pg.m, pg.face_count) == (50, 100, 52)
    assert all(pg.graph.degree(v) == 4 for v in range(pg.n))


def test_gadget_b_edge_face_types():
    # The two junction pentagons are bounded by pentagon rings on both
    # sides while the gadget stands alone; every other edge shows the
    # one-triangle-one-pentagon pattern that survives gluing.
    pg, inner, outer = lone_gadget("b")
    junction = ring_edges(inner) | ring_edges(outer)
    assert len(junction) == 10
    for edge in pg.graph.edges:
        expected = [5, 5] if edge in junction else [3, 5]
        assert edge_face_lengths(pg, edge) == expected, edge


def test_gadgets_have_no_four_cycles():
    c4 = cycle_graph(4)
    assert is_free(lone_gadget("a")[0], c4)
    assert is_free(lone_gadget("b")[0], c4)


def test_gadget_pentagons_are_faces():
    for kind in ("a", "b"):
        pg, inner, outer = lone_gadget(kind)
        for ring in (inner, outer):
            assert len(ring) == 5
            edges = ring_edges(ring)
            assert any(pg.face_edges(f) == edges for f in range(pg.face_count))
        assert not set(inner) & set(outer)


def test_edge_face_check_refuses_a_lone_gadget_b():
    # Standing alone, B's junction edges lie between two pentagons; only
    # the gadgets glued on either side bring their triangles.
    pg, inner, outer = lone_gadget("b")
    with pytest.raises(GluingMismatch, match=re.escape(
        "lies on faces of lengths [5, 5], expected one triangle and one "
        "pentagon"
    )) as refusal:
        _check_edge_face_types(pg)
    named = re.match(r"edge \((\d+), (\d+)\)", str(refusal.value))
    junction = ring_edges(inner) | ring_edges(outer)
    assert (int(named[1]), int(named[2])) in junction


def test_edge_face_check_refuses_a_quadrilateral_face():
    c4 = PlaneGraph(4, [[1, 3], [2, 0], [3, 1], [0, 2]])
    with pytest.raises(GluingMismatch, match=re.escape(
        "face 0 has 4 darts, expected 3 or 5"
    )):
        _check_edge_face_types(c4)


@pytest.mark.parametrize("k", [0, 1, 2, 199])
def test_skeleton_counts(k: int):
    pg = build_skeleton(k)
    assert (pg.n, pg.m) == (70 * k + 30, 150 * k + 60)
    lengths = sorted(map(len, pg.faces))
    assert lengths.count(3) == 50 * k + 20
    assert lengths.count(5) == 30 * k + 12
    assert len(lengths) == 80 * k + 32
    assert len(pg.triangle_faces()) == 50 * k + 20


def test_skeleton_edge_face_types_are_strict():
    pg = build_skeleton(1)
    for edge in pg.graph.edges:
        assert edge_face_lengths(pg, edge) == [3, 5]


def test_skeleton_is_c4_free():
    assert is_free(build_skeleton(1), cycle_graph(4))


def test_four_cycle_check_agrees_with_the_search_on_the_graph_atlas():
    c4 = cycle_graph(4)
    verdicts = set()
    for g in graph_atlas():
        found = _has_four_cycle(g.adjacency())
        assert found == (contains_subgraph(g, c4) is not None), sorted(g.edges)
        verdicts.add(found)
    assert verdicts == {True, False}


def test_skeleton_check_refuses_a_four_cycle(monkeypatch):
    # Move the edge 0-8 of the k = 0 skeleton to the chord 1-7 of the
    # hexagon that deleting it leaves: the counts of vertices, edges,
    # triangles and pentagons stay, and 0-1-7-4 is a 4-cycle.  Some edges
    # now lie on two faces of one size, so the face-type check refuses the
    # graph first; with that check off, the 4-cycle check must refuse it.
    rows = [list(row) for row in build_skeleton(0).rotation]
    assert (rows[0], rows[1], rows[7], rows[8]) == (
        [8, 7, 4, 1], [9, 8, 0, 2], [17, 16, 4, 0], [19, 18, 0, 1]
    )
    rows[0].remove(8)
    rows[8].remove(0)
    rows[1].insert(2, 7)
    rows[7].insert(4, 1)
    doctored = PlaneGraph(30, rows)
    assert contains_subgraph(doctored, cycle_graph(4)) is not None
    with pytest.raises(GluingMismatch, match="expected one triangle"):
        constructions._validate_skeleton(doctored, 0)
    monkeypatch.setattr(
        constructions, "_check_edge_face_types", lambda pg: None
    )
    with pytest.raises(GluingMismatch, match="k=0 contains a 4-cycle"):
        constructions._validate_skeleton(doctored, 0)


def test_skeleton_rejects_negative_k():
    with pytest.raises(ValueError):
        build_skeleton(-1)


@pytest.mark.parametrize("k", [0, 1])
def test_substitution_counts(k: int):
    graph = substitute_b5a(build_skeleton(k))
    assert (graph.n, graph.m) == (170 * k + 70, 450 * k + 180)
    lengths = sorted(map(len, graph.faces))
    # every skeleton triangle becomes five triangles; pentagons survive
    assert lengths.count(3) == 5 * (50 * k + 20)
    assert lengths.count(5) == 30 * k + 12
    assert lengths.count(3) + lengths.count(5) == len(lengths)


def test_planting_needs_the_walk_of_a_face():
    # Reversed, a triangle's walk bounds no face (a pentagon lies across
    # each of its edges), so some corner lacks the wedge to splice into.
    pg = build_skeleton(0)
    x, y, z = pg.face_vertices(pg.triangle_faces()[0])
    rows = [list(row) for row in pg.rotation]
    with pytest.raises(GluingMismatch):
        _plant(rows, (x, z, y))


def test_substitution_adds_two_vertices_and_six_edges_per_triangle():
    # Any plane graph's triangles take the planting; K4 has four.
    k4 = PlaneGraph(4, [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    graph = substitute_b5a(k4)
    assert (graph.n, graph.m) == (4 + 2 * 4, 6 + 6 * 4)
    assert len(graph.triangle_faces()) == 5 * 4


def test_substitution_checks_its_counts_against_its_input(monkeypatch):
    # A planting that adds nothing leaves the input's counts.
    monkeypatch.setattr(constructions, "_plant", lambda rows, walk: len(rows))
    with pytest.raises(GluingMismatch, match=re.escape(
        "substituted graph counts (30, 60), expected (70, 180)"
    )):
        substitute_b5a(build_skeleton(0))


def test_substitution_hits_the_bound_exactly():
    graph = substitute_b5a(build_skeleton(0))
    assert 17 * graph.m == 45 * (graph.n - 2)


def test_substituted_graph_contains_the_short_chord_theta():
    # Tightness is specific to the long chord: the family is far above the
    # 18/7 bound, so it cannot be free of the distance-2 variant.
    graph = substitute_b5a(build_skeleton(0))
    assert 7 * graph.m > 18 * (graph.n - 2)
    assert not is_free(graph, THETA6_2)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_verify_extremal(k: int):
    report = verify_extremal(k)
    assert report.ok
    assert report.failures == ()
    assert report.counts_ok
    assert report.pattern_free is True
    assert report.blocks_all_b5a
    assert report.all_g_zero
    assert report.bound_equality
    cert = report.certificate
    assert cert.identities_ok and cert.all_nonpositive and cert.bound_holds
    assert all(c.g_c == 0 for c in cert.clusters)
    assert len(cert.clusters) == 50 * k + 20


def test_verify_extremal_report_json():
    report = verify_extremal(0)
    data = report.to_json_dict()
    assert data["k"] == 0
    assert data["n"] == 70 and data["m"] == 180
    assert data["pattern_free"] is True
    assert data["failures"] == []
    assert data["ok"] is True
    assert data["certificate"]["spec"] == "theta6-1"


def test_skeleton_extends_the_previous_one():
    # Nesting only adds outer rings: the k=0 gadget sits unchanged inside
    # the k=1 skeleton with the same vertex ids.
    small = build_skeleton(0)
    large = build_skeleton(1)
    assert small.graph.edges <= large.graph.edges
    # Off the outer ring, where the next copy is glued on, the embedding
    # is untouched too: every rotation row stays exactly as it was.
    outer = set(lone_gadget("a")[2])
    for v in range(small.n):
        if v not in outer:
            assert large.rotation[v] == small.rotation[v], v
