from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import (
    embed,
    k5_minus_edge_with_pendant,
    random_thinned_triangulation,
)
from drawing import from_coordinates
from reference_blocks import reference_decompose, reference_label
from triblock.blocks import (
    DecompositionError,
    NotB5c,
    canonical_b5c_frame,
    classify,
    decompose,
)
from triblock.catalog import CATALOG_LABELS, catalog_graph, catalog_plane_graph
from triblock.plane_graph import (
    Graph,
    PlaneGraph,
    normalize_edge,
)


def permuted(pg: PlaneGraph, perm: list[int]) -> PlaneGraph:
    rotations: list[list[int]] = [[] for _ in range(pg.n)]
    for v in range(pg.n):
        rotations[perm[v]] = [perm[w] for w in pg.rotation[v]]
    return PlaneGraph(pg.n, rotations)


def test_cycle_decomposes_into_trivial_blocks():
    k = 6
    pg = PlaneGraph(k, [[(i - 1) % k, (i + 1) % k] for i in range(k)])
    dec = decompose(pg)
    assert len(dec.blocks) == k
    assert all(b.is_trivial and b.label == "B2" for b in dec.blocks)
    for edge in pg.graph.edges:
        assert dec.block_of_edge(edge).edges == frozenset((edge,))


def test_k4_is_a_single_b4a_block():
    pg = PlaneGraph(4, [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    dec = decompose(pg)
    assert len(dec.blocks) == 1
    block = dec.blocks[0]
    assert block.label == "B4a"
    assert block.edges == pg.graph.edges
    assert len(block.interior_faces) == 4


def test_two_triangles_sharing_an_edge_merge_into_b4b():
    coords = [(0.0, 1.0), (-1.0, 0.0), (1.0, 0.0), (0.0, -1.0)]
    pg = from_coordinates(coords, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    dec = decompose(pg)
    assert [b.label for b in dec.blocks] == ["B4b"]
    assert len(dec.blocks[0].interior_faces) == 2


def test_triangle_with_pendant_splits_into_b3_and_b2():
    coords = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (-1.0, 0.5)]
    pg = from_coordinates(coords, [(0, 1), (1, 2), (0, 2), (0, 3)])
    dec = decompose(pg)
    assert sorted(b.label for b in dec.blocks) == ["B2", "B3"]
    b3 = dec.by_label("B3")[0]
    assert len(b3.interior_faces) == 1
    assert dec.by_label("B2")[0].edges == frozenset({(0, 3)})


def test_blocks_partition_the_edge_set():
    pg = catalog_plane_graph("B6")
    dec = decompose(pg)
    seen: set = set()
    for block in dec.blocks:
        assert not (block.edges & seen)
        seen |= block.edges
    assert seen == pg.graph.edges


def test_catalog_graphs_classify_as_themselves():
    for label in CATALOG_LABELS:
        dec = decompose(catalog_plane_graph(label))
        assert [b.label for b in dec.blocks] == [label]


def test_unknown_catalog_label_is_named():
    with pytest.raises(KeyError, match="unknown catalog label"):
        catalog_graph("B7")
    with pytest.raises(KeyError, match="unknown catalog label"):
        catalog_plane_graph("B7")


def test_catalog_graph_is_one_object_per_label():
    for label in CATALOG_LABELS:
        assert catalog_graph(label) is catalog_graph(label)


def test_classification_is_relabeling_invariant():
    rng = random.Random(20260822)
    for label in CATALOG_LABELS:
        pg = catalog_plane_graph(label)
        for _ in range(5):
            perm = list(range(pg.n))
            rng.shuffle(perm)
            dec = decompose(permuted(pg, perm))
            assert [b.label for b in dec.blocks] == [label]


def test_classify_is_exact_at_every_catalog_size():
    """Every graph on 0..n-1 with m edges, at each catalog (n, m): the
    (n, m, degree sequence) lookup gives the label of the reference's
    isomorphism search against the catalog, "Other" included."""
    graphs = [catalog_graph(label) for label in CATALOG_LABELS]
    keys = {(g.n, g.m, g.degree_sequence()) for g in graphs}
    assert len(keys) == len(CATALOG_LABELS)
    found: Counter[str] = Counter()
    for n, m in sorted({(g.n, g.m) for g in graphs}):
        for edges in combinations(combinations(range(n), 2), m):
            g = Graph(n, frozenset(edges))
            expected = reference_label(g)
            assert classify(g, 0 if m == 1 else 1) == expected, (n, edges)
            found[expected] += 1
    assert sum(found.values()) == 5189
    assert set(found) == {*CATALOG_LABELS, "Other"}


def test_classify_rejects_trivial_block_with_interior_faces():
    with pytest.raises(DecompositionError):
        classify(Graph.from_edges(2, [(0, 1)]), 1)


def test_classify_unknown_shape_is_other():
    # The octahedron is a triangular block but not a catalog member.
    octa = [
        (0, 1), (1, 2), (2, 0),
        (3, 4), (4, 5), (5, 3),
        (0, 4), (0, 5), (1, 5), (1, 3), (2, 3), (2, 4),
    ]
    assert classify(Graph.from_edges(6, octa), 7) == "Other"


def test_b5c_frame_roles(bbar_gadget: PlaneGraph):
    dec = decompose(bbar_gadget)
    (block,) = dec.by_label("B5c")
    frame = canonical_b5c_frame(bbar_gadget, block)
    assert (frame.x1, frame.x2, frame.x3, frame.x4, frame.x5) == (0, 1, 2, 3, 4)
    assert frame.boundary_edges == frozenset(
        {(0, 1), (1, 2), (2, 3), (0, 3)}
    )


def test_b5c_frame_in_the_flipped_embedding():
    # Same abstract graph, but drawn with the usual apex pulled outside:
    # the interior faces become x1x2x5, x2x3x5, x1x2x3, x1x3x4 and the
    # roles of the two degree-3 vertices swap.
    coords = {
        0: (-2.0, 0.0),
        1: (0.0, 1.0),
        2: (2.0, 0.0),
        3: (0.0, -1.0),
        4: (0.0, 3.0),
    }
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 0),
        (0, 4), (1, 4), (2, 4), (0, 2),
    ]
    pg = from_coordinates(coords, edges)
    dec = decompose(pg)
    (block,) = dec.by_label("B5c")
    frame = canonical_b5c_frame(pg, block)
    assert (frame.x1, frame.x3, frame.x4) == (0, 2, 3)
    assert (frame.x2, frame.x5) == (4, 1)
    assert frame.boundary_edges == frozenset(
        {(0, 4), (2, 4), (2, 3), (0, 3)}
    )


def test_frame_refuses_other_labels():
    pg = catalog_plane_graph("B3")
    dec = decompose(pg)
    with pytest.raises(NotB5c):
        canonical_b5c_frame(pg, dec.blocks[0])


def test_block_helpers():
    pg = catalog_plane_graph("B5c")
    dec = decompose(pg)
    block = dec.blocks[0]
    degs = block.degree_in_block()
    assert sorted(degs.values(), reverse=True) == [4, 4, 3, 3, 2]


def test_skeleton_blocks_are_all_triangles():
    from triblock.constructions import build_skeleton

    pg = build_skeleton(0)
    dec = decompose(pg)
    assert len(dec.blocks) == 20
    assert all(b.label == "B3" for b in dec.blocks)
    assert all(len(b.interior_faces) == 1 for b in dec.blocks)


def test_substituted_blocks_are_all_b5a():
    from triblock.constructions import build_skeleton, substitute_b5a

    graph = substitute_b5a(build_skeleton(0))
    dec = decompose(graph)
    assert len(dec.blocks) == 20
    assert all(b.label == "B5a" for b in dec.blocks)


def test_edge_normalization_in_lookup():
    pg = catalog_plane_graph("B4b")
    dec = decompose(pg)
    some_edge = next(iter(pg.graph.edges))
    assert dec.block_of_edge(normalize_edge(*some_edge)).label == "B4b"


def test_a_triangle_skipped_by_the_flood_fill_is_refused(monkeypatch):
    pg = catalog_plane_graph("B4a")
    kept = pg.triangle_faces()[1:]
    monkeypatch.setattr(PlaneGraph, "triangle_faces", lambda self: kept)
    with pytest.raises(DecompositionError, match="without being interior"):
        decompose(pg)


def test_decompose_refuses_inconsistent_dart_arrays():
    """The partition checks fire on a host whose arrays disagree: a face
    walk that skips the dart of its shared edge leaves two 3-faces in two
    groups across one edge, and a host claiming one edge more than its
    darts carry is not covered."""
    from types import SimpleNamespace

    pg = catalog_plane_graph("B4b")
    fields = ("n", "m", "faces", "tail", "head", "twin", "face")
    a, b = pg.triangle_faces()
    (shared,) = (d for d in pg.faces[a] if pg.face[pg.twin[d]] == b)
    walk = tuple(d for d in pg.faces[a] if d != shared)
    faces = pg.faces[:a] + (walk,) + pg.faces[a + 1:]
    skipping = SimpleNamespace(**{k: getattr(pg, k) for k in fields})
    skipping.faces, skipping.triangle_faces = faces, lambda: (a, b)
    claimed = r"edge \(\d+, \d+\) claimed by blocks 0 and 1"
    with pytest.raises(DecompositionError, match=claimed):
        decompose(skipping)
    larger = SimpleNamespace(**{k: getattr(pg, k) for k in fields})
    larger.m, larger.triangle_faces = pg.m + 1, pg.triangle_faces
    uncovered = f"blocks cover {pg.m} of {pg.m + 1} edges"
    with pytest.raises(DecompositionError, match=uncovered):
        decompose(larger)


def recounted_outer_faces(
    pg: PlaneGraph, block
) -> tuple[tuple[int, int], ...]:
    """The outer-face ledger recounted edge by edge: each block edge adds
    one step to the face on either side (a bridge adds two to its face)."""
    steps: Counter[int] = Counter()
    for edge in block.edges:
        steps.update(pg.faces_of_edge(edge))
    interior = set(block.interior_faces)
    return tuple(sorted((f, c) for f, c in steps.items() if f not in interior))


def thinned(pg: PlaneGraph, p: float, rng: random.Random) -> PlaneGraph:
    """``pg`` with each edge deleted with probability p, unless deleting it
    would disconnect the graph; rotations are restricted, so it stays plane."""
    edges = set(pg.graph.edges)
    for edge in sorted(pg.graph.edges):
        rest = frozenset(edges - {edge})
        if rng.random() < p and Graph(pg.n, rest).is_connected():
            edges = set(rest)
    rows = [
        [w for w in pg.rotation[v] if normalize_edge(v, w) in edges]
        for v in range(pg.n)
    ]
    return PlaneGraph(pg.n, rows)


def test_outer_faces_match_a_recount_through_faces_of_edge():
    from triblock.constructions import build_skeleton, substitute_b5a

    hosts = [catalog_plane_graph(label) for label in CATALOG_LABELS]
    family = [substitute_b5a(build_skeleton(k)) for k in (0, 1)]
    hosts += family
    rng = random.Random(20261018)
    for p in (0.2, 0.4, 0.6):
        hosts.append(thinned(catalog_plane_graph("B6"), p, rng))
        hosts.append(thinned(family[0], p, rng))
    bridges = 0
    for pg in hosts:
        for block in decompose(pg).blocks:
            assert block.outer_faces == recounted_outer_faces(pg, block)
            bridges += block.is_trivial and len(block.outer_faces) == 1
    assert bridges > 0  # the thinned hosts exercise the two-step bridge case


def test_decompose_matches_the_edge_tuple_reference(bbar_gadget: PlaneGraph):
    from triblock.constructions import build_skeleton, substitute_b5a

    hosts = [catalog_plane_graph(label) for label in CATALOG_LABELS]
    hosts += [substitute_b5a(build_skeleton(k)) for k in (0, 1, 2)]
    hosts += [bbar_gadget, embed(k5_minus_edge_with_pendant())]
    rng = random.Random(20261019)
    for i in range(50):
        p = (0.0, 0.2, 0.4, 0.55)[i % 4]
        rows = random_thinned_triangulation(rng.randrange(6, 50), p, rng)
        hosts.append(PlaneGraph(len(rows), rows))
    bridges = 0
    labels: set[str] = set()
    for pg in hosts:
        dec, ref = decompose(pg), reference_decompose(pg)
        assert len(dec.blocks) == len(ref.blocks)
        for b, r in zip(dec.blocks, ref.blocks):
            assert (b.id, b.edges, b.vertices) == (r.id, r.edges, r.vertices)
            assert b.interior_faces == r.interior_faces
            assert b.outer_faces == r.outer_faces
            assert b.label == r.label
            bridges += b.is_trivial and len(b.outer_faces) == 1
            labels.add(b.label)
        assert dec.edge_to_block == ref.edge_to_block
    assert bridges > 0
    assert labels == {*CATALOG_LABELS, "Other"}
