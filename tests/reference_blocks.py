"""Reference triangular-block decomposition on edge tuples.

An independent route to the same blocks as :func:`triblock.blocks.decompose`:
the flood fill over 3-faces is the same rule, but every block is collected
as a set of normalized edge tuples, trivial blocks are the edges no 3-face
reaches (``pg.graph.edges`` minus the covered ones), blocks are ordered by
their smallest edge tuple, darts are found again through ``pg.dart``, and
every block is relabeled and labeled by an isomorphism search against the
catalog graphs, sharing no labeling code with ``decompose``.  Tests compare
the two field by field.
"""

from __future__ import annotations

from itertools import chain

from triblock.blocks import Decomposition, TriangularBlock
from triblock.catalog import CATALOG_LABELS, catalog_graph
from triblock.patterns import isomorphic
from triblock.plane_graph import Edge, Graph, PlaneGraph, normalize_edge


def relabeled(vertices: frozenset[int], edges: frozenset[Edge]) -> Graph:
    index = {v: i for i, v in enumerate(sorted(vertices))}
    return Graph.from_edges(len(index), ((index[u], index[v]) for u, v in edges))


def reference_label(g: Graph) -> str:
    """The first catalog label whose graph `isomorphic` accepts, or "Other"."""
    return next(
        (
            label
            for label in CATALOG_LABELS
            if isomorphic(catalog_graph(label), g)
        ),
        "Other",
    )


def reference_decompose(pg: PlaneGraph) -> Decomposition:
    faces, tail, head, twin, face = pg.faces, pg.tail, pg.head, pg.twin, pg.face

    unabsorbed = set(pg.triangle_faces())
    groups: list[list[int]] = []
    for fid in pg.triangle_faces():
        if fid not in unabsorbed:
            continue
        unabsorbed.remove(fid)
        group = [fid]
        for current in group:
            for d in faces[current]:
                other = face[twin[d]]
                if other in unabsorbed:
                    unabsorbed.remove(other)
                    group.append(other)
        groups.append(group)

    raw: list[tuple[frozenset[Edge], tuple[int, ...]]] = []
    covered: set[Edge] = set()
    for group in groups:
        edges = frozenset(
            normalize_edge(tail[d], head[d])
            for fid in group
            for d in faces[fid]
        )
        raw.append((edges, tuple(sorted(group))))
        covered |= edges
    raw.extend((frozenset((edge,)), ()) for edge in pg.graph.edges - covered)
    raw.sort(key=lambda item: min(item[0]))

    edge_to_block: dict[Edge, int] = {}
    for block_id, (edges, _) in enumerate(raw):
        for edge in edges:
            assert edge not in edge_to_block, edge
            edge_to_block[edge] = block_id
    assert len(edge_to_block) == pg.m

    dart_block = [-1] * len(tail)
    for edge, block_id in edge_to_block.items():
        d = pg.dart(*edge)
        dart_block[d] = dart_block[twin[d]] = block_id
    interior = {fid for _, faces_ in raw for fid in faces_}
    outer: list[list[tuple[int, int]]] = [[] for _ in raw]
    for fid, walk in enumerate(faces):
        if fid in interior:
            continue
        assert len(walk) != 3, fid
        steps: dict[int, int] = {}
        for d in walk:
            steps[dart_block[d]] = steps.get(dart_block[d], 0) + 1
        for block_id, count in steps.items():
            outer[block_id].append((fid, count))

    blocks = []
    for block_id, (edges, faces_) in enumerate(raw):
        vertices = frozenset(chain.from_iterable(edges))
        blocks.append(
            TriangularBlock(
                id=block_id,
                edges=edges,
                vertices=vertices,
                interior_faces=faces_,
                outer_faces=tuple(outer[block_id]),
                label=reference_label(relabeled(vertices, edges)),
            )
        )
    return Decomposition(blocks=tuple(blocks), edge_to_block=edge_to_block)
