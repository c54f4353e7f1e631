"""Triangular-block decomposition and catalog classification.

A *triangular block* is generated by flood-filling 3-faces across shared
edges: starting from any 3-face, keep absorbing every 3-face that shares an
edge with one already absorbed.  The union of the absorbed faces' edges is
a (non-trivial) block; an edge adjacent to no 3-face forms a trivial block
B2 of its own.  Block edge sets partition the edge set of the graph, and
any face adjacent to a block without being interior to it cannot itself be
a triangle — both facts are asserted on every decomposition rather than
assumed.  The faces a block meets without containing are its *outer
faces*; one pass over the face walks, reading the block of each dart,
records them with the number of walk steps that run along block edges,
and that ledger is all the face data :mod:`triblock.contribution` needs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from . import catalog
from .patterns import isomorphic
from .plane_graph import Edge, Graph, PlaneGraph, normalize_edge

__all__ = [
    "B5cFrame",
    "Decomposition",
    "DecompositionError",
    "NotB5c",
    "TriangularBlock",
    "canonical_b5c_frame",
    "classify",
    "decompose",
]


class DecompositionError(RuntimeError):
    """A structural invariant of the decomposition failed; always a bug."""


class NotB5c(ValueError):
    """canonical_b5c_frame was handed a block that is not a B5c."""


#: The relabeled subgraph of every trivial block: one edge on two vertices.
_K2 = Graph(2, frozenset({(0, 1)}))


def _relabeled(
    vertices: frozenset[int], edges: frozenset[Edge]
) -> tuple[Graph, tuple[int, ...]]:
    """See :meth:`TriangularBlock.induced_subgraph`."""
    originals = tuple(sorted(vertices))
    index = {v: i for i, v in enumerate(originals)}
    # index is increasing, so each relabeled pair stays sorted.
    relabeled = Graph(
        len(originals), frozenset((index[u], index[v]) for u, v in edges)
    )
    return relabeled, originals


@dataclass(frozen=True)
class TriangularBlock:
    """One block of the decomposition.

    ``interior_faces`` lists the face indices of the absorbed 3-faces
    (empty exactly for the trivial B2 blocks); ``edges`` is their union —
    or the single edge, when trivial.  ``outer_faces`` holds one
    ``(face index, steps)`` pair, sorted by face index, for every face the
    block meets but does not contain: ``steps`` counts the darts of that
    face's walk that run along block edges.  A bridge is a trivial block
    with the single outer face ``(f, 2)``.
    """

    id: int
    edges: frozenset[Edge]
    vertices: frozenset[int]
    interior_faces: tuple[int, ...]
    outer_faces: tuple[tuple[int, int], ...]
    label: str

    @property
    def is_trivial(self) -> bool:
        return not self.interior_faces

    def induced_subgraph(self) -> tuple[Graph, tuple[int, ...]]:
        """The block's edge-induced subgraph relabeled to 0..k-1, plus the
        sorted original vertex ids (index i holds the original of i)."""
        return _relabeled(self.vertices, self.edges)

    def degree_in_block(self) -> dict[int, int]:
        """Vertex degrees counting block edges only."""
        degs: Counter[int] = Counter()
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return dict(degs)


@dataclass(frozen=True)
class Decomposition:
    """All blocks of a plane graph; block edge sets partition E(G)."""

    blocks: tuple[TriangularBlock, ...]
    edge_to_block: dict[Edge, int]

    def block_of_edge(self, edge: Edge) -> TriangularBlock:
        return self.blocks[self.edge_to_block[edge]]

    def by_label(self, label: str) -> tuple[TriangularBlock, ...]:
        return tuple(b for b in self.blocks if b.label == label)


def classify(block_subgraph: Graph, interior_face_count: int) -> str:
    """Catalog label of a block's subgraph, or "Other".

    Classification is by isomorphism type of the subgraph alone; the
    interior-face count is accepted because the same subgraph can occur
    with different interior sets in a host, but only the trivial case
    (single edge, zero interior faces) consults it as a sanity check.
    """
    n, m = block_subgraph.n, block_subgraph.m
    if (n, m) == (2, 1):
        if interior_face_count != 0:
            raise DecompositionError(
                "single-edge block reported interior faces"
            )
        return "B2"
    for label in catalog.labels_by_size(n, m):
        # The catalog graph recurs across calls, so it goes first: that is
        # the side `isomorphic` plans, and its plan is cached.
        if isomorphic(catalog.catalog_graph(label), block_subgraph):
            return label
    return "Other"


def decompose(pg: PlaneGraph) -> Decomposition:
    """Triangular-block decomposition of a plane graph.

    Deterministic: blocks are ordered by their smallest edge, and ids
    follow that order.
    """
    faces, tail, head, twin, face = pg.faces, pg.tail, pg.head, pg.twin, pg.face
    triangles = pg.triangle_faces()

    # Flood fill over 3-faces: each dart of a walk crosses to the face on
    # the other side of its edge, the face of its twin.
    unabsorbed = set(triangles)
    groups: list[list[int]] = []
    for fid in triangles:
        if fid not in unabsorbed:
            continue
        unabsorbed.remove(fid)
        group = [fid]
        for current in group:  # the group grows while it is scanned
            for d in faces[current].darts:
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
            for d in faces[fid].darts
        )
        raw.append((edges, tuple(sorted(group))))
        covered |= edges
    raw.extend((frozenset((edge,)), ()) for edge in pg.graph.edges - covered)

    raw.sort(key=lambda item: min(item[0]))

    edge_to_block: dict[Edge, int] = {}
    interior_of: dict[int, int] = {}
    for block_id, (edges, interior) in enumerate(raw):
        for edge in edges:
            if edge in edge_to_block:
                raise DecompositionError(
                    f"edge {edge} claimed by blocks "
                    f"{edge_to_block[edge]} and {block_id}"
                )
            edge_to_block[edge] = block_id
        interior_of.update((fid, block_id) for fid in interior)
    if len(edge_to_block) != pg.m:
        raise DecompositionError(
            f"blocks cover {len(edge_to_block)} of {pg.m} edges"
        )

    # The block of every dart: an interior face's darts and their twins
    # run along its block's edges, and a trivial block is one edge.
    dart_block = [-1] * len(tail)
    for block_id, (edges, interior) in enumerate(raw):
        if interior:
            for fid in interior:
                for d in faces[fid].darts:
                    dart_block[d] = dart_block[twin[d]] = block_id
        else:
            (edge,) = edges
            d = pg.dart(*edge)
            dart_block[d] = dart_block[twin[d]] = block_id

    # One pass over the walks of the faces no block contains (every dart
    # of an interior face lies on its own block): each dart lands on the
    # block of its edge, and the face is outer to each block it steps on.
    # Such a face cannot be a triangle: the flood fill would have absorbed
    # it (or made a trivial block non-trivial).
    outer: list[list[tuple[int, int]]] = [[] for _ in raw]
    for f in faces:
        if f.index in interior_of:
            continue
        steps: dict[int, int] = {}
        for d in f.darts:
            block_id = dart_block[d]
            steps[block_id] = steps.get(block_id, 0) + 1
        for block_id, count in steps.items():
            if f.is_triangle:
                raise DecompositionError(
                    f"3-face {f.index} is adjacent to block {block_id} "
                    "without being interior to it"
                )
            outer[block_id].append((f.index, count))

    # A label depends only on the relabeled subgraph and the interior
    # count, and a host repeats few shapes: classify each one once.  Every
    # trivial block has the shape (K2, 0), so it is not relabeled.
    labels: dict[tuple[Graph, int], str] = {}
    blocks: list[TriangularBlock] = []
    for block_id, (edges, interior) in enumerate(raw):
        vertices = frozenset(chain.from_iterable(edges))
        if interior:
            shape = (_relabeled(vertices, edges)[0], len(interior))
        else:
            shape = (_K2, 0)
        if shape not in labels:
            labels[shape] = classify(*shape)
        blocks.append(
            TriangularBlock(
                id=block_id,
                edges=edges,
                vertices=vertices,
                interior_faces=interior,
                outer_faces=tuple(outer[block_id]),
                label=labels[shape],
            )
        )
    return Decomposition(blocks=tuple(blocks), edge_to_block=edge_to_block)


@dataclass(frozen=True)
class B5cFrame:
    """Role assignment for a B5c block, in the usual drawing: boundary
    4-cycle x1-x2-x3-x4, diagonal x1-x3, apex x5 adjacent to x1, x2, x3."""

    x1: int
    x2: int
    x3: int
    x4: int
    x5: int
    boundary_edges: frozenset[Edge]


def canonical_b5c_frame(pg: PlaneGraph, block: TriangularBlock) -> B5cFrame:
    """Identify the five roles of a B5c block inside its host.

    The two degree-3 vertices of the abstract block are exchanged by an
    automorphism, so the apex x5 is pinned down by the embedding instead:
    it is the degree-3 vertex all of whose block edges lie on interior
    faces only.  The diagonal symmetry x1 <-> x3 is broken by taking x1 to
    be the smaller vertex id.
    """
    if block.label != "B5c":
        raise NotB5c(f"block {block.id} has label {block.label}")

    degs = block.degree_in_block()
    by_degree: dict[int, list[int]] = {2: [], 3: [], 4: []}
    for v, d in degs.items():
        by_degree[d].append(v)
    (x4,) = by_degree[2]
    x1, x3 = sorted(by_degree[4])

    interior = set(block.interior_faces)
    boundary_edges = frozenset(
        edge
        for edge in block.edges
        if any(fid not in interior for fid in pg.faces_of_edge(edge))
    )
    boundary_vertices = {v for edge in boundary_edges for v in edge}
    apex_candidates = [v for v in by_degree[3] if v not in boundary_vertices]
    if len(apex_candidates) != 1:
        raise DecompositionError(
            f"B5c block {block.id}: expected one apex off the boundary, "
            f"got {apex_candidates}"
        )
    (x5,) = apex_candidates
    (x2,) = (v for v in by_degree[3] if v != x5)

    expected = frozenset(
        (min(a, b), max(a, b))
        for a, b in ((x1, x2), (x2, x3), (x3, x4), (x4, x1))
    )
    if boundary_edges != expected:
        raise DecompositionError(
            f"B5c block {block.id}: boundary edges {sorted(boundary_edges)} "
            f"do not form the 4-cycle {sorted(expected)}"
        )
    return B5cFrame(
        x1=x1, x2=x2, x3=x3, x4=x4, x5=x5, boundary_edges=boundary_edges
    )
