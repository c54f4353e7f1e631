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

The decomposition runs on the dart arrays of
:class:`~triblock.plane_graph.PlaneGraph` from start to end.  The flood
fill labels faces with group ids, crossing each dart to the face of its
twin; each dart then gets the group on either side of its edge, and an
edge with a group on neither side becomes the next trivial block.  The
smaller dart of an edge runs from its smaller end, so it gives the sorted
edge tuple without normalizing, and blocks are ordered by the integer
u*n + v of their smallest edge (u, v).

A non-trivial block is labeled by one dictionary lookup: the key
(vertex count, edge count, block degrees in falling order) of each of the
nine catalog graphs maps to its label (`_LABELS`), and a block whose key
is not there is "Other".  The key is exact at the catalog sizes, not just
a filter: among all graphs with the (n, m) of a catalog entry, those with
its degree sequence are exactly its isomorphs, and the nine keys are
distinct.  The two five-vertex/eight-edge entries, for example, are K5
less two edges; the two missing edges are disjoint in B5b, degrees
4,3,3,3,3, and share a vertex in B5c, degrees 4,4,3,3,2.
``tests/test_blocks.py`` checks the claim on every labeled graph of each
catalog size against an isomorphism search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count
from operator import and_, lt, xor
from typing import Iterable

from . import catalog
from .plane_graph import Edge, Graph, PlaneGraph

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


#: (vertex count, edge count, degree sequence) -> label, for each catalog
#: graph; exact at the catalog sizes (see the module docstring).
_LABELS: dict[tuple[int, int, tuple[int, ...]], str] = {
    (g.n, g.m, g.degree_sequence()): label
    for label, g in zip(
        catalog.CATALOG_LABELS,
        map(catalog.catalog_graph, catalog.CATALOG_LABELS),
    )
}


def _block_degrees(edges: Iterable[Edge]) -> Counter[int]:
    """Vertex degrees counting the given edges only."""
    return Counter(chain.from_iterable(edges))


@dataclass(frozen=True, init=False)
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

    def __init__(
        self,
        id: int,
        edges: frozenset[Edge],
        vertices: frozenset[int],
        interior_faces: tuple[int, ...],
        outer_faces: tuple[tuple[int, int], ...],
        label: str,
    ) -> None:
        # Written into the instance dict at once, which the frozen
        # dataclass's per-field setattr calls would cost twice over; every
        # decomposition builds one block per block.
        self.__dict__.update(
            id=id,
            edges=edges,
            vertices=vertices,
            interior_faces=interior_faces,
            outer_faces=outer_faces,
            label=label,
        )

    @property
    def is_trivial(self) -> bool:
        return not self.interior_faces

    def degree_in_block(self) -> dict[int, int]:
        """Vertex degrees counting block edges only."""
        return dict(_block_degrees(self.edges))


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

    The label is the `_LABELS` entry of the key (n, m, degree sequence),
    which decides isomorphism to a catalog graph exactly (see the module
    docstring; ``tests/test_blocks.py`` checks every graph of each catalog
    size).  The interior-face count is accepted because the same subgraph
    can occur with different interior sets in a host, but only the trivial
    case (single edge, zero interior faces) consults it as a sanity check.
    """
    n, m = block_subgraph.n, block_subgraph.m
    if (n, m) == (2, 1):
        if interior_face_count != 0:
            raise DecompositionError(
                "single-edge block reported interior faces"
            )
        return "B2"
    return _LABELS.get((n, m, block_subgraph.degree_sequence()), "Other")


def decompose(pg: PlaneGraph) -> Decomposition:
    """Triangular-block decomposition of a plane graph.

    Deterministic: blocks are ordered by their smallest edge (u, v), as the
    integer u*n + v, and ids follow that order.
    """
    faces, tail, head, twin, face = pg.faces, pg.tail, pg.head, pg.twin, pg.face

    # Flood fill over 3-faces, labelling each face with its group: -2 marks
    # a 3-face not reached yet, -1 a face no group contains.  Each dart of a
    # walk crosses to the face on the other side of its edge, its twin's.
    group_of = [-1] * len(faces)
    triangles = pg.triangle_faces()
    for fid in triangles:
        group_of[fid] = -2
    groups: list[list[int]] = []
    for fid in triangles:
        if group_of[fid] != -2:
            continue
        g = len(groups)
        group_of[fid] = g
        group = [fid]
        for current in group:  # the group grows while it is scanned
            for d in faces[current]:
                other = face[twin[d]]
                if group_of[other] == -2:
                    group_of[other] = g
                    group.append(other)
        groups.append(group)

    # The groups on the two sides of each dart's edge.  The flood fill
    # crosses every edge of a group, so they agree unless one side is -1,
    # and then -1 & g == g is the group of the edge (-1: a trivial block).
    own = list(map(group_of.__getitem__, face))
    across = list(map(own.__getitem__, twin))
    block_of = list(map(and_, own, across))

    # Collect each block's edges from the smaller dart of each edge, which
    # runs from the smaller end (darts are numbered in row order); an edge
    # of no group is the next trivial block, numbered after the groups.
    smaller = list(compress(count(), map(lt, count(), twin)))
    group_edges: list[list[Edge]] = [[] for _ in groups]
    trivial: list[Edge] = []
    ends = zip(map(tail.__getitem__, smaller), map(head.__getitem__, smaller))
    for d, edge in zip(smaller, ends):
        b = block_of[d]
        if b < 0:
            block_of[d] = block_of[twin[d]] = len(groups) + len(trivial)
            trivial.append(edge)
        else:
            group_edges[b].append(edge)
    n = pg.n
    keys = [u * n + v for u, v in chain(map(min, group_edges), trivial)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    # a ^ b > 0 exactly when a and b are two different groups.
    if max(map(xor, own, across), default=0) > 0:
        d = next(d for d, x in enumerate(map(xor, own, across)) if x > 0)
        a, b = sorted((order.index(own[d]), order.index(across[d])))
        edge = tuple(sorted((tail[d], head[d])))
        raise DecompositionError(f"edge {edge} claimed by blocks {a} and {b}")

    # One pass over the walks of the faces no block contains (every dart
    # of an interior face lies on its own block): each dart lands on the
    # block of its edge, and the face is outer to each block it steps on.
    # Such a face cannot be a triangle: the flood fill would have absorbed
    # it (or made a trivial block non-trivial).
    outer: list[list[tuple[int, int]]] = [[] for _ in keys]
    for fid in compress(count(), map((-1).__eq__, group_of)):
        darts = faces[fid]
        steps: dict[int, int] = {}
        for b in map(block_of.__getitem__, darts):
            steps[b] = steps.get(b, 0) + 1
        if len(darts) == 3:
            block_id = order.index(block_of[darts[0]])
            raise DecompositionError(
                f"3-face {fid} is adjacent to block {block_id} "
                "without being interior to it"
            )
        for b, steps_on_b in steps.items():
            outer[b].append((fid, steps_on_b))

    edge_to_block: dict[Edge, int] = {}
    blocks: list[TriangularBlock] = []
    for block_id, b in enumerate(order):
        if b >= len(groups):
            edge = trivial[b - len(groups)]
            edges = frozenset((edge,))
            edge_to_block[edge] = block_id
            vertices = frozenset(edge)
            interior: tuple[int, ...] = ()
            label = "B2"
        else:
            edges = frozenset(group_edges[b])
            edge_to_block.update(dict.fromkeys(edges, block_id))
            degrees = _block_degrees(edges)
            vertices = frozenset(degrees)
            interior = tuple(sorted(groups[b]))
            ranked = tuple(sorted(degrees.values(), reverse=True))
            label = _LABELS.get((len(vertices), len(edges), ranked), "Other")
        blocks.append(
            TriangularBlock(
                block_id, edges, vertices, interior, tuple(outer[b]), label
            )
        )
    if len(edge_to_block) != pg.m:
        raise DecompositionError(
            f"blocks cover {len(edge_to_block)} of {pg.m} edges"
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
