"""Extremal constructions: ring gadgets, nested gluing, block substitution.

The gadgets A and B are ring tables: rings of vertices at whole-degree
angles, innermost first, and the edges between them.  `_build_chain` lays
copies on consecutive ring levels, each copy's innermost ring taking the
places of the previous copy's outermost ring: sharing places is the gluing.
A lone gadget, `_build_chain("a")` or `_build_chain("b")`, is 4-regular and
its innermost and outermost rings bound pentagonal faces.  k+1 copies of A
alternating with k copies of B make a skeleton with 70k + 30 vertices,
150k + 60 edges, no 4-cycles, and every edge on one triangle and one
pentagon.  Planting two vertices in each triangle face makes it a 9-edge
block on 5 vertices whose contribution is exactly zero, so the final graph
meets m = (45/17)(n - 2) with equality: 170k + 70 vertices and 450k + 180
edges, free of the long-chord theta pattern.

Everything is integer-valued: a rotation row follows from the places
alone, and planting splices rows.  Every structural claim above is
re-validated at build time (`GluingMismatch` on any failure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .blocks import decompose
from .contribution import Certificate, THETA6_1_SPEC, certify_decomposition
from .patterns import THETA6_1, is_free
from .plane_graph import PlaneGraph

__all__ = [
    "GluingMismatch",
    "ExtremalReport",
    "build_skeleton",
    "substitute_b5a",
    "verify_extremal",
]


class GluingMismatch(RuntimeError):
    """A construction came out structurally wrong (bad transcription of a
    ring layout, broken gluing, or a failed invariant re-check)."""


# Ring tables: name -> (vertex count, angle offset, angle step).  Vertex j
# sits at angle offset + step*j in whole degrees, increasing clockwise;
# only the cyclic order these angles induce matters, never a drawing.

_RINGS_A: dict[str, tuple[int, int, int]] = {
    "I": (5, 0, 72),
    "M": (5, 180, 72),
    "R": (10, 90, 36),
    "S": (5, 0, 72),
    "O": (5, 180, 72),
}

_RINGS_B: dict[str, tuple[int, int, int]] = {
    "P": (5, 180, 72),
    "Q": (10, 90, 36),
    "T": (5, 0, 72),
    "U": (10, 90, 36),
    "W": (15, 180, 24),
    "X": (5, 0, 72),
}

RingVertex = tuple[str, int]


def _edges_a() -> list[tuple[RingVertex, RingVertex]]:
    edges: list[tuple[RingVertex, RingVertex]] = []
    for a in range(5):
        edges.append((("I", a), ("I", (a + 1) % 5)))
        edges.append((("I", a), ("M", (a + 2) % 5)))
        edges.append((("I", a), ("M", (a + 3) % 5)))
        edges.append((("M", a), ("R", (2 * a + 2) % 10)))
        edges.append((("M", a), ("R", (2 * a + 3) % 10)))
        edges.append((("S", a), ("R", (2 * a - 2) % 10)))
        edges.append((("S", a), ("R", (2 * a - 3) % 10)))
        edges.append((("O", a), ("O", (a + 1) % 5)))
        edges.append((("O", a), ("S", (a + 2) % 5)))
        edges.append((("O", a), ("S", (a + 3) % 5)))
    for j in range(10):
        edges.append((("R", j), ("R", (j + 1) % 10)))
    return edges


def _edges_b() -> list[tuple[RingVertex, RingVertex]]:
    edges: list[tuple[RingVertex, RingVertex]] = []
    for a in range(5):
        edges.append((("P", a), ("P", (a + 1) % 5)))
        edges.append((("P", a), ("Q", (2 * a + 2) % 10)))
        edges.append((("P", a), ("Q", (2 * a + 3) % 10)))
        edges.append((("Q", 2 * a), ("Q", 2 * a + 1)))
        edges.append((("T", a), ("Q", (2 * a - 2) % 10)))
        edges.append((("T", a), ("Q", (2 * a - 3) % 10)))
        edges.append((("T", a), ("U", (2 * a - 2) % 10)))
        edges.append((("T", a), ("U", (2 * a - 3) % 10)))
        edges.append((("W", (3 * a + 10) % 15), ("U", (2 * a - 1) % 10)))
        edges.append((("W", (3 * a - 4) % 15), ("U", (2 * a) % 10)))
        edges.append((("W", (3 * a - 3) % 15), ("U", (2 * a) % 10)))
        edges.append((("W", (3 * a - 3) % 15), ("U", (2 * a + 1) % 10)))
        edges.append((("W", (3 * a + 7) % 15), ("X", a)))
        edges.append((("W", (3 * a + 8) % 15), ("X", a)))
        edges.append((("X", a), ("X", (a + 1) % 5)))
    for j in range(10):
        edges.append((("Q", j), ("U", j)))
    for j in range(15):
        edges.append((("W", j), ("W", (j + 1) % 15)))
    return edges


Place = tuple[int, int]  # (global ring level, angle in [0, 360))


def _build_chain(kinds: str) -> tuple[PlaneGraph, list[Place]]:
    """Glue copies of the gadgets named in ``kinds`` ("a" or "b"), from
    the innermost outwards; returns the graph and the place of each vertex.

    Each copy's innermost ring takes the level, and so the places, of the
    previous copy's outermost ring: sharing places is the gluing.
    """
    ids: dict[Place, int] = {}
    neighbors: list[set[int]] = []
    level = 0
    for kind in kinds:
        if kind == "a":
            rings, pairs = _RINGS_A, _edges_a()
        else:
            rings, pairs = _RINGS_B, _edges_b()
        place: dict[RingVertex, Place] = {}
        for level, (name, (count, offset, step)) in enumerate(
            rings.items(), start=level
        ):
            for j in range(count):
                place[name, j] = (level, (offset + step * j) % 360)
                if place[name, j] not in ids:
                    ids[place[name, j]] = len(ids)
                    neighbors.append(set())
        for end1, end2 in pairs:
            u, v = ids[place[end1]], ids[place[end2]]
            neighbors[u].add(v)
            neighbors[v].add(u)
    places = list(ids)
    rows = [
        sorted(ws, key=lambda w: _ccw_key(places[v], places[w]))
        for v, ws in enumerate(neighbors)
    ]
    return PlaneGraph(len(rows), rows), places


def _ccw_key(v: Place, w: Place) -> tuple[int, int]:
    """Sort key that puts v's neighbors in counterclockwise order.

    With d the angle from v to w in [-180, 180), a row lists: neighbors on
    outer rings by decreasing d, the same-ring neighbor with d < 0,
    neighbors on inner rings by increasing d, the same-ring one with d > 0.
    """
    d = (w[1] - v[1] + 180) % 360 - 180
    if w[0] > v[0]:
        return (0, -d)
    if w[0] < v[0]:
        return (2, d)
    return (1 if d < 0 else 3, 0)


def build_skeleton(k: int) -> PlaneGraph:
    """Glue k+1 nested copies of gadget A alternating with k copies of
    gadget B; validates every structural invariant before returning."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    pg, _ = _build_chain("a" + "ba" * k)
    _validate_skeleton(pg, k)
    return pg


def _validate_skeleton(pg: PlaneGraph, k: int) -> None:
    expected = (70 * k + 30, 150 * k + 60)
    if (pg.n, pg.m) != expected:
        raise GluingMismatch(
            f"skeleton k={k} counts {(pg.n, pg.m)}, expected {expected}"
        )
    triangles = sum(1 for walk in pg.faces if len(walk) == 3)
    pentagons = sum(1 for walk in pg.faces if len(walk) == 5)
    if (triangles, pentagons) != (50 * k + 20, 30 * k + 12):
        raise GluingMismatch(
            f"skeleton k={k} has {triangles} triangles and {pentagons} "
            f"pentagons, expected {(50 * k + 20, 30 * k + 12)}"
        )
    _check_edge_face_types(pg)
    if _has_four_cycle(pg.rotation):
        raise GluingMismatch(f"skeleton k={k} contains a 4-cycle")


def _has_four_cycle(rows: Sequence[Iterable[int]]) -> bool:
    """Whether the graph with these neighbor rows has a 4-cycle.

    A 4-cycle a-v-b-w is two vertices a < b with two common neighbors v, w,
    so it exists exactly when the paths of length two from some vertex a
    reach some larger vertex b twice.  Each vertex needs only a set of the
    vertices reached from it.
    """
    for a, row in enumerate(rows):
        reached: set[int] = set()
        for v in row:
            for b in rows[v]:
                if b > a:
                    if b in reached:
                        return True
                    reached.add(b)
    return False


def _check_edge_face_types(pg: PlaneGraph) -> None:
    """Every face a triangle or a pentagon, and every edge on one of each."""
    size = [len(walk) for walk in pg.faces]
    for fid, length in enumerate(size):
        if length not in (3, 5):
            raise GluingMismatch(
                f"face {fid} has {length} darts, expected 3 or 5"
            )
    face = pg.face
    # Darts are numbered in row order, so the smaller dart of each pair
    # runs from the smaller end and names the edge as a sorted pair.
    for d, t in enumerate(pg.twin):
        if d < t and size[face[d]] == size[face[t]]:
            raise GluingMismatch(
                f"edge {(pg.tail[d], pg.head[d])} lies on faces of lengths "
                f"{[size[face[d]]] * 2}, expected one triangle and one "
                "pentagon"
            )


def _plant(rows: list[list[int]], walk: tuple[int, int, int]) -> int:
    """Add a vertex p inside the triangular face with walk x -> y -> z.

    p enters each corner's row right after the walk's predecessor at that
    corner and gets the row [y, x, z], which splits the face into the
    triangles x -> y -> p, y -> z -> p and z -> x -> p.  Returns p.
    """
    p = len(rows)
    x, y, z = walk
    for before, corner, after in ((z, x, y), (x, y, z), (y, z, x)):
        row = rows[corner]
        i = row.index(before) + 1 if before in row else 0
        if i == 0 or row[i % len(row)] != after:
            raise GluingMismatch(f"no wedge {before}, {after} at {corner}")
        row.insert(i, p)
    rows.append([y, x, z])
    return p


def substitute_b5a(pg: PlaneGraph) -> PlaneGraph:
    """Plant two vertices inside every triangle face of a skeleton.

    u goes into the triangle and is joined to its three corners; v goes
    into the new triangle on u and the two corners other than the
    smallest.  Planting splices rotation rows (see :func:`_plant`).  Each
    triangle becomes a 5-vertex, 9-edge block whose contribution to the
    45/17 target is exactly zero.  The result has two more vertices and
    six more edges per triangle than the input; on the k-th skeleton
    (50k + 20 triangles) that is 170k + 70 vertices and 450k + 180 edges.
    """
    rows = [list(row) for row in pg.rotation]
    triangles = pg.triangle_faces()
    for fid in triangles:
        walk = pg.face_vertices(fid)
        i = walk.index(min(walk))
        a, b, c = walk[i:] + walk[:i]  # a is the smallest corner
        u = _plant(rows, (a, b, c))
        _plant(rows, (b, c, u))
    result = PlaneGraph(len(rows), rows)
    t = len(triangles)
    expected = (pg.n + 2 * t, pg.m + 6 * t)
    if (result.n, result.m) != expected:
        raise GluingMismatch(
            f"substituted graph counts {(result.n, result.m)}, "
            f"expected {expected}"
        )
    return result


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of building and re-verifying one member of the family."""

    k: int
    n: int
    m: int
    counts_ok: bool
    pattern_free: bool
    blocks_all_b5a: bool
    all_g_zero: bool
    bound_equality: bool
    certificate: Certificate
    plane_graph: PlaneGraph

    @property
    def failures(self) -> tuple[str, ...]:
        """Names of the failed stages (empty when everything passed)."""
        out = []
        if not self.counts_ok:
            out.append("counts")
        if not self.pattern_free:
            out.append("freeness")
        if not self.blocks_all_b5a:
            out.append("blocks")
        if not self.all_g_zero:
            out.append("contributions")
        if not self.bound_equality:
            out.append("equality")
        return tuple(out)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "counts_ok": self.counts_ok,
            "pattern_free": self.pattern_free,
            "blocks_all_b5a": self.blocks_all_b5a,
            "all_g_zero": self.all_g_zero,
            "bound_equality": self.bound_equality,
            "failures": list(self.failures),
            "ok": self.ok,
            "certificate": self.certificate.to_json_dict(),
        }


def verify_extremal(k: int) -> ExtremalReport:
    """Build the k-th member and re-check everything that makes it
    extremal: the vertex/edge counts, freeness of the long-chord theta,
    the block structure (one 5-vertex 9-edge block per skeleton
    triangle), all cluster contributions exactly zero, and equality
    17*m = 45*(n - 2)."""
    graph = substitute_b5a(build_skeleton(k))
    counts_ok = (graph.n, graph.m) == (170 * k + 70, 450 * k + 180)
    pattern_free = is_free(graph, THETA6_1)
    dec = decompose(graph)
    blocks_all_b5a = len(dec.blocks) == 50 * k + 20 and all(
        b.label == "B5a" for b in dec.blocks
    )
    cert = certify_decomposition(graph, dec, THETA6_1_SPEC, pattern_free)
    all_g_zero = all(c.g_c == 0 for c in cert.clusters)
    bound_equality = 17 * graph.m == 45 * (graph.n - 2)
    return ExtremalReport(
        k=k,
        n=graph.n,
        m=graph.m,
        counts_ok=counts_ok,
        pattern_free=pattern_free,
        blocks_all_b5a=blocks_all_b5a,
        all_g_zero=all_g_zero,
        bound_equality=bound_equality,
        certificate=cert,
        plane_graph=graph,
    )
