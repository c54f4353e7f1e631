"""Extremal constructions: ring gadgets, nested gluing, block substitution.

Two 4-regular planar gadgets (every edge on exactly one triangle and one
pentagon, no 4-cycles) are drawn on concentric rings.  Copies scaled by
powers of 36 nest inside one another, glued along matching pentagonal
rings; gluing k+1 copies of the first gadget alternating with k copies of
the second yields a skeleton with 70k + 30 vertices and 150k + 60 edges.
Planting two extra vertices inside every triangle face turns each triangle
into a 9-edge block on 5 vertices whose contribution is exactly zero, so
the final graph meets m = (45/17)(n - 2) with equality: 170k + 70 vertices
and 450k + 180 edges, free of the long-chord theta pattern.

All layouts are explicit coordinates; the combinatorial embedding is
recovered by angular sorting, and every structural claim above is
re-validated at build time (`GluingMismatch` on any failure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blocks import decompose
from .contribution import Certificate, THETA6_1_SPEC, certify_decomposition
from .patterns import THETA6_1, contains_subgraph, cycle_graph, is_free
from .plane_graph import Edge, PlaneGraph, from_coordinates, normalize_edge

__all__ = [
    "Gadget",
    "GluingMismatch",
    "ExtremalReport",
    "SkeletonGraph",
    "build_skeleton",
    "gadget_a",
    "gadget_b",
    "substitute_b5a",
    "verify_extremal",
]


class GluingMismatch(RuntimeError):
    """A construction came out structurally wrong (bad transcription of a
    ring layout, broken gluing, or a failed invariant re-check)."""


def _point(radius: float, angle_deg: float) -> tuple[float, float]:
    theta = math.radians(angle_deg)
    return (radius * math.sin(theta), radius * math.cos(theta))


# Ring tables: name -> (vertex count, radius, angle offset, angle step).
# Vertex j of a ring sits at angle offset + step*j (degrees, measured so
# that increasing angles run clockwise from the positive y axis; the
# actual orientation is irrelevant, only consistency is).

_RINGS_A: dict[str, tuple[int, float, float, float]] = {
    "I": (5, 0.5, 0.0, 72.0),
    "M": (5, 1.0, 180.0, 72.0),
    "R": (10, 1.5, 90.0, 36.0),
    "S": (5, 2.0, 0.0, 72.0),
    "O": (5, 3.0, 180.0, 72.0),
}

_RINGS_B: dict[str, tuple[int, float, float, float]] = {
    "P": (5, 0.5, 180.0, 72.0),
    "Q": (10, 0.8, 90.0, 36.0),
    "T": (5, 1.2, 0.0, 72.0),
    "U": (10, 1.6, 90.0, 36.0),
    "W": (15, 2.2, 180.0, 24.0),
    "X": (5, 3.0, 0.0, 72.0),
}

RingVertex = tuple[str, int]


def _gadget_a_edges() -> list[tuple[RingVertex, RingVertex]]:
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


def _gadget_b_edges() -> list[tuple[RingVertex, RingVertex]]:
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


@dataclass(frozen=True)
class Gadget:
    """One ring gadget with its two junction pentagons.

    ``red_pentagon`` / ``blue_pentagon`` are vertex tuples of pentagonal
    faces; gluing always identifies pentagons of the same colour.
    """

    plane_graph: PlaneGraph
    red_pentagon: tuple[int, ...]
    blue_pentagon: tuple[int, ...]

    def __post_init__(self) -> None:
        junction: set[Edge] = set()
        for pent in (self.red_pentagon, self.blue_pentagon):
            ring = _pentagon_ring(pent)
            if ring is None or not any(
                face.edge_set == ring for face in self.plane_graph.faces
            ):
                raise GluingMismatch(
                    f"{pent} is not a pentagonal face of the gadget"
                )
            junction.update(ring)
        _check_gadget_invariants(self.plane_graph, frozenset(junction))


def _pentagon_ring(pent: tuple[int, ...]) -> frozenset[Edge] | None:
    if len(pent) != 5:
        return None
    return frozenset(
        normalize_edge(pent[i], pent[(i + 1) % 5]) for i in range(5)
    )


def _check_gadget_invariants(
    pg: PlaneGraph, junction_edges: frozenset[Edge]
) -> None:
    """4-regular, no 4-cycles, and every edge off the marked pentagons on
    one 3-face and one 5-face.

    The marked pentagon edges themselves may instead sit between two
    pentagons: their triangle arrives only when another gadget is glued
    onto that ring and the pentagon stops being a face.
    """
    if any(pg.graph.degree(v) != 4 for v in range(pg.n)):
        raise GluingMismatch("gadget is not 4-regular")
    _check_edge_face_types(pg, exempt=junction_edges)
    if contains_subgraph(pg, cycle_graph(4)) is not None:
        raise GluingMismatch("gadget contains a 4-cycle")


def _check_edge_face_types(
    pg: PlaneGraph, exempt: frozenset[Edge] = frozenset()
) -> None:
    for face in pg.faces:
        if face.length not in (3, 5):
            raise GluingMismatch(
                f"face {face.index} has length {face.length}, expected 3 or 5"
            )
    for edge in sorted(pg.graph.edges):
        a, b = pg.faces_of_edge(edge)
        lengths = sorted((pg.faces[a].length, pg.faces[b].length))
        if lengths == [3, 5]:
            continue
        if lengths == [5, 5] and edge in exempt:
            continue
        raise GluingMismatch(
            f"edge {edge} lies on faces of lengths {lengths}, "
            "expected one triangle and one pentagon"
        )


def _build_gadget(
    rings: dict[str, tuple[int, float, float, float]],
    edges: list[tuple[RingVertex, RingVertex]],
) -> tuple[PlaneGraph, dict[RingVertex, int]]:
    ids: dict[RingVertex, int] = {}
    coords: list[tuple[float, float]] = []
    for name, (count, radius, offset, step) in rings.items():
        for j in range(count):
            ids[(name, j)] = len(coords)
            coords.append(_point(radius, offset + step * j))
    id_edges = sorted(normalize_edge(ids[u], ids[v]) for u, v in edges)
    return from_coordinates(coords, id_edges), ids


def gadget_a() -> Gadget:
    """The 30-vertex gadget: 20 triangles and 12 pentagons.

    Blue pentagon: the innermost ring (an inner face); red: the outermost
    (boundary of the outer face).
    """
    pg, ids = _build_gadget(_RINGS_A, _gadget_a_edges())
    if (pg.n, pg.m, pg.face_count) != (30, 60, 32):
        raise GluingMismatch(
            f"gadget A counts off: {(pg.n, pg.m, pg.face_count)}"
        )
    blue = tuple(ids[("I", j)] for j in range(5))
    red = tuple(ids[("O", j)] for j in range(5))
    return Gadget(plane_graph=pg, red_pentagon=red, blue_pentagon=blue)


def gadget_b() -> Gadget:
    """The 50-vertex gadget: 30 triangles and 22 pentagons.

    Red pentagon: the innermost ring; blue: the outermost.
    """
    pg, ids = _build_gadget(_RINGS_B, _gadget_b_edges())
    if (pg.n, pg.m, pg.face_count) != (50, 100, 52):
        raise GluingMismatch(
            f"gadget B counts off: {(pg.n, pg.m, pg.face_count)}"
        )
    red = tuple(ids[("P", j)] for j in range(5))
    blue = tuple(ids[("X", j)] for j in range(5))
    return Gadget(plane_graph=pg, red_pentagon=red, blue_pentagon=blue)


@dataclass(frozen=True)
class SkeletonGraph:
    """A glued chain of gadget copies plus its drawing coordinates."""

    plane_graph: PlaneGraph
    k: int
    coordinates: tuple[tuple[float, float], ...]

    def triangle_face_ids(self) -> tuple[int, ...]:
        return self.plane_graph.triangle_faces()


CopyKey = tuple[str, int]  # ("a", i) or ("b", i)
VertexKey = tuple[str, int, str, int]  # (kind, i, ring, index)


def _canonical_key(kind: str, i: int, ring: str, idx: int) -> VertexKey:
    # Junction identifications: the inner pentagon of each copy is the
    # outer pentagon of the copy it is glued onto.
    if kind == "b" and ring == "P":
        return ("a", i - 1, "O", idx)
    if kind == "a" and i >= 1 and ring == "I":
        return ("b", i, "X", idx)
    return (kind, i, ring, idx)


def _copy_scale(kind: str, i: int) -> float:
    if kind == "a":
        return 36.0**i
    return 6.0 * 36.0 ** (i - 1)


def _ring_table(kind: str) -> dict[str, tuple[int, float, float, float]]:
    return _RINGS_A if kind == "a" else _RINGS_B


def _vertex_coord(key: VertexKey) -> tuple[float, float]:
    kind, i, ring, idx = key
    _, radius, offset, step = _ring_table(kind)[ring]
    return _point(_copy_scale(kind, i) * radius, offset + step * idx)


def build_skeleton(k: int) -> SkeletonGraph:
    """Glue k+1 nested copies of gadget A alternating with k copies of
    gadget B; validates every structural invariant before returning."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    copies: list[CopyKey] = [("a", 0)]
    for i in range(1, k + 1):
        copies.append(("b", i))
        copies.append(("a", i))

    ids: dict[VertexKey, int] = {}
    coords: list[tuple[float, float]] = []
    edge_set: set[Edge] = set()
    for kind, i in copies:
        for name, (count, _, _, _) in _ring_table(kind).items():
            for j in range(count):
                key = _canonical_key(kind, i, name, j)
                if key not in ids:
                    ids[key] = len(coords)
                    coords.append(_vertex_coord(key))
        pairs = _gadget_a_edges() if kind == "a" else _gadget_b_edges()
        for (r1, j1), (r2, j2) in pairs:
            u = ids[_canonical_key(kind, i, r1, j1)]
            v = ids[_canonical_key(kind, i, r2, j2)]
            edge_set.add(normalize_edge(u, v))

    pg = from_coordinates(coords, sorted(edge_set))
    _validate_skeleton(pg, k)
    return SkeletonGraph(plane_graph=pg, k=k, coordinates=tuple(coords))


def _validate_skeleton(pg: PlaneGraph, k: int) -> None:
    expected = (70 * k + 30, 150 * k + 60)
    if (pg.n, pg.m) != expected:
        raise GluingMismatch(
            f"skeleton k={k} counts {(pg.n, pg.m)}, expected {expected}"
        )
    triangles = sum(1 for f in pg.faces if f.length == 3)
    pentagons = sum(1 for f in pg.faces if f.length == 5)
    if (triangles, pentagons) != (50 * k + 20, 30 * k + 12):
        raise GluingMismatch(
            f"skeleton k={k} has {triangles} triangles and {pentagons} "
            f"pentagons, expected {(50 * k + 20, 30 * k + 12)}"
        )
    _check_edge_face_types(pg)
    if contains_subgraph(pg, cycle_graph(4)) is not None:
        raise GluingMismatch(f"skeleton k={k} contains a 4-cycle")


def _centroid(points: list[tuple[float, float]]) -> tuple[float, float]:
    xs = sum(p[0] for p in points) / len(points)
    ys = sum(p[1] for p in points) / len(points)
    return (xs, ys)


def substitute_b5a(skeleton: SkeletonGraph) -> PlaneGraph:
    """Plant two vertices inside every triangle face of the skeleton.

    For a triangle with corners a < b < c: u sits at the centroid joined
    to a, b, c; v sits at the centroid of b, c, u joined to b, c, u.  Each
    triangle becomes a 5-vertex, 9-edge block whose contribution to the
    45/17 target is exactly zero.
    """
    pg = skeleton.plane_graph
    coords = list(skeleton.coordinates)
    edges: set[Edge] = set(pg.graph.edges)
    for fid in pg.triangle_faces():
        corners = sorted(set(pg.faces[fid].vertices()))
        a, b, c = corners
        u = len(coords)
        coords.append(_centroid([coords[a], coords[b], coords[c]]))
        v = len(coords)
        coords.append(_centroid([coords[b], coords[c], coords[u]]))
        edges.update(
            normalize_edge(*pair)
            for pair in ((u, a), (u, b), (u, c), (v, b), (v, c), (v, u))
        )
    result = from_coordinates(coords, sorted(edges))
    k = skeleton.k
    expected = (170 * k + 70, 450 * k + 180)
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
    pattern_free: bool | None
    blocks_all_b5a: bool
    all_g_zero: bool
    bound_equality: bool
    certificate: Certificate

    @property
    def failures(self) -> tuple[str, ...]:
        """Names of the failed stages (empty when everything passed)."""
        out = []
        if not self.counts_ok:
            out.append("counts")
        if self.pattern_free is False:
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


def verify_extremal(k: int, check_freeness: bool = True) -> ExtremalReport:
    """Build the k-th member and re-check everything that makes it
    extremal: the vertex/edge counts, freeness of the long-chord theta
    (optional, the expensive part), the block structure (one 5-vertex
    9-edge block per skeleton triangle), all cluster contributions exactly
    zero, and equality 17*m = 45*(n - 2)."""
    graph = substitute_b5a(build_skeleton(k))
    counts_ok = (graph.n, graph.m) == (170 * k + 70, 450 * k + 180)
    pattern_free = is_free(graph, THETA6_1) if check_freeness else None
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
    )
