"""Connected simple plane graphs represented by rotation systems.

A plane graph is given by a counterclockwise cyclic order of neighbors at
every vertex.  Faces are derived by dart tracing: the successor of the dart
(u, v) is (v, w) where w immediately follows u in the rotation at v.  A
rotation system is accepted only if the traced face count satisfies Euler's
formula n - m + f = 2, i.e. it describes a genus-zero (planar) embedding of
a connected graph.

Face *length* counts distinct edges on the face walk, not darts: a bridge
traversed twice from both sides contributes one edge.  This is the
convention under which the face-contribution accounting in
:mod:`triblock.contribution` sums exactly to the number of faces.  A face
is a *triangle* when its walk has exactly three darts; in a simple graph
such a walk always has three distinct edges, but the converse fails (a star
K_{1,3} has a single face with six darts and three distinct edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "AmbiguousLayout",
    "Dart",
    "DisconnectedGraph",
    "Face",
    "FormatError",
    "Graph",
    "InconsistentRotation",
    "NonPlanarEmbedding",
    "PlaneGraph",
    "PlaneGraphError",
    "build_plane_graph",
    "export_dot",
    "format_planegraph",
    "from_coordinates",
    "normalize_edge",
    "parse_planegraph",
]

Edge = tuple[int, int]

FORMAT_MAGIC = "planegraph 1"


class PlaneGraphError(ValueError):
    """Base class for all validation errors raised by this module."""


class InconsistentRotation(PlaneGraphError):
    """Rotation rows disagree (u lists v but v does not list u), or a row
    contains a loop, a duplicate, or an out-of-range vertex."""


class DisconnectedGraph(PlaneGraphError):
    """The underlying graph is not connected."""


class NonPlanarEmbedding(PlaneGraphError):
    """Face tracing does not satisfy n - m + f = 2: the rotation system
    describes an embedding on a surface of higher genus."""


class FormatError(PlaneGraphError):
    """Malformed native-format text."""


class AmbiguousLayout(PlaneGraphError):
    """Two neighbors lie in exactly the same direction from a vertex, so a
    straight-line layout does not determine a rotation order."""


def normalize_edge(u: int, v: int) -> Edge:
    """The unordered pair {u, v} as a sorted tuple."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite, undirected, simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]
    _adjacency: tuple[frozenset[int], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing and deduplicating edge pairs."""
        return cls(n, frozenset(normalize_edge(u, v) for u, v in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets, indexed by vertex; computed once and cached."""
        cached = self._adjacency
        if cached is None:
            sets: list[set[int]] = [set() for _ in range(self.n)]
            for u, v in self.edges:
                sets[u].add(v)
                sets[v].add(u)
            cached = tuple(frozenset(s) for s in sets)
            object.__setattr__(self, "_adjacency", cached)
        return cached

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency()[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees in non-increasing order."""
        return tuple(sorted((len(s) for s in self.adjacency()), reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def components(self) -> list[tuple[int, ...]]:
        """Vertex sets of the connected components, each sorted, in order
        of their smallest vertex."""
        adj = self.adjacency()
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(self.n):
            if start in seen:
                continue
            seen.add(start)
            comp = [start]
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            out.append(tuple(sorted(comp)))
        return out

    def is_connected(self) -> bool:
        return self.n > 0 and len(self.components()) == 1


class Dart(NamedTuple):
    """A directed traversal of an edge; each edge yields two darts."""

    tail: int
    head: int

    def reversed(self) -> "Dart":
        return Dart(self.head, self.tail)

    @property
    def edge(self) -> Edge:
        return normalize_edge(self.tail, self.head)


@dataclass(frozen=True)
class Face:
    """One face of the embedding.

    ``walk`` is the cyclic dart sequence produced by tracing; ``edge_set``
    the distinct underlying edges; ``length`` is ``len(edge_set)``.
    """

    index: int
    walk: tuple[Dart, ...]
    edge_set: frozenset[Edge]

    @property
    def length(self) -> int:
        return len(self.edge_set)

    @property
    def dart_count(self) -> int:
        return len(self.walk)

    @property
    def is_triangle(self) -> bool:
        """True for a genuine 3-face: a closed walk of exactly three darts."""
        return len(self.walk) == 3

    def vertices(self) -> tuple[int, ...]:
        return tuple(d.tail for d in self.walk)


class PlaneGraph:
    """A validated plane graph: connected, simple, genus zero.

    Construction validates everything; instances are immutable afterwards
    and safe to share between worker processes.
    """

    __slots__ = ("graph", "rotation", "faces", "_dart_face", "_neighbor_pos")

    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[Face, ...]

    def __init__(self, n: int, rotations: Sequence[Sequence[int]]):
        if n < 2:
            raise PlaneGraphError(
                f"need at least two vertices (got n={n}); an isolated vertex "
                "has no darts and no traceable face"
            )
        if len(rotations) != n:
            raise InconsistentRotation(
                f"expected {n} rotation rows, got {len(rotations)}"
            )
        rotation = tuple(tuple(int(w) for w in row) for row in rotations)
        for v, row in enumerate(rotation):
            seen: set[int] = set()
            for w in row:
                if w == v:
                    raise InconsistentRotation(f"loop at vertex {v}")
                if not 0 <= w < n:
                    raise InconsistentRotation(
                        f"vertex {v} lists out-of-range neighbor {w}"
                    )
                if w in seen:
                    raise InconsistentRotation(
                        f"vertex {v} lists neighbor {w} twice"
                    )
                seen.add(w)
        for v, row in enumerate(rotation):
            for w in row:
                if v not in rotation[w]:
                    raise InconsistentRotation(
                        f"vertex {v} lists {w} but {w} does not list {v}"
                    )

        edges = frozenset(
            normalize_edge(v, w) for v, row in enumerate(rotation) for w in row
        )
        graph = Graph(n, edges)
        if not graph.is_connected():
            raise DisconnectedGraph(f"graph on {n} vertices is not connected")

        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "rotation", rotation)
        neighbor_pos: dict[Dart, int] = {}
        for v, row in enumerate(rotation):
            for i, w in enumerate(row):
                neighbor_pos[Dart(v, w)] = i
        object.__setattr__(self, "_neighbor_pos", neighbor_pos)

        faces = tuple(self._trace_faces())
        object.__setattr__(self, "faces", faces)
        dart_face: dict[Dart, int] = {}
        for face in faces:
            for dart in face.walk:
                dart_face[dart] = face.index
        object.__setattr__(self, "_dart_face", dart_face)

        f = len(faces)
        if n - graph.m + f != 2:
            raise NonPlanarEmbedding(
                f"Euler check failed: n - m + f = {n} - {graph.m} + {f} = "
                f"{n - graph.m + f}, expected 2"
            )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PlaneGraph instances are immutable")

    def successor(self, dart: Dart) -> Dart:
        """The next dart of the face walk containing ``dart``."""
        row = self.rotation[dart.head]
        i = self._neighbor_pos[Dart(dart.head, dart.tail)]
        return Dart(dart.head, row[(i + 1) % len(row)])

    def _trace_faces(self) -> Iterator[Face]:
        visited: set[Dart] = set()
        index = 0
        for v, row in enumerate(self.rotation):
            for w in row:
                start = Dart(v, w)
                if start in visited:
                    continue
                walk = [start]
                visited.add(start)
                dart = self.successor(start)
                while dart != start:
                    walk.append(dart)
                    visited.add(dart)
                    dart = self.successor(dart)
                yield Face(
                    index=index,
                    walk=tuple(walk),
                    edge_set=frozenset(d.edge for d in walk),
                )
                index += 1

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def neighbors_ccw(self, v: int) -> tuple[int, ...]:
        return self.rotation[v]

    def face_of_dart(self, dart: Dart) -> int:
        return self._dart_face[dart]

    def faces_of_edge(self, edge: Edge) -> tuple[int, int]:
        """Face indices on the two sides of an edge.

        The two entries coincide exactly when the edge is a bridge (both
        darts lie on the same face walk).
        """
        u, v = edge
        a = self._dart_face[Dart(u, v)]
        b = self._dart_face[Dart(v, u)]
        return (a, b) if a <= b else (b, a)

    def triangle_faces(self) -> tuple[int, ...]:
        """Indices of all 3-faces, in face order."""
        return tuple(f.index for f in self.faces if f.is_triangle)

    def __repr__(self) -> str:
        return (
            f"PlaneGraph(n={self.n}, m={self.m}, faces={self.face_count})"
        )


def build_plane_graph(n: int, rotations: Sequence[Sequence[int]]) -> PlaneGraph:
    """Validate a rotation system and derive its faces.

    Raises :class:`InconsistentRotation`, :class:`DisconnectedGraph` or
    :class:`NonPlanarEmbedding` on bad input.
    """
    return PlaneGraph(n, rotations)


def from_coordinates(
    coords: Sequence[tuple[float, float]] | Mapping[int, tuple[float, float]],
    edges: Iterable[tuple[int, int]],
) -> PlaneGraph:
    """Plane graph from a straight-line drawing.

    Every vertex's neighbors are ordered counterclockwise by direction
    angle, which is the correct rotation system whenever the drawing is
    planar (non-crossing); the Euler check catches crossing drawings.
    """
    if isinstance(coords, Mapping):
        n = len(coords)
        if set(coords.keys()) != set(range(n)):
            raise ValueError("coordinate keys must be exactly 0..n-1")
        points = [coords[v] for v in range(n)]
    else:
        points = list(coords)
        n = len(points)

    edge_list = [normalize_edge(u, v) for u, v in edges]
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edge_list:
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)

    rotations: list[list[int]] = []
    for v in range(n):
        x0, y0 = points[v]
        with_angles = []
        for w in neighbor_sets[v]:
            x1, y1 = points[w]
            with_angles.append((math.atan2(y1 - y0, x1 - x0), w))
        with_angles.sort()
        for (a1, w1), (a2, w2) in zip(with_angles, with_angles[1:]):
            if a1 == a2:
                raise AmbiguousLayout(
                    f"neighbors {w1} and {w2} of vertex {v} lie in the same "
                    "direction"
                )
        rotations.append([w for _, w in with_angles])
    return PlaneGraph(n, rotations)


def parse_planegraph(text: str) -> PlaneGraph:
    """Parse the native text format.

    Format::

        planegraph 1
        <n> <m>
        <v>: <w1> <w2> ... <wd>      (one line per vertex, CCW order)

    ``#`` starts a comment; blank lines are ignored.  Every edge must be
    listed from both endpoints and the declared edge count must match.
    """
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))

    if not lines:
        raise FormatError("empty input")
    lineno, header = lines[0]
    if header != FORMAT_MAGIC:
        raise FormatError(f"line {lineno}: expected '{FORMAT_MAGIC}' header")
    if len(lines) < 2:
        raise FormatError("missing '<n> <m>' line")
    lineno, counts = lines[1]
    parts = counts.split()
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: expected '<n> <m>'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None

    body = lines[2:]
    if len(body) != n:
        raise FormatError(
            f"expected {n} vertex lines, found {len(body)}"
        )
    rows: dict[int, list[int]] = {}
    for lineno, line in body:
        head, sep, tail = line.partition(":")
        if not sep:
            raise FormatError(f"line {lineno}: missing ':' separator")
        try:
            v = int(head.strip())
            neighbors = [int(tok) for tok in tail.split()]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if v in rows:
            raise FormatError(f"line {lineno}: duplicate line for vertex {v}")
        if not 0 <= v < n:
            raise FormatError(f"line {lineno}: vertex {v} out of range")
        rows[v] = neighbors

    if set(rows.keys()) != set(range(n)):
        missing = sorted(set(range(n)) - set(rows.keys()))
        raise FormatError(f"missing vertex lines for {missing}")
    total_degree = sum(len(row) for row in rows.values())
    if total_degree != 2 * m:
        raise FormatError(
            f"declared m={m} but neighbor lists sum to {total_degree} "
            f"half-edges (expected {2 * m})"
        )
    return PlaneGraph(n, [rows[v] for v in range(n)])


def format_planegraph(pg: PlaneGraph, comment: str | None = None) -> str:
    """Serialize to the native text format; inverse of parse_planegraph."""
    out: list[str] = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(FORMAT_MAGIC)
    out.append(f"{pg.n} {pg.m}")
    for v in range(pg.n):
        row = " ".join(str(w) for w in pg.rotation[v])
        out.append(f"{v}: {row}")
    return "\n".join(out) + "\n"


def export_dot(pg: PlaneGraph) -> str:
    """DOT text with the rotation order preserved as a node attribute."""
    out = ["graph planegraph {"]
    for v in range(pg.n):
        row = " ".join(str(w) for w in pg.rotation[v])
        out.append(f'  {v} [rotation="{row}"];')
    for u, v in sorted(pg.graph.edges):
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
