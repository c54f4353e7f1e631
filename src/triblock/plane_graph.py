"""Connected simple plane graphs represented by rotation systems.

A plane graph is given by a counterclockwise cyclic order of neighbors at
every vertex, and nothing else: a dart is the plain pair (tail, head).
Faces are derived by dart tracing: the successor of the dart (u, v) is
(v, w) where w immediately follows u in the rotation at v.  A
rotation system is accepted only if the traced face count satisfies Euler's
formula n - m + f = 2, i.e. it describes a genus-zero (planar) embedding of
a connected graph.

A face is its dart walk and nothing else.  Its *size* is the dart count:
a bridge is walked once from each side and so counts twice.  This is the
size :mod:`triblock.contribution` splits a face's unit over, and under it
the per-block face shares sum exactly to the number of faces.  A face is a
*triangle* when its walk has exactly three darts; in a simple graph such a
walk always has three distinct edges, but the converse fails (a star
K_{1,3} has a single face with six darts and three distinct edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "DisconnectedGraph",
    "Face",
    "FormatError",
    "Graph",
    "InconsistentRotation",
    "NonPlanarEmbedding",
    "PlaneGraph",
    "PlaneGraphError",
    "export_dot",
    "format_planegraph",
    "normalize_edge",
    "parse_planegraph",
]

Edge = tuple[int, int]
Dart = tuple[int, int]  # (tail, head); each edge yields two darts

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


@dataclass(frozen=True)
class Face:
    """One face of the embedding.

    ``walk`` is the cyclic dart sequence produced by tracing; everything
    else about the face is read off it.
    """

    index: int
    walk: tuple[Dart, ...]

    @property
    def edge_set(self) -> frozenset[Edge]:
        """The distinct underlying edges of the walk."""
        return frozenset(normalize_edge(a, b) for a, b in self.walk)

    @property
    def dart_count(self) -> int:
        return len(self.walk)

    @property
    def is_triangle(self) -> bool:
        """True for a genuine 3-face: a closed walk of exactly three darts."""
        return len(self.walk) == 3

    def vertices(self) -> tuple[int, ...]:
        return tuple(tail for tail, _ in self.walk)


class PlaneGraph:
    """A validated plane graph: connected, simple, genus zero.

    Construction validates everything; instances are immutable afterwards
    and safe to share between worker processes.
    """

    __slots__ = ("graph", "rotation", "faces", "_dart_face", "_position")

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
        # The one dart index, (v, w) -> position of w in v's row.  Its keys
        # run in row order, which fixes the face indices below.
        position: dict[Dart, int] = {}
        for v, row in enumerate(rotation):
            for i, w in enumerate(row):
                if w == v:
                    raise InconsistentRotation(f"loop at vertex {v}")
                if not 0 <= w < n:
                    raise InconsistentRotation(
                        f"vertex {v} lists out-of-range neighbor {w}"
                    )
                if (v, w) in position:
                    raise InconsistentRotation(
                        f"vertex {v} lists neighbor {w} twice"
                    )
                position[v, w] = i
        for v, w in position:
            if (w, v) not in position:
                raise InconsistentRotation(
                    f"vertex {v} lists {w} but {w} does not list {v}"
                )

        graph = Graph(n, frozenset(d for d in position if d[0] < d[1]))
        if not graph.is_connected():
            raise DisconnectedGraph(f"graph on {n} vertices is not connected")

        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "_position", position)

        # Trace every face from its first dart in row order; the dart -> face
        # map doubles as the visited set.
        dart_face: dict[Dart, int] = {}
        faces: list[Face] = []
        for start in position:
            if start in dart_face:
                continue
            index = len(faces)
            walk: list[Dart] = []
            dart = start
            while True:
                walk.append(dart)
                dart_face[dart] = index
                dart = self.successor(dart)
                if dart == start:
                    break
            faces.append(Face(index, tuple(walk)))
        object.__setattr__(self, "faces", tuple(faces))
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
        v, w = dart
        row = self.rotation[w]
        return (w, row[(self._position[w, v] + 1) % len(row)])

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def face_of_dart(self, dart: Dart) -> int:
        return self._dart_face[dart]

    def faces_of_edge(self, edge: Edge) -> tuple[int, int]:
        """Face indices on the two sides of an edge.

        The two entries coincide exactly when the edge is a bridge (both
        darts lie on the same face walk).
        """
        u, v = edge
        a = self._dart_face[u, v]
        b = self._dart_face[v, u]
        return (a, b) if a <= b else (b, a)

    def triangle_faces(self) -> tuple[int, ...]:
        """Indices of all 3-faces, in face order."""
        return tuple(f.index for f in self.faces if f.is_triangle)

    def __repr__(self) -> str:
        return (
            f"PlaneGraph(n={self.n}, m={self.m}, faces={self.face_count})"
        )


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
