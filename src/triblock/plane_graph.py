"""Connected simple plane graphs represented by rotation systems.

A plane graph is given by a counterclockwise cyclic order of neighbors at
every vertex, and nothing else.  Everything else is derived in the
half-edge (doubly-connected edge list) layout of Muller & Preparata
(Theor. Comput. Sci. 1978), kept as flat integer arrays indexed by dart id.
Darts are numbered 0..2m-1 in row order: the dart from v to the i-th entry
of v's row is the row offset of v (the degree sum of the vertices before
it) plus i.  For each dart d, ``tail[d]`` and ``head[d]`` are its ends,
``twin[d]`` is the reverse dart and ``face[d]`` is the index of the face
whose walk it lies on.  A rotation system is accepted only if the traced
face count satisfies Euler's formula n - m + f = 2, i.e. it describes a
genus-zero (planar) embedding of a connected graph; connectivity is
checked by `_layers`, the one breadth-first search of the package, which
`patterns` and `oracle` import.  The abstract :class:`Graph` is derived
from the arrays on demand, when first read.

A face is its dart walk, literally: ``faces[i]`` is the tuple of dart ids
of face i, in walk order from its first dart.  The dart after d on its
walk is the dart after ``twin[d]`` in the head's row: the successor of
(u, v) is (v, w) where w immediately follows u in the rotation at v.
Faces are traced from their first unvisited dart in dart-id order, which
is row order, so face indices are those of tracing the plain
(tail, head) pairs in row order: the numbering changes how a dart is
stored, not which faces exist or the order they are found in.

A face's *size* is its dart count, ``len(faces[i])``: a bridge is walked
once from each side and so counts twice.  This is the size
:mod:`triblock.contribution` splits a face's unit over, and under it the
per-block face shares sum exactly to the number of faces.  A face is a
*triangle* when its walk has exactly three darts; in a simple graph such a
walk always has three distinct edges, but the converse fails (a star
K_{1,3} has a single face with six darts and three distinct edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import eq
from typing import Iterable, Iterator, Sequence

__all__ = [
    "DisconnectedGraph",
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


def _layers(adj: Sequence[Sequence[int]], root: int) -> Iterator[list[int]]:
    """Breadth-first layers around ``root``: [root], its neighbors, the
    vertices at distance 2, and so on."""
    seen = {root}
    layer = [root]
    while layer:
        yield layer
        reached = []
        for u in layer:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        layer = reached


def _edge_rows(n: int, edges: Iterable[Edge]) -> list[int]:
    """The neighbors of each vertex 0..n-1 as an integer bitmask, with
    vertex w as bit w."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


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
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u > v:
                raise ValueError(
                    f"edge ({u}, {v}) is not a sorted pair; "
                    "Graph.from_edges sorts pairs"
                )

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

    def is_connected(self) -> bool:
        """Whether the layers around vertex 0 hold every vertex; the empty
        graph is not connected."""
        n = self.n
        return n > 0 and sum(map(len, _layers(self.adjacency(), 0))) == n


class PlaneGraph:
    """A validated plane graph: connected, simple, genus zero.

    Construction validates everything; instances are immutable afterwards
    and safe to share between worker processes; a pickle holds only the rows.
    Instances compare by identity and can be weakly referenced, so a table
    keyed by graph (``contribution.certify`` keeps one) does not keep a
    graph alive.
    ``faces`` holds each face's dart walk; ``tail``, ``head``, ``twin`` and
    ``face`` are the per-dart arrays described in the module docstring;
    ``graph``, the abstract graph, is built from them on first read.
    """

    __slots__ = (
        "rotation", "faces",
        "tail", "head", "twin", "face", "_offset", "_graph", "__weakref__",
    )

    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[int, ...], ...]
    tail: tuple[int, ...]
    head: tuple[int, ...]
    twin: tuple[int, ...]
    face: tuple[int, ...]

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
        rotation = tuple(tuple(map(int, row)) for row in rotations)
        offset = list(accumulate(map(len, rotation), initial=0))
        tail = [v for v, row in enumerate(rotation) for _ in row]
        head = list(chain.from_iterable(rotation))
        if (
            min(head, default=0) < 0
            or max(head, default=0) >= n
            or any(map(eq, tail, head))
        ):
            _refuse_rows(rotation, n)
        # One int object per dart id, shared by every per-dart array.
        ids = list(range(len(tail)))
        # The (v, w) -> dart lookup, keyed v*n + w, lives only as long as
        # it takes to find repeated neighbors and pair every dart with its
        # reverse.
        lookup = dict(zip([v * n + w for v, w in zip(tail, head)], ids))
        if len(lookup) != len(tail):
            _refuse_rows(rotation, n)
        twin = [lookup.get(w * n + v, -1) for v, w in zip(tail, head)]
        del lookup
        if -1 in twin:
            d = twin.index(-1)
            v, w = tail[d], head[d]
            raise InconsistentRotation(
                f"vertex {v} lists {w} but {w} does not list {v}"
            )

        if sum(map(len, _layers(rotation, 0))) < n:
            raise DisconnectedGraph(f"graph on {n} vertices is not connected")

        # nxt[d], the dart after d on its face walk, is the dart after
        # twin[d] in the head's row, cyclically.
        after = ids[1:] + ids[:1]
        for v in range(n):
            after[offset[v + 1] - 1] = ids[offset[v]]
        nxt = [after[t] for t in twin]

        # Trace every face from its first unvisited dart in dart-id order;
        # the dart -> face array doubles as the visited set.
        face = [-1] * len(tail)
        faces: list[tuple[int, ...]] = []
        for start in ids:
            if face[start] >= 0:
                continue
            index = len(faces)
            walk: list[int] = []
            d = start
            while face[d] < 0:
                face[d] = index
                walk.append(d)
                d = nxt[d]
            faces.append(tuple(walk))

        m, f = len(tail) // 2, len(faces)
        if n - m + f != 2:
            raise NonPlanarEmbedding(
                f"Euler check failed: n - m + f = {n} - {m} + {f} = "
                f"{n - m + f}, expected 2"
            )
        for name, value in (
            ("rotation", rotation),
            ("faces", tuple(faces)),
            ("tail", tuple(tail)),
            ("head", tuple(head)),
            ("twin", tuple(twin)),
            ("face", tuple(face)),
            ("_offset", tuple(offset)),
            ("_graph", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PlaneGraph instances are immutable")

    def __reduce__(self) -> tuple:
        return (PlaneGraph, (self.n, self.rotation))

    @property
    def graph(self) -> Graph:
        """The abstract graph, built from the dart arrays on first read."""
        if self._graph is None:
            pairs = zip(self.tail, self.head)
            graph = Graph(self.n, frozenset((v, w) for v, w in pairs if v < w))
            adjacency = tuple(map(frozenset, self.rotation))
            object.__setattr__(graph, "_adjacency", adjacency)
            object.__setattr__(self, "_graph", graph)
        return self._graph

    @property
    def n(self) -> int:
        return len(self.rotation)

    @property
    def m(self) -> int:
        return len(self.tail) // 2

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def dart(self, u: int, v: int) -> int:
        """The dart from u to v; ValueError, naming u and v, when either is
        not a vertex or they are not adjacent.

        The row of the lower-degree end is searched, so asking for every
        edge of a planar graph costs O(m) in all: the sum over edges of
        min(deg u, deg v) is at most 2·arboricity·m (Chiba & Nishizeki,
        SIAM J. Comput. 1985), and a planar graph has arboricity <= 3.
        """
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            # A negative index would wrap to the last row.
            raise ValueError(
                f"no dart ({u}, {v}): vertex out of range for n={n}"
            )
        row_u, row_v = self.rotation[u], self.rotation[v]
        try:
            if len(row_u) <= len(row_v):
                return self._offset[u] + row_u.index(v)
            return self.twin[self._offset[v] + row_v.index(u)]
        except ValueError:
            raise ValueError(f"no dart ({u}, {v}): not adjacent") from None

    def faces_of_edge(self, edge: Edge) -> tuple[int, int]:
        """Face indices on the two sides of an edge.

        The two entries coincide exactly when the edge is a bridge (both
        darts lie on the same face walk).
        """
        d = self.dart(*edge)
        a, b = self.face[d], self.face[self.twin[d]]
        return (a, b) if a <= b else (b, a)

    def face_vertices(self, fid: int) -> tuple[int, ...]:
        """The tails of a face's darts, in walk order."""
        tail = self.tail
        return tuple(tail[d] for d in self.faces[fid])

    def face_edges(self, fid: int) -> frozenset[Edge]:
        """The distinct underlying edges of a face's walk."""
        tail, head = self.tail, self.head
        return frozenset(
            normalize_edge(tail[d], head[d]) for d in self.faces[fid]
        )

    def triangle_faces(self) -> tuple[int, ...]:
        """Indices of all 3-faces, in face order."""
        return tuple(i for i, walk in enumerate(self.faces) if len(walk) == 3)

    def __repr__(self) -> str:
        return (
            f"PlaneGraph(n={self.n}, m={self.m}, faces={self.face_count})"
        )


def _refuse_rows(rotation: tuple[tuple[int, ...], ...], n: int) -> None:
    """Raise for the first loop, out-of-range or repeated neighbor, in row
    order; called once the whole-array checks have seen one."""
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
            neighbors = list(map(int, tail.split()))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if v in rows:
            raise FormatError(f"line {lineno}: duplicate line for vertex {v}")
        if not 0 <= v < n:
            raise FormatError(f"line {lineno}: vertex {v} out of range")
        rows[v] = neighbors

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
    for u, v in sorted(e for e in zip(pg.tail, pg.head) if e[0] < e[1]):
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
