"""The nine-entry triangular-block catalog.

Each entry is stored once, as the rotation rows of its standard plane
embedding (counterclockwise neighbors of every vertex); the abstract graph
is read off the rows.  No two entries are isomorphic, not even the two
five-vertex/eight-edge ones (K5 minus two disjoint edges vs. K5 minus two
adjacent edges), and no two share a degree sequence, which is what lets
:mod:`triblock.blocks` label a block by its sizes and degrees alone.
"""

from __future__ import annotations

from .plane_graph import Graph, PlaneGraph

__all__ = [
    "CATALOG_LABELS",
    "catalog_graph",
    "catalog_plane_graph",
]

#: Catalog order: by vertex count, then edge count descending within it.
CATALOG_LABELS: tuple[str, ...] = (
    "B2",
    "B3",
    "B4a",
    "B4b",
    "B5a",
    "B5b",
    "B5c",
    "B5d",
    "B6",
)

_ROTATIONS: dict[str, tuple[tuple[int, ...], ...]] = {
    # single edge (the trivial block)
    "B2": ((1,), (0,)),
    # triangle
    "B3": ((1, 2), (2, 0), (0, 1)),
    # K4
    "B4a": ((1, 3, 2), (2, 3, 0), (0, 3, 1), (1, 2, 0)),
    # 4-cycle plus one chord
    "B4b": ((3, 2, 1), (2, 0), (1, 0, 3), (2, 0)),
    # K5 minus one edge: outer triangle 0-1-2, vertex 3 inside it joined to
    # 0,1,2, vertex 4 inside triangle 1-2-3: all six faces are triangles
    "B5a": ((1, 3, 2), (2, 4, 3, 0), (0, 3, 4, 1), (1, 4, 2, 0), (1, 2, 3)),
    # wheel: 4-cycle 0-1-2-3 with hub 4
    "B5b": ((3, 4, 1), (4, 2, 0), (1, 4, 3), (2, 4, 0), (3, 2, 1, 0)),
    # 4-cycle 0-1-2-3, diagonal 0-2, apex 4 joined to 0,1,2
    "B5c": ((3, 2, 4, 1), (2, 0, 4), (1, 4, 0, 3), (2, 0), (2, 1, 0)),
    # 5-cycle 0-1-2-3-4 with chords 0-2 and 0-3
    "B5d": ((1, 2, 3, 4), (2, 0), (3, 0, 1), (4, 0, 2), (3, 0)),
    # hexagon 0..5 with the inscribed triangle 0-2-4
    "B6": ((4, 5, 1, 2), (0, 2), (3, 4, 0, 1), (4, 2), (5, 0, 2, 3), (0, 4)),
}

#: label -> the abstract catalog graph, built once and shared (a `Graph` is
#: immutable).
_GRAPHS: dict[str, Graph] = {
    label: Graph.from_edges(
        len(rows), ((v, w) for v, row in enumerate(rows) for w in row if v < w)
    )
    for label, rows in _ROTATIONS.items()
}


def _entry(table: dict, label: str):
    try:
        return table[label]
    except KeyError:
        raise KeyError(f"unknown catalog label {label!r}") from None


def catalog_graph(label: str) -> Graph:
    """The abstract catalog graph for a label (the same object each call)."""
    return _entry(_GRAPHS, label)


def catalog_plane_graph(label: str) -> PlaneGraph:
    """The standard plane embedding of a catalog graph (as in the usual
    figures: every bounded face of a non-trivial entry is a triangle)."""
    rows = _entry(_ROTATIONS, label)
    return PlaneGraph(len(rows), rows)

