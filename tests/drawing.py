"""Plane graphs from straight-line drawings, for test fixtures only.

The package builds plane graphs from rotation systems alone; float
coordinates are a convenient way to write a small fixture by hand.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from triblock.plane_graph import PlaneGraph, PlaneGraphError, normalize_edge


class AmbiguousLayout(PlaneGraphError):
    """Two neighbors lie in exactly the same direction from a vertex, so a
    straight-line layout does not determine a rotation order."""


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
