"""Seeded random plane hosts for the ``random-hosts`` workload.

Each host starts as a random stacked triangulation (repeatedly insert a
vertex into a uniformly chosen triangular face and join it to the three
corners), then deletes each edge with probability p unless the deletion
would disconnect the graph.  networkx embeds the result and the host is
handed to the package as planegraph text, so the program under test sees
only generated inputs.

Vertex counts are stratified: host i of H draws n uniformly from the i-th of
H equal slices of 12..120.  Every seed therefore covers the whole size range
evenly, which keeps the per-seed median op time close to the population
median without fixing the hosts themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

N_MIN, N_MAX = 12, 120
DELETE_P = (0.0, 0.2, 0.4, 0.55)


@dataclass(frozen=True)
class Host:
    n: int
    edges: tuple[tuple[int, int], ...]
    text: str


def stacked_triangulation(n: int, rng: random.Random) -> nx.Graph:
    g = nx.Graph([(0, 1), (1, 2), (0, 2)])
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
        g.add_edges_from(((v, a), (v, b), (v, c)))
    return g


def thin(g: nx.Graph, p: float, rng: random.Random) -> None:
    """Delete each edge with probability p while keeping g connected."""
    edges = sorted(g.edges)
    rng.shuffle(edges)
    for u, v in edges:
        if rng.random() < p:
            g.remove_edge(u, v)
            if not nx.has_path(g, u, v):
                g.add_edge(u, v)


def planegraph_text(g: nx.Graph) -> str:
    ok, embedding = nx.check_planarity(g)
    if not ok:
        raise ValueError("generated host is not planar")
    rows = embedding.get_data()
    lines = ["planegraph 1", f"{g.number_of_nodes()} {g.number_of_edges()}"]
    lines += [f"{v}: {' '.join(map(str, rows[v]))}" for v in range(len(rows))]
    return "\n".join(lines) + "\n"


def make_host(n: int, p: float, rng: random.Random) -> Host:
    g = stacked_triangulation(n, rng)
    thin(g, p, rng)
    labels = list(range(n))
    rng.shuffle(labels)
    g = nx.relabel_nodes(g, dict(enumerate(labels)))
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges))
    return Host(n=n, edges=edges, text=planegraph_text(g))


def make_hosts(seed: int, count: int) -> list[Host]:
    """``count`` hosts from ``seed``; the same seed gives the same hosts."""
    rng = random.Random(seed)
    span = N_MAX - N_MIN + 1
    hosts = [
        make_host(N_MIN + int((i + rng.random()) * span / count),
                  DELETE_P[i % len(DELETE_P)], rng)
        for i in range(count)
    ]
    rng.shuffle(hosts)
    return hosts
