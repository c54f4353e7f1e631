"""Exhaustive oracle: the maximum size of pattern-free planar graphs on
few vertices.

Grows graphs one edge at a time from the empty graph on n labeled
vertices.  Planarity and pattern-freeness are both closed under edge
deletion, so every free planar graph with m+1 edges has a free planar
spanning subgraph with m edges; a level-by-level sweep that keeps one
representative per isomorphism class is therefore exhaustive, and the
first empty level pins the answer at the previous level's edge count.
Intermediate graphs may be disconnected; the fixed vertex set keeps them
comparable across levels.

The result does not depend on the worker count: children are collected in
parent order, deduplicated from a sorted list by invariant buckets plus
exact isomorphism tests, and the final witnesses are canonically
relabeled.  Planarity goes through networkx's linear-time test; a slow
rotation-system search (`planar_by_embedding_search`) is kept as an
independent cross-check route and shares no code with it.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool

import networkx as nx

from .patterns import contains_subgraph_using_edge, is_free, isomorphic
from .plane_graph import (
    Edge,
    Graph,
    PlaneGraph,
    PlaneGraphError,
    normalize_edge,
)

__all__ = [
    "CapExceeded",
    "OracleResult",
    "arbitrary_embedding",
    "canonical_edges",
    "is_planar",
    "max_edges",
    "planar_by_embedding_search",
]


class CapExceeded(ValueError):
    """The requested n exceeds the safety cap (the search is exponential)."""


def _nx_graph(g: Graph) -> nx.Graph:
    """The same graph for networkx, vertices 0..n-1 and edges in sorted
    order (the embedding networkx returns depends on insertion order)."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(sorted(g.edges))
    return nxg


def is_planar(g: Graph) -> bool:
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    if g.m == 0:
        return True
    ok, _ = nx.check_planarity(_nx_graph(g), counterexample=False)
    return bool(ok)


def arbitrary_embedding(g: Graph) -> PlaneGraph:
    """Some valid plane embedding of an abstract planar graph, for
    serialization only — the choice of faces carries no meaning."""
    ok, embedding = nx.check_planarity(_nx_graph(g))
    if not ok:
        raise PlaneGraphError("graph is not planar; cannot embed")
    data = embedding.get_data()
    return PlaneGraph(g.n, [data[v] for v in range(g.n)])


def _triangle_count(g: Graph) -> int:
    adj = g.adjacency()
    return sum(len(adj[u] & adj[v]) for u, v in g.edges) // 3


def _invariant_key(g: Graph) -> tuple:
    adj = g.adjacency()
    neighbor_sig = tuple(
        sorted(
            tuple(sorted(len(adj[w]) for w in adj[v])) for v in range(g.n)
        )
    )
    return (g.degree_sequence(), neighbor_sig, _triangle_count(g))


def _expand(
    parent_edges: tuple[Edge, ...], n: int, patterns: tuple[Graph, ...]
) -> tuple[list[tuple[Edge, ...]], int]:
    """All one-edge extensions of the parent that stay planar and free.

    The parent is known free, so any new pattern copy must use the added
    edge; freeness is checked anchored on it.
    """
    present = set(parent_edges)
    survivors: list[tuple[Edge, ...]] = []
    examined = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in present:
                continue
            examined += 1
            child_edges = tuple(sorted(present | {(u, v)}))
            child = Graph.from_edges(n, child_edges)
            if not is_planar(child):
                continue
            if any(
                contains_subgraph_using_edge(child, p, (u, v))
                for p in patterns
            ):
                continue
            survivors.append(child_edges)
    return survivors, examined


def _dedup_level(n: int, children: list[tuple[Edge, ...]]) -> list[Graph]:
    buckets: dict[tuple, list[Graph]] = {}
    reps: list[Graph] = []
    for edges in sorted(set(children)):
        g = Graph.from_edges(n, edges)
        bucket = buckets.setdefault(_invariant_key(g), [])
        if not any(isomorphic(g, h) for h in bucket):
            bucket.append(g)
            reps.append(g)
    return reps


def canonical_edges(g: Graph, budget: int = 10**6) -> tuple[Edge, ...]:
    """Lexicographically minimal edge tuple over relabelings that respect
    the (degree, sorted neighbor degrees) classes.

    The class signature is isomorphism-invariant, so isomorphic graphs get
    identical canonical tuples.  Falls back to the identity labeling when
    the class structure admits more than ``budget`` relabelings (never the
    case at oracle sizes).
    """
    adj = g.adjacency()
    sig = {
        v: (len(adj[v]), tuple(sorted(len(adj[w]) for w in adj[v])))
        for v in range(g.n)
    }
    classes: dict[tuple, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(sig[v], []).append(v)
    ordered = [classes[key] for key in sorted(classes)]
    if math.prod(math.factorial(len(c)) for c in ordered) > budget:
        return tuple(sorted(g.edges))
    best: tuple[Edge, ...] | None = None
    for combo in itertools.product(
        *(itertools.permutations(c) for c in ordered)
    ):
        new_id = {
            old: i
            for i, old in enumerate(itertools.chain.from_iterable(combo))
        }
        candidate = tuple(
            sorted(normalize_edge(new_id[u], new_id[v]) for u, v in g.edges)
        )
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return best


@dataclass(frozen=True)
class OracleResult:
    n: int
    pattern_name: str
    max_edges: int
    witnesses: tuple[tuple[Edge, ...], ...]
    explored: int
    elapsed: float
    level_sizes: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern_name,
            "max_edges": self.max_edges,
            "witness_count": len(self.witnesses),
            "witnesses": [
                [[u, v] for u, v in edges] for edges in self.witnesses
            ],
            "explored": self.explored,
            "elapsed_seconds": round(self.elapsed, 3),
            "level_sizes": list(self.level_sizes),
        }


def max_edges(
    n: int,
    pattern: Graph | tuple[Graph, ...],
    *,
    pattern_name: str = "pattern",
    jobs: int = 1,
    cap: int = 8,
    force: bool = False,
    witness_cap: int = 100,
) -> OracleResult:
    """Exhaustively determine the maximum edge count and the extremal
    graphs.  A tuple of patterns means "free of all of them".  ``jobs`` is
    clamped to the machine's CPU count.  Raises CapExceeded past the cap
    unless forced."""
    patterns = (pattern,) if isinstance(pattern, Graph) else tuple(pattern)
    if not patterns:
        raise ValueError("need at least one pattern")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if n > cap and not force:
        raise CapExceeded(
            f"n={n} exceeds the cap of {cap}; the sweep is exponential. "
            "Pass force=True (or --force) to run it anyway."
        )
    jobs = min(jobs, os.cpu_count() or 1)  # more workers than cores only thrash
    start = time.perf_counter()
    level: list[Graph] = [Graph.from_edges(n, ())]
    level_sizes = [1]
    explored = 1
    expand = partial(_expand, n=n, patterns=patterns)
    while True:
        parents = [tuple(sorted(g.edges)) for g in level]
        if jobs > 1 and len(parents) > 1:
            with Pool(jobs) as pool:
                results = pool.map(
                    expand, parents, chunksize=max(1, len(parents) // (4 * jobs))
                )
        else:
            results = [expand(p) for p in parents]
        children = [c for survivors, _ in results for c in survivors]
        explored += sum(examined for _, examined in results)
        next_level = _dedup_level(n, children)
        if not next_level:
            break
        level = next_level
        level_sizes.append(len(next_level))

    witnesses = sorted({canonical_edges(g) for g in level})[:witness_cap]
    for edges in witnesses:  # self-audit through the public predicates
        w = Graph.from_edges(n, edges)
        if not is_planar(w) or not all(is_free(w, p) for p in patterns):
            raise RuntimeError(
                f"oracle self-audit failed on witness {edges}; this is a bug"
            )
    return OracleResult(
        n=n,
        pattern_name=pattern_name,
        max_edges=len(level_sizes) - 1,
        witnesses=tuple(witnesses),
        explored=explored,
        elapsed=time.perf_counter() - start,
        level_sizes=tuple(level_sizes),
    )


def _component_has_planar_rotation(
    vertices: tuple[int, ...], g: Graph, budget: int
) -> bool | None:
    index = {v: i for i, v in enumerate(vertices)}
    nbrs = [sorted(index[w] for w in g.neighbors(v) if w in index) for v in vertices]
    nc = len(vertices)
    mc = sum(len(row) for row in nbrs) // 2
    if mc == 0:
        return True
    count = math.prod(
        math.factorial(max(0, len(row) - 1)) for row in nbrs
    )
    if count > budget:
        return None
    choices = [
        [(row[0],) + rest for rest in itertools.permutations(row[1:])]
        if row
        else [()]
        for row in nbrs
    ]
    for rotation in itertools.product(*choices):
        pos = [
            {w: i for i, w in enumerate(row)} for row in rotation
        ]
        faces = 0
        visited: set[tuple[int, int]] = set()
        for v0 in range(nc):
            for w0 in rotation[v0]:
                if (v0, w0) in visited:
                    continue
                faces += 1
                v, w = v0, w0
                while (v, w) not in visited:
                    visited.add((v, w))
                    row = rotation[w]
                    v, w = w, row[(pos[w][v] + 1) % len(row)]
        if nc - mc + faces == 2:
            return True
    return False


def planar_by_embedding_search(g: Graph, budget: int = 10**6) -> bool | None:
    """Planarity by brute-force search over rotation systems.

    A connected graph is planar iff some rotation system traces
    2 - n + m faces; components are handled separately.  Exponential and
    only meant to cross-check the fast test on small graphs: returns None
    when any component needs more than ``budget`` rotation systems.
    """
    verdict = True
    for comp in g.components():
        if len(comp) <= 2:
            continue
        result = _component_has_planar_rotation(comp, g, budget)
        if result is None:
            return None
        if not result:
            verdict = False
    return verdict
