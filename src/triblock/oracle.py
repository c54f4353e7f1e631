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
relabeled.  One worker pool serves the whole sweep.

Freeness and isomorphism are asked through the public calls of
`patterns`, `contains_subgraph_using_edge` and `isomorphic`, on `Graph`s;
how the kernel plans and runs a search stays inside that module.  The
sweep's own cheap tests read rows, each vertex's neighbors as an integer
bitmask: a parent's rows are built once, and each child is its parent's
rows with the two bits of the new edge set while its twin orbit and edge
key are read.  A child's `Graph` is built only once it passes the edge
key.  The deduplication's invariant key (degrees by `int.bit_count`,
sorted neighbor degrees, triangles as popcounts of row intersections) and
the planarity test's 2-core read rows too.

A parent is extended once per orbit of its absent edges under its twin
swaps (two vertices are twins when their rows agree outside the pair),
not once per absent edge.  Every other child in an orbit is isomorphic to
the one tried, so every level keeps the same isomorphism classes (see
`_expand`); the witnesses are canonically relabeled and `explored` counts
every absent edge of every parent, tried or not, so neither changes.  It
is computed from the level sizes: the start graph, plus level_sizes[m]
parents with n(n-1)/2 - m absent edges each, summed over m.  Children
isomorphic through other automorphisms of the parent, and children of
different parents, still meet in the deduplication.

A child is kept only if it grows through its largest edge: no edge of the
parent has a larger key than the new edge, the key of an edge (x, y) of
the child being (max(deg x, deg y), min(deg x, deg y), |N(x) & N(y)|) in
the child (`_edge_key`).  This is the weak, label-free form of canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
1998): it needs no canonical labelling, and ties still meet in the
deduplication.  It is exact: a free planar class C on m + 1 edges has an
edge e of the largest key, C - e is free and planar, so level m holds a
representative P with an isomorphism f from C - e onto P, and the key is
an isomorphism invariant, so the child P + f(e), and the child of the twin
orbit leader of f(e), which is its image under an automorphism of P, both
grow through a largest edge (see `_expand`).  Every level keeps the same
classes; at n = 7 (theta6-2) the rule cuts the children that reach the
deduplication from 2 317 to 580, and the anchored searches from 3 000 to
605, since it runs first.

Each child is tested for freeness (anchored on its new edge) and against
the planar edge bound m <= 3n - 6; the full planarity test runs only on
the representatives the deduplication keeps.  This leaves every level as
it would be with planarity tested first: the deduplication keeps the first
member of each isomorphism class in sorted order, planarity is a class
invariant, so a planar class has the same members and the same first
member either way, and dropping the non-planar representatives afterwards
leaves the planar ones in their order.  It saves most of the planarity
calls, since a level has a few hundred classes but thousands of children.

Planarity is first decided on the 2-core, what is left once vertices of
degree at most 1 are deleted until none is left: such a vertex lies on no
cycle, so the graph is planar exactly when its 2-core is.  A planar graph
on n >= 3 vertices has m <= 3n - 6 edges, and m <= 2n - 4 if it has no
triangle, so a core over its bound is not planar.  By Kuratowski's
theorem a non-planar graph contains a subdivision of K5 or of K3,3, which
lies in the 2-core; the five branch vertices of a K5 subdivision have
degree at least 4 in the core, and the six of a K3,3 subdivision degree
at least 3.  So a core with fewer than 5 vertices of degree >= 4 and fewer
than 6 of degree >= 3 is planar.  At n = 6 these settle every planarity
call of the theta6-2 sweep.  The rest go through networkx's linear-time
test; a slow rotation-system search (`planar_by_embedding_search`) is kept
as an independent cross-check route and shares no code with either.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool

from .patterns import (
    contains_subgraph_using_edge,
    is_free,
    is_free_of_all,
    isomorphic,
)
from .plane_graph import (
    Edge,
    Graph,
    PlaneGraph,
    PlaneGraphError,
    _edge_rows,
    _layers,
    normalize_edge,
)

__all__ = [
    "CapExceeded",
    "OracleResult",
    "arbitrary_embedding",
    "canonical_edges",
    "check_cap",
    "is_planar",
    "max_edges",
    "planar_by_embedding_search",
]


#: Largest n that max_edges sweeps without ``force``.
_N_CAP = 8
#: At most this many extremal graphs are kept as witnesses.
_WITNESS_CAP = 100
#: canonical_edges tries at most this many relabelings.
_RELABELING_BUDGET = 10**6


class CapExceeded(ValueError):
    """The requested work exceeds a safety cap: n past the sweep's cap (the
    search is exponential), or a canonical form past its relabeling
    budget."""


def check_cap(n: int, force: bool = False) -> None:
    """Raise CapExceeded when n is past the sweep's cap and not forced."""
    if n > _N_CAP and not force:
        raise CapExceeded(
            f"n={n} exceeds the cap of {_N_CAP}; the sweep is exponential. "
            "Pass force=True (or --force) to run it anyway."
        )


def _check_planarity(g: Graph):
    """networkx's planarity test on g, vertices 0..n-1 and edges added in
    sorted order (the embedding it returns depends on insertion order).
    networkx is imported on first use: importing the package skips it."""
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(sorted(g.edges))
    return nx.check_planarity(nxg)


def _two_core(rows: list[int]) -> int:
    """The vertices left, as a bitmask, once vertices of degree at most 1
    are deleted until none is left."""
    core = (1 << len(rows)) - 1
    low = [v for v, row in enumerate(rows) if row.bit_count() <= 1]
    while low:
        v = low.pop()
        if not core >> v & 1:
            continue
        core ^= 1 << v
        rest = rows[v] & core  # v's last neighbor, if any
        if rest:
            w = rest.bit_length() - 1
            if (rows[w] & core).bit_count() <= 1:
                low.append(w)
    return core


def is_planar(g: Graph) -> bool:
    """Planarity, decided on the 2-core (see the module docstring) by the
    edge bounds and the Kuratowski degree count where they suffice, and
    by networkx's test otherwise."""
    rows = _edge_rows(g.n, g.edges)
    core = _two_core(rows)
    degree = [
        (row & core).bit_count() for v, row in enumerate(rows) if core >> v & 1
    ]
    n, m = len(degree), sum(degree) // 2
    triangle = any(rows[u] & rows[v] for u, v in g.edges)
    if n >= 3 and m > (3 * n - 6 if triangle else 2 * n - 4):
        return False
    if sum(d >= 4 for d in degree) < 5 and sum(d >= 3 for d in degree) < 6:
        return True
    ok, _ = _check_planarity(g)
    return bool(ok)


def arbitrary_embedding(g: Graph) -> PlaneGraph:
    """Some valid plane embedding of an abstract planar graph, for
    serialization only — the choice of faces carries no meaning."""
    ok, embedding = _check_planarity(g)
    if not ok:
        raise PlaneGraphError("graph is not planar; cannot embed")
    data = embedding.get_data()
    return PlaneGraph(g.n, [data[v] for v in range(g.n)])


def _signatures(rows: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Each vertex's isomorphism-invariant signature: its degree and its
    neighbors' degrees in sorted order.  The neighbors of each degree k
    are counted at once, against the bitmask of the vertices of degree k."""
    degree = [row.bit_count() for row in rows]
    of_degree: dict[int, int] = {}
    for v, d in enumerate(degree):
        of_degree[d] = of_degree.get(d, 0) | 1 << v
    masks = sorted(of_degree.items())
    out = []
    for d, row in zip(degree, rows):
        neighbor_degrees: tuple[int, ...] = ()
        for k, mask in masks:
            count = (row & mask).bit_count()
            if count:
                neighbor_degrees += (k,) * count
        out.append((d, neighbor_degrees))
    return out


def _invariant_key(rows: list[int], edges: tuple[Edge, ...]) -> tuple:
    """The vertex signatures in sorted order and the triangle count."""
    triangles = sum((rows[u] & rows[v]).bit_count() for u, v in edges) // 3
    return (tuple(sorted(_signatures(rows))), triangles)


def _twin_classes(rows: list[int]) -> list[list[int]]:
    """The vertices grouped by the twin relation, each class in ascending
    order and the classes by their least member.

    u and w are twins when their rows agree outside {u, w}: swapping them
    is then an automorphism.  This is an equivalence relation (see
    `_expand`), so each vertex is compared with the least member of each
    class found so far.
    """
    classes: list[list[int]] = []
    for v, row in enumerate(rows):
        for c in classes:
            outside = ~(1 << c[0] | 1 << v)
            if rows[c[0]] & outside == row & outside:
                c.append(v)
                break
        else:
            classes.append([v])
    return classes


def _orbit_leaders(rows: list[int]) -> list[Edge]:
    """The absent edges that lead their orbits under the twin swaps, in
    sorted order: the least members of two classes, or the two least
    members of one class (see `_expand`)."""
    classes = _twin_classes(rows)
    pairs = [(c[0], d[0]) for c, d in itertools.combinations(classes, 2)]
    pairs += [(c[0], c[1]) for c in classes if len(c) > 1]
    return sorted((u, v) for u, v in pairs if not rows[u] >> v & 1)


def _edge_key(rows: list[int], x: int, y: int) -> tuple[int, int, int]:
    """The key of the edge (x, y): the larger and the smaller degree of its
    ends, and their common neighbors.  An isomorphism invariant: an
    isomorphism maps the edge to one with the same key."""
    a, b = rows[x].bit_count(), rows[y].bit_count()
    return (max(a, b), min(a, b), (rows[x] & rows[y]).bit_count())


def _expand(
    parent_edges: tuple[Edge, ...], n: int, patterns: tuple[Graph, ...]
) -> list[Graph]:
    """The one-edge extensions of the parent, one per orbit of absent
    edges under its twin swaps, that grow through their largest edge and
    stay free and within the planar edge bound m <= 3n - 6.  `explored`
    counts all n(n-1)/2 - m absent edges, tried or not; `max_edges`
    computes it from the level sizes.

    Twins u and w (rows agreeing outside {u, w}) are either adjacent with
    equal closed neighborhoods or non-adjacent with equal open ones.  No
    vertex has one twin of each kind: with u, w non-adjacent twins and
    w, x adjacent twins, x is a neighbor of w, hence of u, so u lies in
    the closed neighborhood of x, which is w's, and u would be adjacent
    to w.  Each kind is an equivalence relation, so twinship is one too.
    Swapping twins is an automorphism of the parent, and the swaps within
    a class generate every permutation of it.  So an absent edge's orbit
    is every pair drawn from the same two classes, or from the same one
    class; adjacency is the same across an orbit, so a whole orbit is
    absent.  Only its least pair is tried: the least members of two
    classes, or the two least members of one.  Every other child is the
    image of that one under an automorphism of the parent, so it is
    isomorphic to it and is free and planar exactly when it is.  The
    deduplication therefore keeps the same classes at every level; only
    which member of a class comes first in sorted order can change, and
    the representatives' labels reach no output: `explored` is derived
    from the level sizes, and the witnesses are canonically relabeled.

    A child is kept only if no edge of the parent has a larger
    `_edge_key` in the child than the new edge (u, v); this is checked
    first, on the rows, since it is far cheaper than the anchored search,
    and only a child that passes it is built as a `Graph`.  It loses no
    class.  Let C be a free planar graph on m + 1 edges and e an edge of C
    with the largest key.  C - e is free and planar, so the previous level
    holds a representative P of its class, with an isomorphism f from
    C - e onto P; f extends to an isomorphism from C onto P + f(e), which
    maps e to f(e), so f(e) has the largest key in P + f(e).  The leader
    of f(e)'s twin orbit is the image of f(e) under an automorphism of P,
    which is again an isomorphism of the two children, so the leader too
    has the largest key in its child, and that child is tried and kept.
    Ties are kept, so several members of a class can still arrive, from
    one parent or several; the deduplication removes them as before.

    The parent is known free, so any new pattern copy must use the added
    edge; freeness is checked by `contains_subgraph_using_edge` anchored on
    it, for each pattern that fits.  The planarity test runs later, on the
    isomorphism-class representatives only: it is a class invariant, so
    testing the first member of a class decides them all (see the module
    docstring).
    """
    m = len(parent_edges)
    if n >= 3 and m + 1 > 3 * n - 6:
        return []
    fitting = [p for p in patterns if p.n <= n and p.m <= m + 1]
    rows = _edge_rows(n, parent_edges)
    survivors: list[Graph] = []
    for u, v in _orbit_leaders(rows):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        key = _edge_key(rows, u, v)
        largest = all(_edge_key(rows, x, y) <= key for x, y in parent_edges)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        if not largest:
            continue
        child = Graph(n, frozenset((*parent_edges, (u, v))))
        if all(
            contains_subgraph_using_edge(child, p, (u, v)) is None
            for p in fitting
        ):
            survivors.append(child)
    return survivors


def _dedup_level(n: int, children: list[Graph]) -> list[Graph]:
    """The first child of each isomorphism class, in sorted edge-tuple
    order.

    Children are bucketed by `_invariant_key`, read off their rows; a
    newcomer is kept when `isomorphic` finds it isomorphic to no
    representative kept in its bucket.  Most buckets hold one child, so
    nothing is prepared for a representative until a newcomer meets it.
    """
    by_edges = {tuple(sorted(g.edges)): g for g in children}
    buckets: dict[tuple, list[Graph]] = {}
    reps: list[Graph] = []
    for edges in sorted(by_edges):
        g = by_edges[edges]
        rows = _edge_rows(n, edges)
        bucket = buckets.setdefault(_invariant_key(rows, edges), [])
        if not any(isomorphic(rep, g) for rep in bucket):
            bucket.append(g)
            reps.append(g)
    return reps


def canonical_edges(g: Graph) -> tuple[Edge, ...]:
    """Lexicographically minimal edge tuple over relabelings that respect
    the (degree, sorted neighbor degrees) classes.

    The class signature is isomorphism-invariant, so isomorphic graphs get
    identical canonical tuples.  Raises CapExceeded when the class
    structure admits more than ``_RELABELING_BUDGET`` relabelings (never
    the case at oracle sizes): any cheaper answer would not be canonical.
    """
    sig = _signatures(_edge_rows(g.n, g.edges))
    classes: dict[tuple, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(sig[v], []).append(v)
    ordered = [classes[key] for key in sorted(classes)]
    relabelings = math.prod(math.factorial(len(c)) for c in ordered)
    if relabelings > _RELABELING_BUDGET:
        raise CapExceeded(
            f"canonical form of a graph on {g.n} vertices needs "
            f"{relabelings} relabelings, over the budget of "
            f"{_RELABELING_BUDGET}"
        )
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
    force: bool = False,
) -> OracleResult:
    """Exhaustively determine the maximum edge count and the extremal
    graphs.  A tuple of patterns means "free of all of them".  ``jobs`` is
    clamped to the machine's CPU count.  Raises CapExceeded past the cap
    unless forced, and ValueError for a pattern the empty start graph
    already contains (an edgeless one of order at most n), since every
    graph on n vertices then contains it."""
    patterns = (pattern,) if isinstance(pattern, Graph) else tuple(pattern)
    if not patterns:
        raise ValueError("need at least one pattern")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    check_cap(n, force)
    jobs = min(jobs, os.cpu_count() or 1)  # more workers than cores only thrash
    start = time.perf_counter()
    level: list[Graph] = [Graph.from_edges(n, ())]
    for p in patterns:  # the sweep grows only graphs free of every pattern
        if not is_free(level[0], p):
            raise ValueError(
                f"pattern {pattern_name!r} has no edges and {p.n} vertices: "
                f"every graph on n={n} vertices contains it"
            )
    level_sizes = [1]
    expand = partial(_expand, n=n, patterns=patterns)
    with Pool(jobs) if jobs > 1 else nullcontext() as pool:
        while True:
            parents = [tuple(sorted(g.edges)) for g in level]
            if pool is not None and len(parents) > 1:
                results = pool.map(
                    expand, parents, chunksize=max(1, len(parents) // (4 * jobs))
                )
            else:
                results = [expand(p) for p in parents]
            children = [c for survivors in results for c in survivors]
            next_level = [g for g in _dedup_level(n, children) if is_planar(g)]
            if not next_level:
                break
            level = next_level
            level_sizes.append(len(next_level))

    pairs = n * (n - 1) // 2  # a parent with m edges has pairs - m absent
    explored = 1 + sum(k * (pairs - m) for m, k in enumerate(level_sizes))
    witnesses = sorted({canonical_edges(g) for g in level})[:_WITNESS_CAP]
    for edges in witnesses:  # self-audit through the public predicates
        w = Graph.from_edges(n, edges)
        if not is_planar(w) or not is_free_of_all(w, patterns):
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
    2 - n + m faces; each component, the layers around its least vertex,
    is handled separately.  Exponential and
    only meant to cross-check the fast test on small graphs: returns None
    when any component needs more than ``budget`` rotation systems.
    """
    verdict = True
    adj = g.adjacency()
    seen: set[int] = set()
    for v in range(g.n):
        if v in seen:
            continue
        comp = tuple(sorted(itertools.chain.from_iterable(_layers(adj, v))))
        seen.update(comp)
        if len(comp) <= 2:
            continue
        result = _component_has_planar_rotation(comp, g, budget)
        if result is None:
            return None
        if not result:
            verdict = False
    return verdict
