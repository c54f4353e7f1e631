"""Theta patterns and subgraph containment.

Containment here is plain subgraph containment (not induced): a pattern is
contained in a host when some injective vertex map sends every pattern edge
to a host edge.  Extra host edges between image vertices are irrelevant.

The search is one backtracking kernel (`_find_embedding`) that tries host
candidates in ascending vertex order, so the first witness is
deterministic.  Host adjacency is kept as arbitrary-precision integer
bitmasks, which keeps the inner loop in C-speed integer ops even for hosts
with a few hundred vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

from .plane_graph import Graph, PlaneGraph, normalize_edge

#: Name of the containment kernel, reported by the oracle CLI and benchmarks.
KERNEL_NAME = "pure-python"

__all__ = [
    "EmbeddingWitness",
    "KERNEL_NAME",
    "THETA6_1",
    "THETA6_2",
    "brute_force_contains",
    "contains_subgraph",
    "contains_subgraph_using_edge",
    "cycle_graph",
    "is_free",
    "is_free_of_all",
    "isomorphic",
    "theta_family",
    "theta_pattern",
]


def cycle_graph(k: int) -> Graph:
    """The cycle C_k on vertices 0..k-1."""
    if k < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {k}")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def theta_pattern(k: int, d: int) -> Graph:
    """The theta graph: C_k plus a chord between vertices at cycle distance d.

    Vertices 0..k-1 in cycle order; the chord joins 0 and d.  Requires
    k >= 4 and 2 <= d <= k//2 (d = 1 would duplicate a cycle edge, and
    distances beyond k//2 repeat earlier patterns by symmetry).
    """
    if k < 4:
        raise ValueError(f"theta patterns need a cycle of length >= 4, got k={k}")
    if not 2 <= d <= k // 2:
        raise ValueError(
            f"chord distance must satisfy 2 <= d <= {k // 2} for k={k}, got {d}"
        )
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges.append((0, d))
    return Graph.from_edges(k, edges)


def theta_family(k: int) -> tuple[Graph, ...]:
    """All theta graphs on a k-cycle, one per chord distance."""
    return tuple(theta_pattern(k, d) for d in range(2, k // 2 + 1))


#: The 6-cycle with a long (distance-3) chord.
THETA6_1 = theta_pattern(6, 3)
#: The 6-cycle with a short (distance-2) chord.
THETA6_2 = theta_pattern(6, 2)


@dataclass(frozen=True)
class EmbeddingWitness:
    """An injective vertex map certifying subgraph containment.

    ``mapping[p]`` is the host vertex assigned to pattern vertex ``p``.
    The witness is self-verifying via :meth:`is_valid`.
    """

    mapping: tuple[int, ...]

    def is_valid(self, host: Graph | PlaneGraph, pattern: Graph) -> bool:
        hg = _host_graph(host)
        mp = self.mapping
        if len(mp) != pattern.n or len(set(mp)) != len(mp):
            return False
        if any(not 0 <= v < hg.n for v in mp):
            return False
        return all(hg.has_edge(mp[a], mp[b]) for a, b in pattern.edges)


def _host_graph(host: Graph | PlaneGraph) -> Graph:
    if isinstance(host, PlaneGraph):
        return host.graph
    if isinstance(host, Graph):
        return host
    raise TypeError(f"expected Graph or PlaneGraph, got {type(host).__name__}")


@lru_cache(maxsize=None)
def _order(adj: tuple[frozenset[int], ...], fixed: tuple[int, ...]) -> tuple[int, ...]:
    """Assignment order: fixed seeds first, then greedily the vertex with
    the most already-placed neighbors (ties: higher degree, lower id)."""
    p = len(adj)
    order = list(fixed)
    placed = set(fixed)
    while len(order) < p:
        best_v = -1
        best_key: tuple[int, int, int] | None = None
        for v in range(p):
            if v in placed:
                continue
            key = (sum(1 for w in adj[v] if w in placed), len(adj[v]), -v)
            if best_key is None or key > best_key:
                best_key = key
                best_v = v
        order.append(best_v)
        placed.add(best_v)
    return tuple(order)


def _find_embedding(
    pattern_adj: Sequence[Sequence[int]],
    order: Sequence[int],
    host_adj: Sequence[Sequence[int]],
    fixed_hosts: Sequence[int] = (),
) -> tuple[int, ...] | None:
    """Injective edge-preserving map of the pattern into the host.

    ``order`` fixes the assignment sequence of pattern vertices; the first
    ``len(fixed_hosts)`` of them are pinned to the given host vertices.
    Returns the mapping as a tuple indexed by pattern vertex, or None.
    """
    p = len(pattern_adj)
    hn = len(host_adj)
    if p == 0:
        return ()
    if p > hn:
        return None

    masks = [0] * hn
    for v, nbrs in enumerate(host_adj):
        mask = 0
        for w in nbrs:
            mask |= 1 << w
        masks[v] = mask
    host_degs = [len(nbrs) for nbrs in host_adj]

    pos_of = [0] * p
    for i, pv in enumerate(order):
        pos_of[pv] = i
    # For each position, the earlier positions holding pattern neighbors.
    earlier: list[tuple[int, ...]] = []
    for i, pv in enumerate(order):
        earlier.append(tuple(j for j in (pos_of[w] for w in pattern_adj[pv]) if j < i))

    # Static per-position candidate filters: host degree and pinning.
    allowed = [0] * p
    degree_masks: dict[int, int] = {}
    for i, pv in enumerate(order):
        d = len(pattern_adj[pv])
        mask = degree_masks.get(d)
        if mask is None:
            mask = 0
            for v in range(hn):
                if host_degs[v] >= d:
                    mask |= 1 << v
            degree_masks[d] = mask
        if i < len(fixed_hosts):
            mask &= 1 << fixed_hosts[i]
        allowed[i] = mask

    cand = [0] * p
    assigned = [0] * p
    used = 0

    def candidates(i: int) -> int:
        c = allowed[i] & ~used
        for j in earlier[i]:
            c &= masks[assigned[j]]
        return c

    i = 0
    cand[0] = candidates(0)
    while i >= 0:
        c = cand[i]
        if c:
            bit = c & -c
            cand[i] = c ^ bit
            v = bit.bit_length() - 1
            assigned[i] = v
            if i == p - 1:
                mapping = [0] * p
                for j in range(p):
                    mapping[order[j]] = assigned[j]
                return tuple(mapping)
            used |= bit
            i += 1
            cand[i] = candidates(i)
        else:
            i -= 1
            if i >= 0:
                used &= ~(1 << assigned[i])
    return None


def contains_subgraph(
    host: Graph | PlaneGraph, pattern: Graph
) -> EmbeddingWitness | None:
    """First containment witness in ascending host-vertex order, or None."""
    hg = _host_graph(host)
    if pattern.n > hg.n or pattern.m > hg.m:
        return None
    adj = pattern.adjacency()
    mapping = _find_embedding(adj, _order(adj, ()), hg.adjacency())
    return None if mapping is None else EmbeddingWitness(mapping)


def contains_subgraph_using_edge(
    host: Graph | PlaneGraph, pattern: Graph, edge: tuple[int, int]
) -> EmbeddingWitness | None:
    """Containment witness whose image uses the given host edge.

    The workhorse of incremental freeness checking: when a host known to be
    pattern-free gains one edge, any new pattern copy must use that edge.
    """
    hg = _host_graph(host)
    if pattern.n > hg.n or pattern.m > hg.m:
        return None
    u, v = edge
    if not hg.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not a host edge")
    adj = pattern.adjacency()
    host_adj = hg.adjacency()
    for a, b in sorted(pattern.edges):
        order = _order(adj, (a, b))
        for image in ((u, v), (v, u)):
            mapping = _find_embedding(adj, order, host_adj, image)
            if mapping is not None:
                return EmbeddingWitness(mapping)
    return None


def is_free(host: Graph | PlaneGraph, pattern: Graph) -> bool:
    """True when the host contains no copy of the pattern."""
    return contains_subgraph(host, pattern) is None


def is_free_of_all(host: Graph | PlaneGraph, patterns: tuple[Graph, ...]) -> bool:
    return all(is_free(host, p) for p in patterns)


def brute_force_contains(
    host: Graph | PlaneGraph, pattern: Graph
) -> EmbeddingWitness | None:
    """Independent oracle: try every injective vertex map in lexicographic
    order.  Exponential; meant for cross-checking the kernel on hosts with
    at most ~9 vertices.  Shares no code with the backtracking search.
    """
    hg = _host_graph(host)
    if pattern.n > hg.n:
        return None
    pattern_edges = sorted(pattern.edges)
    for image in permutations(range(hg.n), pattern.n):
        if all(
            normalize_edge(image[a], image[b]) in hg.edges
            for a, b in pattern_edges
        ):
            return EmbeddingWitness(tuple(image))
    return None


def isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test for graphs of equal order and size.

    With n and m equal, an injective edge-preserving map is a bijection
    that uses up every host edge, i.e. an isomorphism — so the containment
    kernel doubles as the isomorphism decider after cheap invariant checks.
    """
    if g.n != h.n or g.m != h.m:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return contains_subgraph(h, g) is not None
