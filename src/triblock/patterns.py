"""Theta patterns and subgraph containment.

Containment here is plain subgraph containment (not induced): a pattern is
contained in a host when some injective vertex map sends every pattern edge
to a host edge.  Extra host edges between image vertices are irrelevant.

The search is one backtracking kernel (`_find_embedding`) that tries host
candidates in ascending vertex order, so the first witness is
deterministic: it is the least assignment sequence, compared position by
position in the plan's order.  A host is handed to the kernel as plain
rows, a list holding the neighbors of each vertex as an integer bitmask,
so each candidate step is a few integer operations.  A `_Plan` holds the
pattern side: the assignment order and the earlier neighbors of each
position.

`contains_subgraph` does not hand the kernel the whole host when the
pattern is connected.  Every vertex of a copy lies within distance
r = ecc(first vertex of the plan) of the host vertex at position 0, so it
loops over the host vertices in ascending order as roots, builds the rows
of a ball around each root (relabeled to 0..b-1 in ascending order, with
the induced edges), and runs the kernel on them with position 0 pinned to
the root.  A ball holds every copy rooted there, and relabeling keeps the
order of its vertices, so the first witness is the one the host-wide
search finds.  On a planar host of bounded degree, such as the extremal
family, the balls have bounded size and the search takes time linear in n
(the locality argument of Eppstein, "Subgraph isomorphism in planar graphs
and related problems", JGAA 1999), where host-wide n-bit masks made a
no-match search grow as n squared.  Disconnected and edgeless patterns,
and `isomorphic`, whose two graphs have equal order, search the whole
host.

The ball is the host vertices at distance less than r from the root, plus
those at distance exactly r that have at least ``need`` neighbors at
distance r - 1, where ``need`` is the least number of neighbors at
pattern distance r - 1 of a pattern vertex at pattern distance r (2 for
theta6-1, 1 for theta6-2, which keeps the whole radius-r ball).  This
drops no copy: a copy maps edges to edges, so a pattern vertex at pattern
distance d lands at host distance at most d, and a host vertex at
distance exactly r can only be the image of a pattern vertex at pattern
distance r.  That vertex has at least ``need`` distinct neighbors at
pattern distance r - 1, whose images are distinct host neighbors at
distance at most r - 1, that is at exactly r - 1.  So a dropped vertex
lies in no copy rooted at that root, and the first witness is unchanged.
On the extremal family a theta6-1 ball holds about 7 vertices, where the
whole radius-2 ball holds 21.

Each call also remembers the balls it searched in vain, keyed by the
root's position in the ball and the ball's rows, and does not search an
equal ball again.  This is exact: the kernel is a deterministic function
of the plan, the rows, the pinned position and the positions kept above
it, all in ball-local coordinates, so an equal key gives an equal answer
and the first witness is unchanged.  A hit ends the call, so only empty
balls are kept, and only for that call: there is no cache across calls.
It pays on hosts built from repeated pieces: the extremal family's
theta6-1 balls take 21 shapes at every k >= 1, so a theta6-1 search of
the k = 40 member (n = 6870) runs the kernel 21 times, not 6870.  On a
randomly relabeled host the same balls no longer have equal rows, so
every key misses and the memo only costs its keys.

The ball search also breaks the pattern's symmetry at the root, the
standard device of subgraph enumeration (Grochow & Kellis, "Network motif
discovery using subgraph enumeration and symmetry-breaking", RECOMB 2007):
the plan positions in the automorphism orbit of the plan's first vertex
may only take ball vertices greater than the root.  An anchored search
(`contains_subgraph_using_edge`) pins each pattern arc onto the new host
edge in turn, host-wide, but skips an arc that a pattern automorphism maps
an earlier searched arc onto.  `_prepare` gives both restrictions, and why
each keeps the first witness.

Each pattern is prepared once (`_prepare`, a cache of at most 64
patterns): its plan, its radius and ``need`` (None when it is disconnected
or has no edge), its root orbit and its anchored plans.  `isomorphic`
builds only a plan (`_plan`, not cached), so the graphs it compares get no
orbits computed for nothing.

The public entry points take graphs; plans and rows stay inside this
module.  The exhaustive oracle asks its freeness and isomorphism questions
through `contains_subgraph_using_edge` and `isomorphic`, like any caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, permutations
from typing import Collection, Iterable, NamedTuple, Sequence

from .plane_graph import Graph, PlaneGraph, _edge_rows, _layers

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
    """All theta graphs on a k-cycle, one per chord distance; k >= 4."""
    if k < 4:
        raise ValueError(f"theta patterns need a cycle of length >= 4, got k={k}")
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
        adj = _host_adjacency(host)
        mp = self.mapping
        if len(mp) != pattern.n or len(set(mp)) != len(mp):
            return False
        if any(not 0 <= v < host.n for v in mp):
            return False
        return all(mp[b] in adj[mp[a]] for a, b in pattern.edges)


def _host_adjacency(host: Graph | PlaneGraph) -> Sequence[Collection[int]]:
    """The neighbors of each host vertex: a plane host's rotation rows, so
    no abstract `Graph` is built for it, or a graph's neighbor sets."""
    if isinstance(host, PlaneGraph):
        return host.rotation
    if isinstance(host, Graph):
        return host.adjacency()
    raise TypeError(f"expected Graph or PlaneGraph, got {type(host).__name__}")


def _order(adj: Sequence[Collection[int]], fixed: tuple[int, ...]) -> tuple[int, ...]:
    """Assignment order: fixed seeds first, then greedily the vertex with
    the most already-placed neighbors (ties: higher degree, lower id)."""
    order = list(fixed)
    placed_nbrs = [0] * len(adj)
    for v in fixed:
        for w in adj[v]:
            placed_nbrs[w] += 1
    rest = [v for v in range(len(adj)) if v not in fixed]
    while rest:
        best = max(rest, key=lambda v: (placed_nbrs[v], len(adj[v]), -v))
        rest.remove(best)
        order.append(best)
        for w in adj[best]:
            placed_nbrs[w] += 1
    return tuple(order)


class _Plan(NamedTuple):
    """The pattern side of one search: the assignment order, and for each
    position the earlier positions holding pattern neighbors."""

    order: tuple[int, ...]
    earlier: tuple[tuple[int, ...], ...]


def _plan(adj: Sequence[Collection[int]], fixed: tuple[int, ...]) -> _Plan:
    order = _order(adj, fixed)
    pos_of = [0] * len(order)
    for i, pv in enumerate(order):
        pos_of[pv] = i
    earlier = tuple(
        tuple(j for j in (pos_of[w] for w in adj[pv]) if j < i)
        for i, pv in enumerate(order)
    )
    return _Plan(order, earlier)


def _rows(adj: Sequence[Iterable[int]]) -> list[int]:
    """Whole-host rows: the neighbors of each vertex v as an integer
    bitmask, with vertex w as bit w."""
    return [sum(1 << w for w in nbrs) for nbrs in adj]


def _host_rows(host: Graph | PlaneGraph) -> list[int]:
    """Whole-host rows, read off a graph's edges, so that no neighbor sets
    are built for a graph searched once, or off a plane host's rotation."""
    if not isinstance(host, Graph):
        return _rows(_host_adjacency(host))
    return _edge_rows(host.n, host.edges)


def _find_embedding(
    plan: _Plan,
    masks: list[int],
    fixed_hosts: Sequence[int] = (),
    above: Sequence[int] = (),
) -> tuple[int, ...] | None:
    """Injective edge-preserving map of the pattern into the host whose
    rows are ``masks``.

    ``plan.order`` fixes the assignment sequence of pattern vertices; the
    first ``len(fixed_hosts)`` of them are pinned to the given host
    vertices, and the positions in ``above`` may only take host vertices
    greater than ``fixed_hosts[0]``.  Returns the mapping as a tuple
    indexed by pattern vertex, or None.
    """
    order, earlier = plan
    p = len(order)
    if p == 0:
        return ()
    if p > len(masks):
        return None

    # Static per-position candidate filters: pinning, and the vertices
    # above the first pinned one.
    allowed = [(1 << len(masks)) - 1] * p
    for i, v in enumerate(fixed_hosts):
        allowed[i] = 1 << v
    for i in above:
        allowed[i] &= -2 << fixed_hosts[0]

    cand = [0] * p
    assigned = [0] * p
    used = 0
    last = p - 1

    # Position 0 has no earlier neighbors and nothing is used yet.
    i = 0
    cand[0] = allowed[0]
    while i >= 0:
        c = cand[i]
        if c:
            bit = c & -c
            cand[i] = c ^ bit
            assigned[i] = bit.bit_length() - 1
            if i == last:
                mapping = [0] * p
                for j in range(p):
                    mapping[order[j]] = assigned[j]
                return tuple(mapping)
            used |= bit
            i += 1
            c = allowed[i] & ~used
            for j in earlier[i]:
                c &= masks[assigned[j]]
            cand[i] = c
        else:
            i -= 1
            if i >= 0:
                used ^= 1 << assigned[i]
    return None


class _Pattern(NamedTuple):
    """Everything the searches need from one pattern; see `_prepare`."""

    plan: _Plan
    radius: int | None
    need: int | None
    orbit: tuple[int, ...]
    anchored: tuple[_Plan, ...]


@lru_cache(maxsize=64)
def _prepare(adj: tuple[frozenset[int], ...]) -> _Pattern:
    """The pattern-only work of `contains_subgraph` and
    `contains_subgraph_using_edge`, done once per pattern.

    ``plan`` is the unpinned plan.  ``radius`` is the eccentricity of its
    first vertex, so every vertex of a copy lies within that distance of
    the host vertex at position 0.  ``need`` is the least number of
    neighbors at distance radius - 1 that a pattern vertex at distance
    radius has (2 for theta6-1 and C4, 3 for K2,3, 1 for theta6-2 and the
    stars).  A root ball keeps a host vertex at distance radius only when
    it has that many neighbors one layer in: such a vertex can only be the
    image of a pattern vertex at distance radius, whose distinct neighbors
    one layer in land on distinct inner ball vertices (see the module
    docstring).  Both are None for a pattern that is disconnected or has
    no edge, which is searched host-wide.

    ``orbit`` holds the plan positions after 0 whose pattern vertex a
    pattern automorphism maps the plan's first vertex onto (empty when
    there is no radius).  In the ball search they may only take ball
    vertices greater than the root.  This is exact: roots are tried in
    ascending order, so when the search reaches root r every root w < r
    came back empty, and (by this same argument, from the first root on)
    no copy is rooted at any such w.  A copy rooted at r that put an orbit
    vertex g(first vertex) on some w < r would, composed with the
    automorphism g, be a copy rooted at w, and there is none.  So the
    restriction removes no copy rooted at r, and the first witness is the
    same, hit or no hit.

    ``anchored`` holds one plan per pattern arc worth pinning onto a host
    edge, in search order: the sorted pattern edges, each as (a, b) and
    then (b, a).  An arc that a pattern automorphism maps an earlier kept
    arc onto is left out: a copy anchored on it, composed with that
    automorphism, would be a copy anchored on the earlier arc, whose
    search came back empty.  Pinning the arc (b, a) onto (u, v) is the
    same search as pinning (a, b) onto (v, u): the greedy order after the
    two pinned vertices depends only on which vertices are placed.

    Both kinds of automorphism come from the same kernel, embedding the
    pattern into its own rows with a vertex or an arc pinned; equal order
    and size make any hit one.
    """
    plan = _plan(adj, ())
    itself = _rows(adj)
    anchored: list[_Plan] = []
    edges = sorted((a, b) for a, nbrs in enumerate(adj) for b in nbrs if a < b)
    for a, b in edges:
        for arc in ((a, b), (b, a)):
            if all(_find_embedding(kept, itself, arc) is None for kept in anchored):
                anchored.append(_plan(adj, arc))
    layers = list(_layers(adj, plan.order[0])) if adj else []
    if len(layers) < 2 or sum(map(len, layers)) < len(adj):
        return _Pattern(plan, None, None, (), tuple(anchored))
    inner = set(layers[-2])
    need = min(len(adj[pv] & inner) for pv in layers[-1])
    orbit = tuple(
        i
        for i, pv in enumerate(plan.order)
        if i and _find_embedding(plan, itself, (pv,)) is not None
    )
    return _Pattern(plan, len(layers) - 1, need, orbit, tuple(anchored))


def contains_subgraph(
    host: Graph | PlaneGraph, pattern: Graph
) -> EmbeddingWitness | None:
    """First containment witness in ascending host-vertex order, or None.

    A connected pattern is searched one root ball at a time, with the
    root's automorphism orbit kept above the root (see the module
    docstring); the witness is the one a host-wide search finds.
    """
    host_adj = _host_adjacency(host)
    if pattern.n > host.n or pattern.m > host.m:
        return None
    pattern_adj = pattern.adjacency()
    plan, radius, need, orbit, _ = _prepare(pattern_adj)
    if radius is None:
        mapping = _find_embedding(plan, _rows(host_adj))
        return None if mapping is None else EmbeddingWitness(mapping)
    root_degree = len(pattern_adj[plan.order[0]])
    slot = [0] * host.n  # nonzero on the current ball: 1 while it grows, then its bit
    empty: set[tuple[int, ...]] = set()  # (root position, *rows) searched in vain
    for root in range(host.n):
        if len(host_adj[root]) < root_degree:
            continue
        layers = list(islice(_layers(host_adj, root), radius))
        ball = list(chain.from_iterable(layers))
        for v in ball:
            slot[v] = 1
        # The outer layer, each vertex once per neighbor in the last inner
        # layer; sorted, a run of `need` equal entries keeps a vertex.
        reach = [w for u in layers[-1] for w in host_adj[u] if not slot[w]]
        reach.sort()
        ball += {w for w, x in zip(reach, reach[need - 1:]) if w == x}
        ball.sort()
        for i, v in enumerate(ball):
            slot[v] = 1 << i
        # A sum of distinct bits is their bitwise or.
        masks = [sum(map(slot.__getitem__, host_adj[v])) for v in ball]
        for v in ball:
            slot[v] = 0
        at = ball.index(root)
        key = (at, *masks)
        if key in empty:
            continue
        mapping = _find_embedding(plan, masks, (at,), orbit)
        if mapping is None:
            empty.add(key)
        else:
            return EmbeddingWitness(tuple(ball[i] for i in mapping))
    return None


def contains_subgraph_using_edge(
    host: Graph | PlaneGraph, pattern: Graph, edge: tuple[int, int]
) -> EmbeddingWitness | None:
    """Containment witness whose image uses the given host edge.

    The workhorse of incremental freeness checking: when a host known to be
    pattern-free gains one edge, any new pattern copy must use that edge.
    Each of the pattern's anchored plans (`_prepare`) is searched in turn,
    host-wide, with its two pinned positions on the edge's ends.
    """
    masks = _host_rows(host)
    if pattern.n > host.n or pattern.m > host.m:
        return None
    u, v = edge
    if not (0 <= u < host.n and 0 <= v and masks[u] >> v & 1):
        raise ValueError(f"({u}, {v}) is not a host edge")
    for plan in _prepare(pattern.adjacency()).anchored:
        mapping = _find_embedding(plan, masks, edge)
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
    adj = _host_adjacency(host)
    if pattern.n > host.n:
        return None
    pattern_edges = sorted(pattern.edges)
    for image in permutations(range(host.n), pattern.n):
        if all(image[b] in adj[image[a]] for a, b in pattern_edges):
            return EmbeddingWitness(tuple(image))
    return None


def isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test for graphs of equal order and size.

    With n and m equal, an injective edge-preserving map is a bijection
    that uses up every host edge, i.e. an isomorphism — so the containment
    kernel doubles as the isomorphism decider after cheap invariant checks.

    ``g`` is the side planned and ``h`` the side searched, host-wide: with
    equal order, a root ball is at best the whole graph.
    """
    if g.n != h.n or g.m != h.m:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    plan = _plan(g.adjacency(), ())
    return _find_embedding(plan, _host_rows(h)) is not None
