from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from triblock import patterns
from triblock.catalog import CATALOG_LABELS, catalog_graph
from triblock.constructions import build_skeleton, substitute_b5a
from triblock.patterns import (
    KERNEL_NAME,
    THETA6_1,
    THETA6_2,
    brute_force_contains,
    contains_subgraph,
    contains_subgraph_using_edge,
    cycle_graph,
    is_free,
    is_free_of_all,
    isomorphic,
    theta_family,
    theta_pattern,
)
from triblock.plane_graph import Graph


def test_theta_shape():
    for k in range(4, 10):
        for d in range(2, k // 2 + 1):
            t = theta_pattern(k, d)
            assert (t.n, t.m) == (k, k + 1)
            assert t.degree_sequence() == (3, 3) + (2,) * (k - 2)
            assert t.has_edge(0, d)


def test_theta_rejects_bad_parameters():
    with pytest.raises(ValueError):
        theta_pattern(3, 2)
    with pytest.raises(ValueError):
        theta_pattern(6, 1)
    with pytest.raises(ValueError):
        theta_pattern(6, 4)


def test_theta_family_sizes():
    assert len(theta_family(4)) == 1
    assert len(theta_family(5)) == 1
    assert len(theta_family(6)) == 2
    assert len(theta_family(9)) == 3


def test_the_two_theta6_variants_are_not_isomorphic():
    assert not isomorphic(THETA6_1, THETA6_2)
    assert isomorphic(THETA6_1, theta_pattern(6, 3))


def test_cycle_contains_no_theta():
    c6 = cycle_graph(6)
    assert is_free(c6, THETA6_1)
    assert is_free(c6, THETA6_2)
    assert is_free_of_all(c6, (THETA6_1, THETA6_2))


def test_chord_distance_is_detected_exactly():
    long_chord = Graph.from_edges(6, list(cycle_graph(6).edges) + [(0, 3)])
    short_chord = Graph.from_edges(6, list(cycle_graph(6).edges) + [(0, 2)])
    assert contains_subgraph(long_chord, THETA6_1) is not None
    assert is_free(long_chord, THETA6_2)
    assert contains_subgraph(short_chord, THETA6_2) is not None
    assert is_free(short_chord, THETA6_1)


def test_b6_contains_only_the_short_chord_variant():
    b6 = catalog_graph("B6")
    assert is_free(b6, THETA6_1)
    assert contains_subgraph(b6, THETA6_2) is not None


def test_witness_is_valid():
    host = catalog_graph("B5a")
    for pattern in (theta_pattern(4, 2), theta_pattern(5, 2)):
        witness = contains_subgraph(host, pattern)
        assert witness is not None
        assert witness.is_valid(host, pattern)


def test_witness_rejects_broken_mappings():
    host = cycle_graph(4)
    pattern = cycle_graph(3)
    from triblock.patterns import EmbeddingWitness

    assert not EmbeddingWitness((0, 1, 2)).is_valid(host, pattern)
    assert not EmbeddingWitness((0, 0, 1)).is_valid(host, pattern)
    assert not EmbeddingWitness((0, 1)).is_valid(host, pattern)
    assert not EmbeddingWitness((0, 1, 9)).is_valid(host, pattern)


def test_containment_using_edge():
    edges = list(cycle_graph(6).edges) + [(0, 3), (0, 6)]
    host = Graph.from_edges(7, edges)
    hit = contains_subgraph_using_edge(host, THETA6_1, (0, 3))
    assert hit is not None and hit.is_valid(host, THETA6_1)
    assert contains_subgraph_using_edge(host, THETA6_1, (6, 0)) is None
    for not_an_edge in ((1, 4), (0, -1), (0, 7), (7, 0), (-1, 0)):
        with pytest.raises(ValueError):
            contains_subgraph_using_edge(host, THETA6_1, not_an_edge)


def copy_uses_edge(host: Graph, pattern: Graph, edge: tuple[int, int]) -> bool:
    """Reference for anchored containment that shares no code with the
    kernel: pin every pattern arc onto the edge in turn, then place the
    other pattern vertices in id order on every unused host vertex that is
    adjacent to the images of their placed neighbors."""
    adj = host.adjacency()
    pattern_adj = pattern.adjacency()

    def extend(image: dict[int, int]) -> bool:
        if len(image) == pattern.n:
            return True
        q = min(set(range(pattern.n)) - image.keys())
        for w in set(range(host.n)) - set(image.values()):
            if all(image[r] in adj[w] for r in pattern_adj[q] if r in image):
                image[q] = w
                if extend(image):
                    return True
                del image[q]
        return False

    u, v = edge
    return any(
        extend({a: u, b: v}) or extend({b: u, a: v}) for a, b in pattern.edges
    )


def test_anchored_search_agrees_with_a_reference_on_random_hosts():
    rng = random.Random(2024)
    patterns = (THETA6_1, THETA6_2, cycle_graph(4), cycle_graph(5), *theta_family(7))
    verdicts = set()
    for n in range(6, 12):
        for _ in range(5):
            p = rng.choice((0.25, 0.4, 0.55))
            host = Graph.from_edges(
                n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
            )
            for pattern in patterns:
                for edge in sorted(host.edges):
                    hit = contains_subgraph_using_edge(host, pattern, edge)
                    found = hit is not None
                    assert found == copy_uses_edge(host, pattern, edge), (
                        sorted(host.edges), sorted(pattern.edges), edge
                    )
                    verdicts.add(found)
                    if found:
                        mp = hit.mapping
                        assert hit.is_valid(host, pattern)
                        assert any({mp[a], mp[b]} == set(edge) for a, b in pattern.edges)
    assert verdicts == {True, False}


def test_kernel_agrees_with_brute_force_on_catalog():
    patterns = [theta_pattern(4, 2), theta_pattern(5, 2), THETA6_1, THETA6_2]
    for label in ("B3", "B4a", "B4b", "B5a", "B5c", "B6"):
        host = catalog_graph(label)
        for pattern in patterns:
            fast = contains_subgraph(host, pattern)
            slow = brute_force_contains(host, pattern)
            assert (fast is None) == (slow is None), (label, pattern.edges)
            if fast is not None:
                assert fast.is_valid(host, pattern)


def test_kernel_name_names_the_loaded_backend():
    assert KERNEL_NAME == "pure-python"


TWO_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])


def test_ball_search_finds_the_host_wide_witness():
    # The root-ball search must return exactly what one host-wide kernel
    # call returns, including no witness at all.  Within one call a ball
    # that came back empty is not searched again; the memo key holds the
    # root's position in the ball as well as the rows.  In the 6-vertex
    # host below every ball is the whole host, so roots 0 and 1 have equal
    # rows at different positions, and only the search from 1 finds the C4.
    rng = random.Random(77)
    hosts = [substitute_b5a(build_skeleton(k)).graph for k in (0, 1, 2)]
    hosts.append(build_skeleton(1).graph)
    hosts += [catalog_graph(label) for label in CATALOG_LABELS]
    for _ in range(40):
        n = rng.randint(6, 40)
        p = rng.choice((0.1, 0.2, 0.35))
        hosts.append(Graph.from_edges(
            n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        ))
    hosts.append(Graph.from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)]))
    for member in hosts[:3]:
        image = rng.sample(range(member.n), member.n)
        hosts.append(Graph.from_edges(
            member.n, [(image[a], image[b]) for a, b in member.edges]
        ))
        # One extra edge, a chord to a vertex at distance 2: it makes a
        # theta6-1 whose first copy lies past many balls the memo skips.
        adj = member.adjacency()
        v = rng.randrange(member.n // 2, member.n)
        w = rng.choice(sorted({x for u in adj[v] for x in adj[u]} - adj[v] - {v}))
        hosts.append(Graph.from_edges(member.n, [*member.edges, (v, w)]))
    for _ in range(300):
        n = rng.randint(5, 12)
        p = rng.choice((0.3, 0.45, 0.6))
        hosts.append(Graph.from_edges(
            n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        ))
    pattern_list = (THETA6_1, THETA6_2, cycle_graph(4), cycle_graph(5),
                    *theta_family(7), TWO_EDGES)
    verdicts = set()
    for host in hosts:
        for pattern in pattern_list:
            witness = contains_subgraph(host, pattern)
            mapping = None if witness is None else witness.mapping
            expected = patterns._find_embedding(
                patterns._plan(pattern.adjacency(), ()),
                patterns._rows(host.adjacency()),
            )
            assert mapping == expected, (host.n, sorted(host.edges), sorted(pattern.edges))
            verdicts.add(mapping is None)
    assert verdicts == {True, False}


def test_family_balls_are_searched_once_whatever_the_member(monkeypatch):
    # The family repeats one gadget, so its balls take a fixed set of
    # shapes: the kernel runs 21 times at k = 1 and at k = 3.
    hosts = {k: substitute_b5a(build_skeleton(k)) for k in (1, 3)}
    patterns._prepare(THETA6_1.adjacency())  # self-searches are not host searches
    kernel = patterns._find_embedding
    runs = 0

    def counting(*args):
        nonlocal runs
        runs += 1
        return kernel(*args)

    monkeypatch.setattr(patterns, "_find_embedding", counting)
    counts = {}
    for k, host in hosts.items():
        runs = 0
        assert is_free(host, THETA6_1)
        counts[k] = runs
    assert counts == {1: 21, 3: 21}, counts


def test_ball_keeps_only_outer_vertices_with_enough_inner_neighbors(monkeypatch):
    # theta6-1 rooted at a chord end: its distance-2 vertices each have two
    # neighbors at distance 1, so the ball around host vertex 0 keeps 2 and
    # 4 (the copy) and 7 (two inner neighbors, no copy), and drops the
    # pendant 6, whose one inner neighbor cannot hold it in a copy.
    host = Graph.from_edges(8, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3),
        (1, 6), (1, 7), (5, 7),
    ])
    assert patterns._prepare(THETA6_1.adjacency()).need == 2
    kernel = patterns._find_embedding
    handed: list[tuple[tuple[int, ...], list[int]]] = []

    def recording(plan, masks, fixed_hosts=(), above=()):
        handed.append((tuple(fixed_hosts), list(masks)))
        return kernel(plan, masks, fixed_hosts, above)

    monkeypatch.setattr(patterns, "_find_embedding", recording)
    witness = contains_subgraph(host, THETA6_1)
    monkeypatch.undo()
    adj = host.adjacency()
    ball = [0, 1, 2, 3, 4, 5, 7]
    rows = [sum(1 << ball.index(w) for w in adj[v] if w in ball) for v in ball]
    assert handed == [((0,), rows)]
    assert witness is not None and witness.mapping == kernel(
        patterns._plan(THETA6_1.adjacency(), ()), patterns._rows(adj)
    )


def test_connected_patterns_never_search_the_whole_host(monkeypatch):
    sizes: list[int] = []
    kernel = patterns._find_embedding

    def recording(plan, masks, fixed_hosts=(), above=()):
        sizes.append(len(masks))
        return kernel(plan, masks, fixed_hosts, above)

    host = substitute_b5a(build_skeleton(2)).graph
    n = host.n
    reversed_host = Graph.from_edges(n, [(n - 1 - a, n - 1 - b) for a, b in host.edges])
    for pattern in (THETA6_1, THETA6_2, cycle_graph(4), TWO_EDGES):
        patterns._prepare(pattern.adjacency())  # self-searches are not host searches
    monkeypatch.setattr(patterns, "_find_embedding", recording)
    for pattern in (THETA6_1, THETA6_2, cycle_graph(4)):
        sizes.clear()
        contains_subgraph(host, pattern)
        assert sizes and host.n not in sizes, sorted(pattern.edges)
        assert max(sizes) < 50
    sizes.clear()
    assert contains_subgraph(host, TWO_EDGES) is not None
    assert sizes == [host.n]
    sizes.clear()
    # Relabeled so that no ball around the first root holds a whole copy.
    assert isomorphic(host, reversed_host)
    assert sizes == [host.n]


def test_kernel_agrees_with_networkx_at_scale():
    # Same verdicts as an unrelated VF2 implementation on a 70-vertex
    # host: free of the long-chord variant, not of the short-chord one.
    import networkx as nx

    from triblock.constructions import build_skeleton, substitute_b5a

    graph = substitute_b5a(build_skeleton(0))
    host = nx.Graph(sorted(graph.graph.edges))
    for pattern, expected in ((THETA6_1, False), (THETA6_2, True)):
        gm = nx.algorithms.isomorphism.GraphMatcher(
            host, nx.Graph(sorted(pattern.edges))
        )
        assert gm.subgraph_is_monomorphic() is expected
        assert (contains_subgraph(graph, pattern) is not None) is expected


def test_containment_refuses_a_host_that_is_not_a_graph():
    with pytest.raises(TypeError, match="expected Graph or PlaneGraph, got str"):
        contains_subgraph("not a graph", THETA6_1)


def test_pattern_larger_than_host_is_never_found():
    assert contains_subgraph(cycle_graph(4), THETA6_1) is None
    assert brute_force_contains(cycle_graph(4), THETA6_1) is None


@given(st.integers(min_value=4, max_value=11), st.data())
def test_theta_contains_itself_and_its_cycle(k: int, data):
    d = data.draw(st.integers(min_value=2, max_value=k // 2))
    t = theta_pattern(k, d)
    assert contains_subgraph(t, cycle_graph(k)) is not None
    witness = contains_subgraph(t, t)
    assert witness is not None and witness.is_valid(t, t)


@given(st.integers(min_value=3, max_value=10))
def test_cycles_are_theta_free(k: int):
    c = cycle_graph(k)
    assert is_free_of_all(c, theta_family(6))


K4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
K23 = Graph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
K13 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def test_root_orbit_is_the_automorphism_orbit_of_the_first_position():
    def orbit(pattern: Graph) -> tuple[int, ...]:
        return patterns._prepare(pattern.adjacency()).orbit

    # The chord ends of a theta are swapped by a reflection; a cycle's
    # vertices are all alike; a star's center is fixed.
    assert orbit(THETA6_1) == (1,)
    assert orbit(THETA6_2) == (1,)
    assert orbit(cycle_graph(4)) == (1, 2, 3)
    assert orbit(K13) == ()
    assert [orbit(t) for t in theta_family(7)] == [(1,), (1,)]


def test_orbit_pruning_keeps_the_witness_of_symmetric_patterns():
    # High-symmetry patterns prune the most; the first witness must still
    # be the host-wide one, and the verdict the brute-force one.
    rng = random.Random(909)
    symmetric = (cycle_graph(4), cycle_graph(6), K4, K23, K13)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(5, 30)
        p = rng.choice((0.15, 0.3, 0.5))
        host = Graph.from_edges(
            n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        )
        for pattern in symmetric:
            witness = contains_subgraph(host, pattern)
            mapping = None if witness is None else witness.mapping
            expected = patterns._find_embedding(
                patterns._plan(pattern.adjacency(), ()),
                patterns._rows(host.adjacency()),
            )
            assert mapping == expected, (n, sorted(host.edges), sorted(pattern.edges))
            if n <= 8:
                assert (brute_force_contains(host, pattern) is None) == (mapping is None)
            verdicts.add(mapping is None)
    assert verdicts == {True, False}


def test_ball_search_keeps_the_root_orbit_above_the_root(monkeypatch):
    host = substitute_b5a(build_skeleton(1)).graph
    kernel = patterns._find_embedding
    cases = [(THETA6_1, (1,)), (cycle_graph(4), (1, 2, 3)), (K13, ())]
    for pattern, orbit in cases:
        assert patterns._prepare(pattern.adjacency()).orbit == orbit
    handed: list[tuple[int, ...]] = []

    def recording(plan, masks, fixed_hosts=(), above=()):
        handed.append(tuple(above))
        return kernel(plan, masks, fixed_hosts, above)

    monkeypatch.setattr(patterns, "_find_embedding", recording)
    for pattern, orbit in cases:
        handed.clear()
        contains_subgraph(host, pattern)
        assert handed and set(handed) == {orbit}, sorted(pattern.edges)


def test_prepare_records_radius_orbit_and_anchored_plans():
    prepared = {
        "THETA6_1": patterns._prepare(THETA6_1.adjacency()),
        "THETA6_2": patterns._prepare(THETA6_2.adjacency()),
        "C4": patterns._prepare(cycle_graph(4).adjacency()),
        "K13": patterns._prepare(K13.adjacency()),
        "TWO_EDGES": patterns._prepare(TWO_EDGES.adjacency()),
    }
    assert {name: p.radius for name, p in prepared.items()} == {
        "THETA6_1": 2, "THETA6_2": 2, "C4": 2, "K13": 1, "TWO_EDGES": None,
    }
    assert [prepared[name].orbit for name in ("THETA6_1", "THETA6_2", "C4", "K13")] == [
        (1,), (1,), (1, 2, 3), (),
    ]
    assert {name: p.need for name, p in prepared.items()} == {
        "THETA6_1": 2, "THETA6_2": 1, "C4": 2, "K13": 1, "TWO_EDGES": None,
    }
    assert patterns._prepare(K23.adjacency()).need == 3
    assert len(prepared["THETA6_1"].anchored) == 4
    assert len(prepared["THETA6_2"].anchored) == 7
    for name, pattern in (("THETA6_1", THETA6_1), ("THETA6_2", THETA6_2)):
        assert prepared[name].plan == patterns._plan(pattern.adjacency(), ())


K15 = Graph.from_edges(6, [(0, i) for i in range(1, 6)])


def test_pattern_needing_more_degree_than_the_host_has_is_not_found():
    # No vertex of the skeleton or of a small random host has degree 5, so
    # no star K1,5 fits, whether the search runs per root ball or host-wide.
    skeleton = build_skeleton(0).graph
    assert max(skeleton.degree_sequence()) < 5
    assert contains_subgraph(skeleton, K15) is None
    assert patterns._find_embedding(
        patterns._plan(K15.adjacency(), ()), patterns._rows(skeleton.adjacency())
    ) is None
    rng = random.Random(5)
    verdicts = set()
    anchored_verdicts = set()
    for _ in range(40):
        n = rng.randint(6, 8)
        host = Graph.from_edges(
            n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.45]
        )
        witness = contains_subgraph(host, K15)
        assert (witness is None) == (brute_force_contains(host, K15) is None)
        assert (witness is None) == (max(host.degree_sequence()) < 5)
        verdicts.add(witness is None)
        # Anchored on each edge, the kernel itself must say no where the
        # edge's ends lack the degree.
        for edge in sorted(host.edges):
            found = contains_subgraph_using_edge(host, K15, edge) is not None
            assert found == copy_uses_edge(host, K15, edge), (sorted(host.edges), edge)
            anchored_verdicts.add(found)
    assert verdicts == {True, False}
    assert anchored_verdicts == {True, False}
