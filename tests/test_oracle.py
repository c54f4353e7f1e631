from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    KNOWN_LEVEL_SIZES,
    KNOWN_MAX_EDGES,
    PATTERNS,
    graph_atlas,
    systematic_graphs,
)
from triblock import oracle
from triblock.oracle import (
    CapExceeded,
    canonical_edges,
    is_planar,
    max_edges,
    planar_by_embedding_search,
)
from triblock.patterns import (
    THETA6_1,
    THETA6_2,
    contains_subgraph_using_edge,
    is_free,
    isomorphic,
)
from triblock.plane_graph import Graph

K5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
K33 = Graph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
K6 = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])


def test_importing_the_package_leaves_networkx_unloaded():
    # Only the oracle's planarity test uses networkx, and it loads it then.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, triblock; print('networkx' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


def test_planarity_of_the_standard_examples():
    assert not is_planar(K5)
    assert not is_planar(K33)
    assert is_planar(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]))


def _kuratowski_variants() -> list[Graph]:
    """K5 and K3,3 with one edge subdivided, with a pendant edge, and with
    isolated vertices added: all non-planar."""
    out = []
    for g in (K5, K33):
        (u, v), n = min(g.edges), g.n
        out.append(Graph.from_edges(n + 1, (g.edges - {(u, v)}) | {(u, n), (v, n)}))
        out.append(Graph.from_edges(n + 1, g.edges | {(0, n)}))
        out.append(Graph(n + 2, g.edges))
    return out


def _networkx_graph(g: Graph):
    """``g`` as a networkx graph, isolated vertices included."""
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    return nxg


def _networkx_planar(g: Graph) -> bool:
    import networkx as nx

    return nx.check_planarity(_networkx_graph(g))[0]


def test_is_planar_agrees_with_networkx(monkeypatch):
    graphs = graph_atlas() + [K5, K33] + _kuratowski_variants()
    assert len(graphs) == 1253 + 2 + 6
    verdicts = {g: _networkx_planar(g) for g in graphs}
    assert [verdicts[g] for g in _kuratowski_variants()] == [False] * 6
    for g, planar in verdicts.items():
        assert is_planar(g) == planar, sorted(g.edges)

    # `Graph.is_connected` on every atlas graph, and the embedding search,
    # component by component, on the disconnected ones it answers within a
    # small budget.  The null graph counts as disconnected (256 + 1).
    import networkx as nx

    disconnected = answered = 0
    for g in graphs[:1253]:
        connected = g.n > 0 and nx.is_connected(_networkx_graph(g))
        assert g.is_connected() == connected, (g.n, sorted(g.edges))
        if not connected:
            disconnected += 1
            verdict = planar_by_embedding_search(g, budget=1000)
            if verdict is not None:
                answered += 1
                assert verdict == verdicts[g], (g.n, sorted(g.edges))
    assert (disconnected, answered) == (257, 229)

    # A graph with fewer than 5 vertices of degree >= 4 and fewer than 6 of
    # degree >= 3 is decided by that count alone: networkx is never called.
    def refuse(g: Graph):
        raise AssertionError(f"networkx called on {sorted(g.edges)}")

    monkeypatch.setattr(oracle, "_check_planarity", refuse)
    # The edge bounds on the 2-core refuse K5 and K3,3, alone, with a
    # pendant edge and with isolated vertices.
    variants = _kuratowski_variants()
    for g in (K5, K33, variants[1], variants[2], variants[4], variants[5]):
        assert not is_planar(g), sorted(g.edges)
    decided = 0
    for g in graphs:
        degrees = g.degree_sequence()
        if sum(d >= 4 for d in degrees) < 5 and sum(d >= 3 for d in degrees) < 6:
            assert is_planar(g)
            decided += 1
    assert 0 < decided < len(graphs)


def test_two_core_matches_networkx_on_the_graph_atlas():
    import networkx as nx

    for g in graph_atlas():
        core = oracle._two_core(oracle._edge_rows(g.n, g.edges))
        expected = set(nx.k_core(_networkx_graph(g), 2))
        assert {v for v in range(g.n) if core >> v & 1} == expected, g.edges


def test_networkx_decides_few_of_the_sweeps_planarity_calls(monkeypatch):
    # At n = 7, theta6-2, the bounds and the degree count on the 2-core
    # settle 417 of the 423 calls (one per kept representative, and one per
    # witness in the self-audit).
    calls = {"is_planar": 0, "networkx": 0}
    planar, check = oracle.is_planar, oracle._check_planarity

    def counting_is_planar(g: Graph) -> bool:
        calls["is_planar"] += 1
        return planar(g)

    def counting_check(g: Graph):
        calls["networkx"] += 1
        return check(g)

    monkeypatch.setattr(oracle, "is_planar", counting_is_planar)
    monkeypatch.setattr(oracle, "_check_planarity", counting_check)
    result = max_edges(7, THETA6_2, pattern_name="theta6-2", jobs=1)
    assert result.level_sizes == KNOWN_LEVEL_SIZES[7, "theta6-2"][0]
    assert calls == {"is_planar": 423, "networkx": 6}


def test_level_sizes_match_a_count_over_the_graph_atlas():
    # The sweep's level sizes at n = 6 and 7, without the sweep: the atlas
    # graphs on exactly n vertices that networkx finds planar and that
    # contain no copy of the pattern, counted by edge count.
    atlas = [g for g in graph_atlas() if g.n in (6, 7) and _networkx_planar(g)]
    for (n, name), (level_sizes, _) in KNOWN_LEVEL_SIZES.items():
        if n not in (6, 7):
            continue
        counts = Counter(
            g.m for g in atlas if g.n == n and is_free(g, PATTERNS[name])
        )
        assert tuple(counts[m] for m in range(max(counts) + 1)) == level_sizes


def _automorphic_swaps(
    n: int, edges: set[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The vertex pairs u < w whose label swap maps the edge set onto
    itself, found by applying each swap."""
    swaps = []
    for u, w in itertools.combinations(range(n), 2):
        swap = {u: w, w: u}
        image = {tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in edges}
        if image == edges:
            swaps.append((u, w))
    return swaps


def _swap_orbit(
    swaps: list[tuple[int, int]], edge: tuple[int, int]
) -> set[tuple[int, int]]:
    """The orbit of a vertex pair under the group the swaps generate, by
    closure."""
    orbit, frontier = {edge}, [edge]
    while frontier:
        a, b = frontier.pop()
        for u, w in swaps:
            swap = {u: w, w: u}
            image = tuple(sorted((swap.get(a, a), swap.get(b, b))))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


@pytest.fixture(scope="module")
def n6_expansions() -> list[tuple]:
    """(parent, patterns, result) of every `_expand` call of the n = 6
    sweeps, for both patterns."""
    expanded: list[tuple] = []
    expand = oracle._expand

    def recording(parent, n, patterns):
        result = expand(parent, n, patterns)
        expanded.append((parent, patterns, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_expand", recording)
        for name, pattern in PATTERNS.items():
            max_edges(6, pattern, pattern_name=name, jobs=1)
    assert len(expanded) == sum(
        sum(KNOWN_LEVEL_SIZES[6, name][0]) for name in PATTERNS
    )
    return expanded


def _adjacency_key(adj, x: int, y: int) -> tuple[int, int, int]:
    """The edge key `_expand` ranks by, from adjacency sets: the larger and
    the smaller degree of the ends, and their common neighbors."""
    low, high = sorted((len(adj[x]), len(adj[y])))
    return (high, low, len(adj[x] & adj[y]))


def test_row_expansion_matches_the_public_route(n6_expansions):
    # Every parent the n = 6 sweeps expand, expanded again through the
    # public route: one Graph per child, the edge keys read off its
    # adjacency sets, and an anchored containment call.  A survivor grows
    # through a largest edge and is free.  The row route keeps exactly the
    # survivors whose edge is the least of its orbit under the parent's
    # twin swaps; every other survivor is isomorphic to the kept child of
    # its orbit's least edge.
    n = 6
    skipped = outranked = 0
    for parent, patterns, result in n6_expansions:
        present = set(parent)
        survivors = {}
        if len(present) + 1 <= 3 * n - 6:
            for u, v in itertools.combinations(range(n), 2):
                if (u, v) in present:
                    continue
                child = Graph.from_edges(n, present | {(u, v)})
                adj = child.adjacency()
                key = _adjacency_key(adj, u, v)
                if any(_adjacency_key(adj, x, y) > key for x, y in present):
                    outranked += 1
                    continue
                if all(
                    contains_subgraph_using_edge(child, p, (u, v)) is None
                    for p in patterns
                ):
                    survivors[u, v] = tuple(sorted(child.edges))
        swaps = _automorphic_swaps(n, present)
        leader = {edge: min(_swap_orbit(swaps, edge)) for edge in survivors}
        kept = [survivors[e] for e in sorted(survivors) if leader[e] == e]
        assert [tuple(sorted(g.edges)) for g in result] == kept, parent
        for edge, child in survivors.items():
            if leader[edge] != edge:
                skipped += 1
                twin = Graph.from_edges(n, survivors[leader[edge]])
                assert isomorphic(Graph.from_edges(n, child), twin), (parent, edge)
    assert skipped > 0 and outranked > 0


def test_edge_key_is_a_relabeling_invariant_on_the_graph_atlas():
    # On every graph with 3 to 7 vertices, under a random relabeling: the
    # key of an edge is the key of its image, and the row-level key is the
    # one read off the adjacency sets.
    rng = random.Random(23)
    graphs = [g for g in graph_atlas() if g.n >= 3]
    assert len(graphs) == 1249
    keys = set()
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        image = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        rows = oracle._edge_rows(g.n, g.edges)
        image_rows = oracle._edge_rows(g.n, image.edges)
        adj = g.adjacency()
        for x, y in g.edges:
            key = oracle._edge_key(rows, x, y)
            assert key == _adjacency_key(adj, x, y), (sorted(g.edges), x, y)
            assert oracle._edge_key(image_rows, perm[x], perm[y]) == key
            assert oracle._edge_key(rows, y, x) == key
            keys.add(key)
    assert len(keys) == 34


def test_expand_drops_a_child_grown_through_a_smaller_edge(monkeypatch):
    # The path 0-1-2, with vertices 3 and 4 isolated.  Adding 3-4 gives the
    # new edge the key (1, 1, 0), below the key (2, 1, 0) of the parent
    # edge 0-1, so that child is dropped although it is free; closing the
    # triangle 0-1-2 gives every edge the key (2, 2, 1), and is kept.
    parent = ((0, 1), (1, 2))
    rows = oracle._edge_rows(5, (*parent, (3, 4)))
    assert oracle._edge_key(rows, 3, 4) == (1, 1, 0)
    assert oracle._edge_key(rows, 0, 1) == (2, 1, 0)
    assert (3, 4) in oracle._orbit_leaders(oracle._edge_rows(5, parent))
    through_3_4 = ((0, 1), (1, 2), (3, 4))
    triangle = ((0, 1), (0, 2), (1, 2))

    def children() -> list[tuple]:
        return [tuple(sorted(g.edges)) for g in oracle._expand(parent, 5, (THETA6_2,))]

    assert triangle in children() and through_3_4 not in children()
    # With every key equal the same child is kept: the key alone dropped it.
    monkeypatch.setattr(oracle, "_edge_key", lambda rows, x, y: 0)
    assert through_3_4 in children()


def test_few_children_reach_the_deduplication(monkeypatch):
    # At n = 7, theta6-2, growing each class only through a largest edge
    # leaves 580 children for the deduplication, against 2 317 when every
    # free child of every twin orbit leader went there.
    received: list[int] = []
    dedup = oracle._dedup_level

    def counting_dedup(n: int, children):
        received.append(len(children))
        return dedup(n, children)

    monkeypatch.setattr(oracle, "_dedup_level", counting_dedup)
    result = max_edges(7, THETA6_2, pattern_name="theta6-2", jobs=1)
    assert result.level_sizes == KNOWN_LEVEL_SIZES[7, "theta6-2"][0]
    assert sum(received) == 580


def test_twin_orbits_are_exact_on_the_graph_atlas():
    # On every graph with 3 to 7 vertices: the twin classes are exactly the
    # classes of label swaps that are automorphisms, and each orbit of
    # absent edges under those swaps holds exactly one orbit leader.
    graphs = [g for g in graph_atlas() if g.n >= 3]
    assert len(graphs) == 1249
    merged = 0
    for g in graphs:
        rows = oracle._edge_rows(g.n, g.edges)
        classes = oracle._twin_classes(rows)
        assert sorted(v for c in classes for v in c) == list(range(g.n))
        class_of = {v: i for i, c in enumerate(classes) for v in c}
        swaps = _automorphic_swaps(g.n, set(g.edges))
        twins = [
            (u, w)
            for u, w in itertools.combinations(range(g.n), 2)
            if class_of[u] == class_of[w]
        ]
        assert twins == swaps, sorted(g.edges)
        merged += len(classes) < g.n
        leaders = oracle._orbit_leaders(rows)
        absent = {
            e for e in itertools.combinations(range(g.n), 2) if e not in g.edges
        }
        assert set(leaders) <= absent
        while absent:
            orbit = _swap_orbit(swaps, min(absent))
            assert len(orbit & set(leaders)) == 1, (sorted(g.edges), orbit)
            absent -= orbit
    assert 0 < merged < len(graphs)


def test_embedding_search_matches_the_library_test():
    assert planar_by_embedding_search(K5) is False
    assert planar_by_embedding_search(K33) is False
    for name, g in systematic_graphs()[:12]:
        assert planar_by_embedding_search(g) is True, name
        assert is_planar(g), name


def test_embedding_search_gives_up_over_budget():
    # K6 needs (5-1)!**6 rotation systems, far past the default budget.
    assert planar_by_embedding_search(K6) is None
    # K5 needs exactly (4-1)!**5 = 7776, right at the edge.
    assert planar_by_embedding_search(K5, budget=7776) is False
    assert planar_by_embedding_search(K5, budget=7775) is None


def test_frozen_oracle_values(oracle_results):
    for (n, name), result in oracle_results.items():
        assert result.max_edges == KNOWN_MAX_EDGES[n, name], (n, name)
        assert result.level_sizes[result.max_edges] == len(result.witnesses)
        assert result.level_sizes[0] == 1
        assert result.n == n and result.pattern_name == name


def test_frozen_level_sizes_and_explored_counts(oracle_results):
    for key, result in oracle_results.items():
        assert (result.level_sizes, result.explored) == KNOWN_LEVEL_SIZES[key], key


def test_planarity_is_tested_once_per_isomorphism_class(monkeypatch):
    # One call per representative kept at each level (non-planar ones
    # included: K5 plus an isolated vertex or a pendant edge, and K3,3 for
    # theta6-2), plus one per witness in the self-audit.  Testing every
    # candidate child would take 980 and 948 calls.
    tested: list[Graph] = []

    def counting_is_planar(g: Graph) -> bool:
        tested.append(g)
        return is_planar(g)

    monkeypatch.setattr(oracle, "is_planar", counting_is_planar)
    for name, expected in (("theta6-1", 119), ("theta6-2", 114)):
        tested.clear()
        result = max_edges(6, PATTERNS[name], pattern_name=name, jobs=1)
        assert result.level_sizes == KNOWN_LEVEL_SIZES[6, name][0]
        assert len(tested) == expected, name


def test_dedup_compares_each_newcomer_with_its_bucket_representatives(
    monkeypatch,
):
    # The 12 labeled paths and 4 labeled stars on 4 vertices fall into two
    # buckets.  The first of each in sorted edge-tuple order is kept (the
    # star (0, 1), (0, 2), (0, 3) comes first), and each later one is compared
    # once, through `isomorphic`, with the representative of its bucket:
    # 11 + 3 calls, the representative first.
    from itertools import permutations

    compared: list[tuple[Graph, Graph]] = []

    def recording_isomorphic(g: Graph, h: Graph) -> bool:
        compared.append((g, h))
        return isomorphic(g, h)

    monkeypatch.setattr(oracle, "isomorphic", recording_isomorphic)
    path, star = [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)]
    children = [
        Graph.from_edges(4, [(p[u], p[v]) for u, v in edges])
        for edges in (path, star)
        for p in permutations(range(4))
    ]
    reps = oracle._dedup_level(4, children)
    assert [g.degree_sequence() for g in reps] == [(3, 1, 1, 1), (2, 2, 1, 1)]
    assert len(compared) == 14
    assert sum(rep is reps[1] for rep, _ in compared) == 11
    assert all(any(rep is r for r in reps) for rep, _ in compared)
    assert all(rep.degree_sequence() == g.degree_sequence() for rep, g in compared)
    assert {g for _, g in compared} == set(children) - set(reps)


def test_one_pool_serves_the_whole_sweep(monkeypatch):
    # A serial stand-in for multiprocessing.Pool that records each pool
    # opened and, for each level mapped, how many pools were open by then.
    opened: list[int] = []
    mapped: list[int] = []

    class SerialPool:
        def __init__(self, processes: int):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=None):
            mapped.append(len(opened))
            return [fn(item) for item in iterable]

    monkeypatch.setattr(oracle, "Pool", SerialPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    result = max_edges(6, THETA6_1, pattern_name="theta6-1", jobs=2)
    assert result.level_sizes == KNOWN_LEVEL_SIZES[6, "theta6-1"][0]
    assert opened == [2]
    assert len(mapped) > 5 and set(mapped) == {1}


def test_oracle_at_five_vertices_reaches_the_planar_maximum():
    for name, pattern in PATTERNS.items():
        result = max_edges(5, pattern, pattern_name=name)
        assert result.max_edges == 9 == 3 * 5 - 6
        assert len(result.witnesses) == 1


def test_oracle_values_respect_the_proved_bounds(oracle_results):
    for (n, name), result in oracle_results.items():
        if name == "theta6-1":
            assert 17 * result.max_edges <= 45 * (n - 2)
        else:
            assert 7 * result.max_edges <= 18 * (n - 2)


def test_oracle_values_grow_by_at_least_one_per_vertex(oracle_results):
    for name in PATTERNS:
        values = [KNOWN_MAX_EDGES[5, name]] + [
            oracle_results[n, name].max_edges for n in (6, 7, 8)
        ]
        for smaller, larger in zip(values, values[1:]):
            assert larger >= smaller + 1


def test_witnesses_are_planar_free_and_connected(oracle_results):
    for (n, name), result in oracle_results.items():
        pattern = PATTERNS[name]
        for edges in result.witnesses:
            g = Graph.from_edges(n, edges)
            assert g.m == result.max_edges
            assert g.is_connected()
            assert is_planar(g)
            assert is_free(g, pattern)
            assert canonical_edges(g) == edges


def test_witness_lists_are_isomorphism_distinct(oracle_results):
    for result in oracle_results.values():
        assert len(set(result.witnesses)) == len(result.witnesses)


def test_the_augmented_b5c_achieves_the_six_vertex_maximum(
    oracle_results, bbar_merged
):
    g = bbar_merged.graph
    assert g.n == 6 and g.m == 10
    for name in PATTERNS:
        assert canonical_edges(g) in oracle_results[6, name].witnesses


def test_parallel_run_is_deterministic():
    serial = max_edges(6, THETA6_1, pattern_name="theta6-1", jobs=1)
    parallel = max_edges(6, THETA6_1, pattern_name="theta6-1", jobs=2)
    assert serial.max_edges == parallel.max_edges
    assert serial.witnesses == parallel.witnesses
    assert serial.level_sizes == parallel.level_sizes
    assert serial.explored == parallel.explored


def test_jobs_is_clamped_to_the_cpu_count(monkeypatch):
    # The recorder stands in for multiprocessing.Pool and maps serially, so
    # no worker process starts whatever size is requested.
    sizes: list[int] = []

    class SerialPool:
        def __init__(self, processes: int):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=None):
            return [fn(item) for item in iterable]

    monkeypatch.setattr(oracle, "Pool", SerialPool)
    cpus = os.cpu_count() or 1
    result = max_edges(5, THETA6_2, jobs=cpus + 1)
    assert result.max_edges == 9
    assert set(sizes) == ({cpus} if cpus > 1 else set())


def test_pattern_tuple_means_free_of_all():
    result = max_edges(6, (THETA6_1, THETA6_2), pattern_name="both")
    assert result.max_edges == 10
    for edges in result.witnesses:
        g = Graph.from_edges(6, edges)
        assert is_free(g, THETA6_1) and is_free(g, THETA6_2)


def test_cap_guard():
    with pytest.raises(CapExceeded):
        max_edges(9, THETA6_1)
    with pytest.raises(ValueError):
        max_edges(0, THETA6_1)
    with pytest.raises(ValueError):
        max_edges(6, THETA6_1, jobs=0)
    with pytest.raises(ValueError):
        max_edges(6, ())


def test_an_edgeless_pattern_that_fits_is_refused_before_the_sweep(monkeypatch):
    # Every graph on 4 vertices, the empty start graph too, contains the
    # edgeless graph on 2 vertices: there is nothing to sweep.
    monkeypatch.setattr(oracle, "_expand", None)  # the sweep must not start
    message = "pattern 'pattern' has no edges and 2 vertices"
    with pytest.raises(ValueError, match=message):
        max_edges(4, Graph(2, frozenset()))
    with pytest.raises(ValueError, match="pattern 'both' has no edges and 4"):
        max_edges(4, (THETA6_1, Graph(4, frozenset())), pattern_name="both")


def test_canonical_edges_is_a_relabeling_invariant_within_budget():
    rng = random.Random(7)
    small = [(name, g) for name, g in systematic_graphs() if g.n <= 8]
    assert len(small) >= 20
    for name, g in small:
        canon = canonical_edges(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(
            g.n, [(perm[u], perm[v]) for u, v in g.edges]
        )
        assert canonical_edges(relabeled) == canon, name
        assert canonical_edges(Graph.from_edges(g.n, canon)) == canon, name


def test_canonical_edges_refuses_past_its_budget(monkeypatch):
    # A long cycle is vertex-transitive: one class of 12 vertices, 12!
    # relabelings, over budget.  No cheaper answer would be canonical.
    c12 = Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)])
    with pytest.raises(CapExceeded, match="12 vertices needs 479001600"):
        canonical_edges(c12)
    # The same refusal on a small graph, with the budget lowered: C5 has
    # one class of five vertices, 5! = 120 relabelings.
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert canonical_edges(c5) == ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4))
    monkeypatch.setattr(oracle, "_RELABELING_BUDGET", 119)
    with pytest.raises(CapExceeded, match="120 relabelings, over the budget"):
        canonical_edges(c5)


def test_result_json_shape(oracle_results):
    result = oracle_results[6, "theta6-1"]
    data = result.to_json_dict()
    assert data["n"] == 6
    assert data["pattern"] == "theta6-1"
    assert data["max_edges"] == 10
    assert data["witness_count"] == len(data["witnesses"])
    assert data["elapsed_seconds"] == round(result.elapsed, 3)
    assert data["level_sizes"][0] == 1
