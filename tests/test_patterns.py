from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from triblock.catalog import catalog_graph
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
    with pytest.raises(ValueError):
        contains_subgraph_using_edge(host, THETA6_1, (1, 4))


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
    assert KERNEL_NAME in {"compiled", "pure-python"}


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
