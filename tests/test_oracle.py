from __future__ import annotations

import os
import random

import pytest

from conftest import KNOWN_MAX_EDGES, PATTERNS, systematic_graphs
from triblock import oracle
from triblock.oracle import (
    CapExceeded,
    canonical_edges,
    is_planar,
    max_edges,
    planar_by_embedding_search,
)
from triblock.patterns import THETA6_1, THETA6_2, is_free
from triblock.plane_graph import Graph

K5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
K33 = Graph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
K6 = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])


def test_planarity_of_the_standard_examples():
    assert not is_planar(K5)
    assert not is_planar(K33)
    assert is_planar(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]))


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


def test_canonical_edges_documents_its_budget_fallback():
    # A long cycle is vertex-transitive: one class of 12 vertices, 12!
    # relabelings, over budget — the identity labeling comes back as is.
    c12 = Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)])
    assert canonical_edges(c12) == tuple(sorted(c12.edges))


def test_result_json_shape(oracle_results):
    result = oracle_results[6, "theta6-1"]
    data = result.to_json_dict()
    assert data["n"] == 6
    assert data["pattern"] == "theta6-1"
    assert data["max_edges"] == 10
    assert data["witness_count"] == len(data["witnesses"])
    assert data["elapsed_seconds"] == round(result.elapsed, 3)
    assert data["level_sizes"][0] == 1
