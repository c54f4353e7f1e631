"""The acceptance gate: one test per release criterion, in order.

Run ``pytest -v tests/test_acceptance.py`` to get exactly one pass/fail
line per criterion.  All checks are exact (integer or rational); the
runtime figures quoted in the docstrings are expectations for orientation,
not asserted limits — this suite must stay correct on a slow single-core
box, where the whole gate finishes in a few minutes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import KNOWN_MAX_EDGES, PATTERNS
from triblock.blocks import decompose
from triblock.catalog import CATALOG_LABELS, catalog_plane_graph
from triblock.constructions import verify_extremal
from triblock.contribution import (
    THETA6_1_SPEC,
    THETA6_2_SPEC,
    edge_contribution,
    face_contribution,
    form_clusters,
)
from triblock.oracle import is_planar
from triblock.patterns import (
    THETA6_1,
    THETA6_2,
    brute_force_contains,
    contains_subgraph,
    is_free,
    theta_family,
)
from triblock.plane_graph import PlaneGraph, build_plane_graph, Graph


def _permuted(pg: PlaneGraph, perm: list[int]) -> PlaneGraph:
    rotations: list[list[int]] = [[] for _ in range(pg.n)]
    for v in range(pg.n):
        rotations[perm[v]] = [perm[w] for w in pg.rotation[v]]
    return build_plane_graph(pg.n, rotations)


def test_acceptance_1_extremal_equality():
    """Criterion 1: the constructed family attains the theta6-1 bound.

    For k = 0, 1, 2 the instance must have exactly 170k+70 vertices and
    450k+180 edges, be theta6-1-free, certify with every cluster at g = 0,
    and satisfy 17m = 45(n-2) on the nose.  Exact arithmetic throughout.
    Expected runtime: under 30 s total (largest instance n = 410).
    """
    for k in (0, 1, 2):
        report = verify_extremal(k)
        assert (report.n, report.m) == (170 * k + 70, 450 * k + 180), k
        assert report.pattern_free, k
        assert report.all_g_zero, k
        assert report.bound_equality, k
        assert report.failures == () and report.ok, k


def test_acceptance_2_bbar_cluster_arithmetic(bbar_gadget):
    """Criterion 2: cluster bookkeeping on the 7-vertex BBar gadget.

    The decomposition must yield one B5c plus four trivial B2 blocks, all
    five must merge into a single BBar cluster, and that cluster's g must
    be exactly -21 under theta6-1 and exactly -6 under theta6-2.
    Expected runtime: well under 1 s.
    """
    dec = decompose(bbar_gadget)
    assert len(dec.blocks) == 5
    assert len(dec.by_label("B5c")) == 1
    assert len(dec.by_label("B2")) == 4
    for spec, expected in ((THETA6_1_SPEC, -21), (THETA6_2_SPEC, -6)):
        clusters = form_clusters(bbar_gadget, dec, spec)
        assert len(clusters) == 1, spec.name
        (cluster,) = clusters
        assert cluster.kind == "bbar"
        assert len(cluster.block_ids) == 5
        assert cluster.g_c == Fraction(expected), spec.name


def test_acceptance_3_identity_suite(corpus):
    """Criterion 3: the contribution identities hold exactly, corpus-wide.

    On every corpus graph (all catalog graphs, all constructed instances,
    all oracle witnesses, plus the systematic small plane graphs — at
    least 200 in total) the blocks' edge contributions must sum to m, the
    face contributions must sum to |F(G)|, and Euler's formula must hold
    for the accepted embedding.  Expected runtime: under 1 min.
    """
    assert len(corpus) >= 200
    for name, pg in corpus:
        assert pg.n - pg.m + pg.face_count == 2, name
        dec = decompose(pg)
        e_total = sum(edge_contribution(b) for b in dec.blocks)
        assert e_total == pg.m, name
        f_total = sum(face_contribution(pg, b) for b in dec.blocks)
        assert f_total == pg.face_count, name


def test_acceptance_4_theorem_regression_desk_scale(oracle_results):
    """Criterion 4: exhaustive maxima at n = 6, 7, 8 respect both bounds.

    The recomputed values v = ex_P(n, pattern) must satisfy
    17v <= 45(n-2) for theta6-1 and 7v <= 18(n-2) for theta6-2, and every
    recorded witness must re-verify as connected, planar, and free of its
    pattern.  Tightness is asymptotic only — no desk-scale value attains
    equality (the first equality instances are the n = 70k+70 family of
    criterion 1) — so this property check is the substitute for it.
    Expected runtime: about half a minute single-core, nearly all of it
    in the shared oracle fixture.
    """
    for n in (6, 7, 8):
        v1 = oracle_results[n, "theta6-1"].max_edges
        v2 = oracle_results[n, "theta6-2"].max_edges
        assert v1 == KNOWN_MAX_EDGES[n, "theta6-1"]
        assert v2 == KNOWN_MAX_EDGES[n, "theta6-2"]
        assert 17 * v1 <= 45 * (n - 2)
        assert 7 * v2 <= 18 * (n - 2)
        # strictly below both lines: equality is out of reach at desk scale
        assert 17 * v1 < 45 * (n - 2)
        assert 7 * v2 < 18 * (n - 2)
    for (n, name), result in sorted(oracle_results.items()):
        pattern = PATTERNS[name]
        assert result.witnesses, (n, name)
        for edges in result.witnesses:
            g = Graph.from_edges(n, edges)
            assert g.m == result.max_edges, (n, name)
            assert g.is_connected(), (n, name)
            assert is_planar(g), (n, name)
            assert is_free(g, pattern), (n, name)


def test_acceptance_5_nonpositivity(corpus):
    """Criterion 5: per-cluster nonpositivity on every pattern-free host.

    For every connected corpus graph with n >= 6 that is free of a target
    pattern (the oracle witnesses at n = 6, 7, 8 included), every cluster
    formed under that target must have g <= 0.  A single positive cluster
    anywhere fails the build.  Expected runtime: under 2 min.

    The hosts that need more than BBar are K5 minus an edge with a pendant
    vertex hanging into one of its faces: theta6-2-free n = 6 maxima, so
    oracle witnesses.  Alone, their B5a block scores f = 5 + 3/5 = 28/5 and
    g = 18*(28/5) - 11*9 = 9/5 > 0; the bridge-absorption cluster rule
    merges it with the pendant bridge into one cluster at g = -2.  See the
    README's acceptance notes.
    """
    checked = 0
    violations: list[str] = []
    for name, pg in corpus:
        if pg.n < 6:
            continue
        dec = None
        for spec in (THETA6_1_SPEC, THETA6_2_SPEC):
            if not is_free(pg, spec.pattern):
                continue
            if dec is None:
                dec = decompose(pg)
            for cluster in form_clusters(pg, dec, spec):
                if cluster.g_c > 0:
                    labels = ",".join(
                        dec.blocks[i].label for i in cluster.block_ids
                    )
                    violations.append(
                        f"{name} [{spec.name}] cluster({labels}): "
                        f"e={cluster.e_c} f={cluster.f_c} g={cluster.g_c}"
                    )
            checked += 1
    # the freeness filter must not silently empty the sweep
    assert checked >= 100, checked
    assert not violations, "positive clusters on pattern-free hosts:\n" + "\n".join(
        violations
    )


def test_acceptance_6_catalog_fidelity():
    """Criterion 6: every catalog shape round-trips through the classifier.

    Decomposing the standard embedding of each of the nine catalog graphs
    must return exactly one block, classified as that label, and the label
    must not change under random vertex relabelings of the embedding.
    Expected runtime: under 5 s.
    """
    rng = random.Random(62026)
    assert len(CATALOG_LABELS) == 9
    for label in CATALOG_LABELS:
        pg = catalog_plane_graph(label)
        dec = decompose(pg)
        assert len(dec.blocks) == 1, label
        assert dec.blocks[0].label == label
        for _ in range(5):
            perm = list(range(pg.n))
            rng.shuffle(perm)
            dec2 = decompose(_permuted(pg, perm))
            assert len(dec2.blocks) == 1, label
            assert dec2.blocks[0].label == label, label


def test_acceptance_7_subgraph_engine_equivalence(corpus):
    """Criterion 7: the matching kernel agrees with brute-force search.

    On every corpus host with at most 8 vertices, and every pattern in
    {theta(4,2), theta(5,2), theta6-1, theta6-2}, contains_subgraph must
    return the same verdict as plain injective-map enumeration.
    Expected runtime: under 2 min.
    """
    patterns = (
        list(theta_family(4)) + list(theta_family(5)) + [THETA6_1, THETA6_2]
    )
    assert len(patterns) == 4
    hosts = [(name, pg) for name, pg in corpus if pg.n <= 8]
    assert len(hosts) >= 40, len(hosts)
    for name, pg in hosts:
        for pattern in patterns:
            fast = contains_subgraph(pg, pattern) is not None
            slow = brute_force_contains(pg, pattern) is not None
            assert fast == slow, (name, pattern.n, pattern.m)
