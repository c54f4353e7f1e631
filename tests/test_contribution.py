from __future__ import annotations

import dataclasses
import gc
import pickle
import random
import warnings
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    embed,
    fan_graph,
    grid_graph,
    k5_minus_edge_with_pendant,
    wheel_graph,
)
from drawing import from_coordinates
import triblock.contribution as contribution
from triblock.blocks import DecompositionError, decompose
from triblock.catalog import catalog_plane_graph
from triblock.contribution import (
    THETA6_1_SPEC,
    THETA6_2_SPEC,
    BoundSpec,
    Cluster,
    ClusterConflict,
    DecompositionAnomaly,
    MalformedNeighborhood,
    TooSmall,
    certify,
    certify_decomposition,
    edge_contribution,
    face_contribution,
    form_clusters,
    format_rational,
    g_eval,
    get_spec,
)
from triblock.patterns import THETA6_1, THETA6_2, cycle_graph
from triblock.plane_graph import Graph, PlaneGraph, parse_planegraph


def attach_polygons(
    corners: list[tuple[float, float]],
    extra_edges: list[tuple[int, int]],
    extra: int,
) -> PlaneGraph:
    """A convex block drawn around the origin, with an (extra+2)-gon glued
    outside every hull edge, so each boundary edge of the block lies on a
    face of known length."""
    coords = {i: p for i, p in enumerate(corners)}
    k = len(corners)
    edges = [(i, (i + 1) % k) for i in range(k)] + list(extra_edges)
    nxt = k
    for i in range(k):
        (ax, ay), (bx, by) = corners[i], corners[(i + 1) % k]
        if extra == 2:
            chain = [
                (1.6 * (0.8 * ax + 0.2 * bx), 1.6 * (0.8 * ay + 0.2 * by)),
                (1.6 * (0.2 * ax + 0.8 * bx), 1.6 * (0.2 * ay + 0.8 * by)),
            ]
        else:
            chain = [
                (1.6 * (0.75 * ax + 0.25 * bx), 1.6 * (0.75 * ay + 0.25 * by)),
                (1.0 * (ax + bx), 1.0 * (ay + by)),
                (1.6 * (0.25 * ax + 0.75 * bx), 1.6 * (0.25 * ay + 0.75 * by)),
            ]
        ids = list(range(nxt, nxt + len(chain)))
        for vid, p in zip(ids, chain):
            coords[vid] = p
        edges.append((i, ids[0]))
        edges.extend(zip(ids, ids[1:]))
        edges.append((ids[-1], (i + 1) % k))
        nxt += len(chain)
    return from_coordinates(coords, edges)


def ring(k: int, radius: float = 1.0, turn: float = 0.0) -> list[tuple[float, float]]:
    import math

    return [
        (
            radius * math.cos(2 * math.pi * i / k + turn),
            radius * math.sin(2 * math.pi * i / k + turn),
        )
        for i in range(k)
    ]


@pytest.fixture()
def decompose_calls(monkeypatch: pytest.MonkeyPatch) -> list[PlaneGraph]:
    """Every graph that `certify` decomposes while the test runs."""
    calls: list[PlaneGraph] = []

    def counting(pg: PlaneGraph):
        calls.append(pg)
        return decompose(pg)

    monkeypatch.setattr(contribution, "decompose", counting)
    return calls


def main_block_g(pg: PlaneGraph, label: str, spec: BoundSpec) -> Fraction:
    dec = decompose(pg)
    (block,) = dec.by_label(label)
    return g_eval(spec, edge_contribution(block), face_contribution(pg, block))


def test_trivial_edge_between_two_squares():
    pg = embed(grid_graph(2, 3))
    dec = decompose(pg)
    block = dec.block_of_edge((1, 4))
    assert edge_contribution(block) == 1
    assert face_contribution(pg, block) == Fraction(1, 2)
    assert g_eval(THETA6_1_SPEC, Fraction(1), Fraction(1, 2)) == Fraction(-11, 2)


def test_b3_among_squares():
    pg = attach_polygons(ring(3), [], extra=2)
    assert main_block_g(pg, "B3", THETA6_1_SPEC) == Fraction(-21, 4)


def test_b4b_among_squares():
    corners = [(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, -1.0)]
    pg = attach_polygons(corners, [(0, 2)], extra=2)
    assert main_block_g(pg, "B4b", THETA6_1_SPEC) == Fraction(-5)


def test_b5b_among_pentagons():
    # The 4-wheel (hub 0, rim 1..4) with a pentagon glued outside every
    # rim edge: f_B = 4 interior triangles + 4 * (1/5).
    corners = ring(4, turn=0.4)
    coords = {v + 1: p for v, p in enumerate(corners)}
    coords[0] = (0.0, 0.0)
    edges = [(v + 1, (v + 1) % 4 + 1) for v in range(4)]
    edges += [(0, v) for v in range(1, 5)]
    nxt = 5
    for i in range(4):
        (ax, ay), (bx, by) = corners[i], corners[(i + 1) % 4]
        chain = [
            (1.6 * (0.75 * ax + 0.25 * bx), 1.6 * (0.75 * ay + 0.25 * by)),
            (1.0 * (ax + bx), 1.0 * (ay + by)),
            (1.6 * (0.25 * ax + 0.75 * bx), 1.6 * (0.25 * ay + 0.75 * by)),
        ]
        ids = list(range(nxt, nxt + 3))
        for vid, p in zip(ids, chain):
            coords[vid] = p
        edges.append((i + 1, ids[0]))
        edges.extend(zip(ids, ids[1:]))
        edges.append((ids[-1], (i + 1) % 4 + 1))
        nxt += 3
    pg = from_coordinates(coords, edges)
    dec = decompose(pg)
    (block,) = dec.by_label("B5b")
    assert edge_contribution(block) == 8
    assert face_contribution(pg, block) == Fraction(24, 5)
    assert main_block_g(pg, "B5b", THETA6_1_SPEC) == Fraction(-8)


def test_b5d_among_squares():
    pg = attach_polygons(ring(5, turn=0.2), [(0, 2), (0, 3)], extra=2)
    assert main_block_g(pg, "B5d", THETA6_1_SPEC) == Fraction(-19, 4)


def test_b6_among_squares():
    pg = attach_polygons(ring(6, turn=0.1), [(0, 2), (2, 4), (0, 4)], extra=2)
    assert main_block_g(pg, "B6", THETA6_1_SPEC) == Fraction(-9, 2)


def test_b5a_inside_the_extremal_family():
    from triblock.constructions import build_skeleton, substitute_b5a

    pg = substitute_b5a(build_skeleton(0))
    dec = decompose(pg)
    block = dec.blocks[0]
    assert block.label == "B5a"
    assert edge_contribution(block) == 9
    assert face_contribution(pg, block) == Fraction(28, 5)
    assert g_eval(THETA6_1_SPEC, Fraction(9), Fraction(28, 5)) == 0


def test_bbar_cluster_arithmetic(bbar_gadget: PlaneGraph):
    dec = decompose(bbar_gadget)
    assert sorted(b.label for b in dec.blocks) == ["B2", "B2", "B2", "B2", "B5c"]
    for spec, expected in ((THETA6_1_SPEC, -21), (THETA6_2_SPEC, -6)):
        clusters = form_clusters(bbar_gadget, dec, spec)
        assert len(clusters) == 1
        (cluster,) = clusters
        assert cluster.kind == "bbar"
        assert len(cluster.block_ids) == 5
        assert cluster.e_c == 12
        assert cluster.f_c == 7
        assert cluster.g_c == expected


def test_bbar_cluster_with_merged_apexes(bbar_merged: PlaneGraph):
    dec = decompose(bbar_merged)
    assert sorted(b.label for b in dec.blocks) == ["B2", "B2", "B5c"]
    for spec, expected in ((THETA6_1_SPEC, -10), (THETA6_2_SPEC, -2)):
        clusters = form_clusters(bbar_merged, dec, spec)
        (cluster,) = clusters
        assert cluster.kind == "bbar"
        assert len(cluster.block_ids) == 3
        assert cluster.e_c == 10
        assert cluster.f_c == 6
        assert cluster.g_c == expected


def test_standalone_b5c_stays_a_singleton_with_warning():
    # Both side faces of the lone B5c are the boundary 4-cycle itself —
    # almost the BBar shape but with no outside apex.  That cannot happen
    # inside a certified host, so the refusal is flagged; the block stays
    # a singleton with the positive g that absorption would normally fix.
    pg = catalog_plane_graph("B5c")
    dec = decompose(pg)
    with pytest.warns(MalformedNeighborhood):
        clusters = form_clusters(pg, dec, THETA6_1_SPEC)
    assert [c.kind for c in clusters] == ["singleton"]
    assert clusters[0].g_c == Fraction(1)


def test_positive_b5a_absorbs_the_bridge_in_its_face():
    pg = embed(k5_minus_edge_with_pendant())
    dec = decompose(pg)
    clusters = form_clusters(pg, dec, THETA6_2_SPEC)
    (cluster,) = clusters
    assert cluster.kind == "bridged"
    assert [dec.blocks[i].label for i in cluster.block_ids] == ["B5a", "B2"]
    assert cluster.e_c == 10
    assert cluster.f_c == 6
    # the whole host's beta*m - alpha*(n-2) = 7*10 - 18*4
    assert cluster.g_c == Fraction(-2)


def test_bridge_absorption_leaves_nonpositive_blocks_alone():
    # Under theta6-1 the same B5a scores exactly 0, so it keeps its
    # singleton and the bridge stays on its own.
    pg = embed(k5_minus_edge_with_pendant())
    dec = decompose(pg)
    clusters = form_clusters(pg, dec, THETA6_1_SPEC)
    assert [c.kind for c in clusters] == ["singleton", "singleton"]
    b5a, bridge = clusters
    assert dec.blocks[b5a.block_ids[0]].label == "B5a"
    assert (b5a.e_c, b5a.f_c, b5a.g_c) == (9, Fraction(28, 5), 0)
    assert (bridge.e_c, bridge.f_c, bridge.g_c) == (1, Fraction(2, 5), -10)


def test_certify_on_the_bbar_gadget(bbar_gadget: PlaneGraph):
    cert = certify(bbar_gadget, THETA6_1_SPEC, freeness_checked=True)
    assert cert.identities_ok
    assert cert.all_nonpositive
    assert cert.bound_holds
    assert cert.violations == ()
    assert cert.anomalies == ()
    assert cert.freeness_checked is True
    data = cert.to_json_dict()
    assert data["spec"] == "theta6-1"
    assert data["clusters"][0]["g"] == "-21/1"


def test_certify_rejects_tiny_graphs(decompose_calls: list[PlaneGraph]):
    with pytest.raises(TooSmall, match=r"^certify needs n >= 6, got n=5$"):
        certify(catalog_plane_graph("B5c"), THETA6_1_SPEC)
    assert decompose_calls == []  # refused before decomposing


def test_certify_reports_violations_without_raising():
    from conftest import antiprism_graph

    octahedron = embed(antiprism_graph(3))
    cert = certify(octahedron, THETA6_1_SPEC)
    assert not cert.all_nonpositive
    assert not cert.bound_holds
    assert len(cert.violations) == 1
    # the single all-triangle block owns every face outright
    (cluster,) = cert.clusters
    assert cluster.e_c == 12
    assert cluster.f_c == 8
    assert cluster.g_c == Fraction(24)


def test_identities_on_mixed_graphs():
    from conftest import systematic_graphs
    from triblock.catalog import CATALOG_LABELS

    sample = [(f"catalog-{l}", catalog_plane_graph(l)) for l in CATALOG_LABELS]
    sample += [(name, embed(g)) for name, g in systematic_graphs()[:30]]
    for name, pg in sample:
        dec = decompose(pg)
        assert sum(edge_contribution(b) for b in dec.blocks) == pg.m, name
        assert (
            sum(face_contribution(pg, b) for b in dec.blocks) == pg.face_count
        ), name


def test_get_spec_and_bound_spec_validation():
    assert get_spec("theta6-1") is THETA6_1_SPEC
    assert get_spec("theta6-2") is THETA6_2_SPEC
    with pytest.raises(KeyError):
        get_spec("theta6-9")
    with pytest.raises(ValueError):
        BoundSpec("theta6-1", 44, 17, THETA6_1)
    with pytest.raises(ValueError):
        BoundSpec("anything", 45, 17, THETA6_1)
    # The right numbers with a wrong pattern.
    with pytest.raises(ValueError):
        BoundSpec("theta6-1", 45, 17, THETA6_2)
    with pytest.raises(ValueError):
        BoundSpec("theta6-2", 18, 7, cycle_graph(4))


def test_g_coefficients():
    assert THETA6_1_SPEC.g_coefficients() == (45, 28)
    assert THETA6_2_SPEC.g_coefficients() == (18, 11)


def test_format_rational():
    assert format_rational(Fraction(-21)) == "-21/1"
    assert format_rational(Fraction(28, 5)) == "28/5"
    assert Fraction("28/5") == Fraction(28, 5)


@given(
    st.fractions(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50),
)
def test_g_eval_is_the_documented_linear_form(e: Fraction, f: Fraction):
    for spec in (THETA6_1_SPEC, THETA6_2_SPEC):
        alpha, edge_coeff = spec.alpha, spec.alpha - spec.beta
        assert g_eval(spec, e, f) == alpha * f - edge_coeff * e


@given(st.integers(min_value=3, max_value=10))
def test_identities_on_wheels(k: int):
    pg = embed(wheel_graph(k))
    dec = decompose(pg)
    assert sum(edge_contribution(b) for b in dec.blocks) == pg.m
    assert sum(face_contribution(pg, b) for b in dec.blocks) == pg.face_count


@given(st.integers(min_value=2, max_value=10))
def test_identities_on_fans(k: int):
    pg = embed(fan_graph(k))
    dec = decompose(pg)
    assert sum(edge_contribution(b) for b in dec.blocks) == pg.m
    assert sum(face_contribution(pg, b) for b in dec.blocks) == pg.face_count


def test_certify_records_unchecked_freeness():
    pg = embed(cycle_graph(6))
    cert = certify(pg, THETA6_2_SPEC)
    assert cert.freeness_checked is None
    assert cert.all_nonpositive and cert.bound_holds


def random_plane_hosts(count: int, rng: random.Random) -> list[PlaneGraph]:
    """Stacked triangulations on 6..40 vertices, each edge then deleted
    with probability p unless that disconnects the graph (so bridges and
    faces of many lengths occur)."""
    out = []
    for i in range(count):
        n = rng.randint(6, 40)
        edges = {(0, 1), (1, 2), (0, 2)}
        faces = [(0, 1, 2), (0, 2, 1)]
        for v in range(3, n):
            a, b, c = faces.pop(rng.randrange(len(faces)))
            faces += [(a, b, v), (b, c, v), (c, a, v)]
            edges |= {(a, v), (b, v), (c, v)}
        p = (0.0, 0.2, 0.4, 0.55)[i % 4]
        for edge in sorted(edges):
            rest = edges - {edge}
            if rng.random() < p and Graph.from_edges(n, rest).is_connected():
                edges = rest
        out.append(embed(Graph.from_edges(n, edges)))
    return out


def bbar_between_unequal_faces() -> PlaneGraph:
    """The BBar gadget's B5c and apexes w=5, v=6, with w and v joined by a
    path round each side: a 5-face on the left, a 6-face on the right.  So
    the absorbed cross edges carry shares over 4 and 5 or over 4 and 6."""
    coords = {
        0: (-2.0, 0.0), 1: (0.0, 1.0), 2: (2.0, 0.0), 3: (0.0, -1.0),
        4: (0.0, 0.4), 5: (0.0, 2.5), 6: (0.0, -2.5),
        7: (-3.0, 1.5), 8: (-3.0, -1.5),
        9: (3.0, 2.0), 10: (4.0, 0.0), 11: (3.0, -2.0),
    }
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (0, 2),
        (0, 5), (2, 5), (0, 6), (2, 6),
        (5, 7), (7, 8), (8, 6), (5, 9), (9, 10), (10, 11), (11, 6),
    ]
    return from_coordinates(coords, edges)


def test_integer_ledger_matches_the_fraction_formula(
    bbar_gadget: PlaneGraph, constructed_instances
):
    """Recompute every cluster's e, f and g, and both identity sums, from
    one ``Fraction(steps, dart_count)`` per outer face, independently of
    the integer ledger in the module."""
    from triblock.catalog import CATALOG_LABELS

    hosts = [catalog_plane_graph(label) for label in CATALOG_LABELS]
    hosts += [pg for name, pg in constructed_instances if name.startswith("extremal")]
    hosts += [bbar_gadget, bbar_between_unequal_faces(), embed(k5_minus_edge_with_pendant())]
    hosts += random_plane_hosts(50, random.Random(20261019))
    kinds = set()
    for pg in hosts:
        dec = decompose(pg)
        f_of = [
            len(b.interior_faces)
            + sum(Fraction(steps, len(pg.faces[fid])) for fid, steps in b.outer_faces)
            for b in dec.blocks
        ]
        for spec in (THETA6_1_SPEC, THETA6_2_SPEC):
            with warnings.catch_warnings():  # a lone B5c is reported, not raised
                warnings.simplefilter("ignore", DecompositionAnomaly)
                clusters = form_clusters(pg, dec, spec)
            e_sum = f_sum = Fraction(0)
            positive = []
            for i, c in enumerate(clusters):
                e = Fraction(sum(len(dec.blocks[b].edges) for b in c.block_ids))
                f = sum((f_of[b] for b in c.block_ids), Fraction(0))
                g = spec.alpha * f - (spec.alpha - spec.beta) * e
                assert (c.e_c, c.f_c, c.g_c) == (e, f, g)
                assert all(type(x) is Fraction for x in (c.e_c, c.f_c, c.g_c))
                e_sum += e
                f_sum += f
                if g > 0:
                    positive.append(i)
                kinds.add(c.kind)
            assert (e_sum, f_sum) == (pg.m, pg.face_count)
            if pg.n >= 6:
                cert = certify(pg, spec)
                assert cert.identities_ok
                assert cert.violations == tuple(positive)
                assert cert.clusters == tuple(clusters)
        for b in dec.blocks:
            assert face_contribution(pg, b) == f_of[b.id]
            assert type(face_contribution(pg, b)) is Fraction
    assert kinds == {"singleton", "bbar", "bridged"}


#: Host 80 of ``perfbench/hosts.make_hosts(3, 200)``: its one B5c (block 3)
#: sees two 4-faces that differ, which certify reports as an anomaly.
MALFORMED_HOST = """\
planegraph 1
15 31
0: 12 13
1: 10 6 11 5 13 4 2 8 9
2: 1 4 10 9
3: 12 10
4: 2 1 13
5: 11 6 1
6: 13 5 11 1 10 12 7 14
7: 12 14 6
8: 9 1
9: 2 1 8
10: 13 12 3 6 1 2
11: 1 6 5
12: 10 0 7 6 3
13: 6 14 0 10 4 1
14: 7 13 6
"""
MALFORMED_ANOMALY = (
    "MalformedNeighborhood: block 3: 4-faces across (6, 10) and (1, 10) differ"
)


def test_certify_shares_one_ledger_between_targets(
    bbar_gadget: PlaneGraph, bbar_merged: PlaneGraph, constructed_instances
):
    """Either target first, each certificate (anomalies included) equals
    the one built from a decomposition of its own."""
    from conftest import systematic_graphs

    hosts = [bbar_gadget, bbar_merged, bbar_between_unequal_faces()]
    hosts += [embed(k5_minus_edge_with_pendant()), parse_planegraph(MALFORMED_HOST)]
    hosts += [pg for name, pg in constructed_instances if name.startswith("extremal")]
    hosts += [embed(g) for _, g in systematic_graphs() if g.n >= 6]
    kinds, anomalies = set(), set()
    for host in hosts:
        expected = {
            spec.name: certify_decomposition(host, decompose(host), spec)
            for spec in (THETA6_1_SPEC, THETA6_2_SPEC)
        }
        for order in ((THETA6_1_SPEC, THETA6_2_SPEC), (THETA6_2_SPEC, THETA6_1_SPEC)):
            pg = PlaneGraph(host.n, host.rotation)  # not yet seen by certify
            for spec in order:
                cert = certify(pg, spec)
                assert cert.to_json_dict() == expected[spec.name].to_json_dict()
                assert cert.anomalies == expected[spec.name].anomalies
                kinds.update(c.kind for c in cert.clusters)
                anomalies.update(cert.anomalies)
    assert kinds == {"singleton", "bbar", "bridged"}
    assert MALFORMED_ANOMALY in anomalies


def test_certify_decomposes_once_for_both_targets(decompose_calls):
    pg = parse_planegraph(MALFORMED_HOST)
    for spec in (THETA6_1_SPEC, THETA6_2_SPEC, THETA6_1_SPEC):
        assert certify(pg, spec).anomalies == (MALFORMED_ANOMALY,)
    assert decompose_calls == [pg]


def test_the_ledger_dies_with_its_graph():
    pg = parse_planegraph(MALFORMED_HOST)
    certify(pg, THETA6_1_SPEC)
    ref = weakref.ref(pg)
    del pg
    gc.collect()
    assert ref() is None


def test_an_unpickled_graph_starts_without_a_ledger(decompose_calls):
    pg = parse_planegraph(MALFORMED_HOST)
    certify(pg, THETA6_1_SPEC)
    copy = pickle.loads(pickle.dumps(pg))
    assert certify(copy, THETA6_2_SPEC) == certify(pg, THETA6_2_SPEC)
    assert decompose_calls == [pg, copy]


def test_a_failed_ledger_build_caches_nothing(
    bbar_gadget: PlaneGraph, decompose_calls, monkeypatch: pytest.MonkeyPatch
):
    def broken(pg, block):
        raise DecompositionError("frame refused")

    with monkeypatch.context() as patch:
        patch.setattr(contribution, "canonical_b5c_frame", broken)
        with pytest.raises(DecompositionError, match="frame refused"):
            certify(bbar_gadget, THETA6_1_SPEC)
    cert = certify(bbar_gadget, THETA6_1_SPEC)
    assert [c.kind for c in cert.clusters] == ["bbar"]
    assert decompose_calls == [bbar_gadget, bbar_gadget]


def test_form_clusters_warns_on_every_call():
    pg = parse_planegraph(MALFORMED_HOST)
    certify(pg, THETA6_1_SPEC)
    dec = decompose(pg)
    for spec in (THETA6_1_SPEC, THETA6_1_SPEC, THETA6_2_SPEC):
        with pytest.warns(MalformedNeighborhood) as caught:
            form_clusters(pg, dec, spec)
        assert [f"MalformedNeighborhood: {w.message}" for w in caught] == [
            MALFORMED_ANOMALY
        ]


def test_certify_decomposition_refuses_another_graphs_blocks(decompose_calls):
    pg = embed(wheel_graph(7))
    with pytest.raises(DecompositionError, match="identities failed"):
        certify_decomposition(pg, decompose(embed(wheel_graph(6))), THETA6_1_SPEC)
    assert decompose_calls == []  # it neither read nor filled the cache
    assert certify(pg, THETA6_1_SPEC).identities_ok
    assert decompose_calls == [pg]


def cluster_rows(cert) -> list[tuple]:
    return [tuple(c.to_json_dict().values()) for c in cert.clusters]


#: Host 102 of ``perfbench/hosts.make_hosts(3, 200)``.  Under theta6-2 its
#: Other block (1) and its B4a (3) are both positive and share the one
#: bridge (0) on their faces: block 1 absorbs it, so block 3 finds no free
#: bridge left and stays a positive singleton.
SHARED_BRIDGE_HOST = """\
planegraph 1
13 27
0: 12
1: 8 6
2: 6 10 5 4 11
3: 7 6 9
4: 5 12 2
5: 12 4 2 10 6 8 9
6: 2 12 9 3 7 1 8 5 10
7: 9 8 6 3
8: 7 5 6 1
9: 5 7 3 6 12
10: 5 2 6
11: 12 2
12: 6 11 4 5 9 0
"""


def test_a_positive_block_whose_bridges_are_taken_stays_a_singleton():
    pg = parse_planegraph(SHARED_BRIDGE_HOST)
    dec = decompose(pg)
    assert [b.label for b in dec.blocks] == [
        "B2", "Other", "B2", "B4a", "B2", "B2", "B2"
    ]
    cert = certify(pg, THETA6_2_SPEC)
    assert cert.anomalies == ()
    assert cert.violations == (2,)
    assert cluster_rows(cert) == [
        ("bridged", [0, 1], "17/1", "207/20", "-7/10"),
        ("singleton", [2], "1/1", "1/2", "-2/1"),
        ("singleton", [3], "6/1", "37/10", "3/5"),
        ("singleton", [4], "1/1", "9/20", "-29/10"),
        ("singleton", [5], "1/1", "1/2", "-2/1"),
        ("singleton", [6], "1/1", "1/2", "-2/1"),
    ]
    # Under theta6-1 neither block is positive, so nothing is absorbed.
    assert [c.kind for c in certify(pg, THETA6_1_SPEC).clusters] == [
        "singleton"
    ] * 7


#: Two B5c blocks, each with its BBar neighbourhood, that share one cross
#: edge: the B5c 0..4 with apexes 5 and 6, and the B5c 5, 7, 8, 9, 10 with
#: apexes 0 and 11.  The edge (0, 5) is trivial block 1, absorbed by the
#: first group, so the second B5c (block 6) falls back to a singleton.
CONFLICT_HOST = """\
planegraph 1
12 23
0: 6 3 2 4 1 5 7
1: 0 4 2
2: 3 6 5 1 4 0
3: 2 0
4: 0 2 1
5: 8 0 2 11 10 7 9
6: 2 0
7: 0 8 9 5 10 11
8: 5 9 7
9: 8 5 7
10: 7 5
11: 7 5
"""
CONFLICT_ANOMALY = (
    "ClusterConflict: block 6: trivial blocks [1] already belong to other "
    "clusters; falling back to a singleton"
)


def test_a_trivial_block_claimed_by_two_b5cs_goes_to_the_first():
    pg = parse_planegraph(CONFLICT_HOST)
    dec = decompose(pg)
    assert [b.label for b in dec.blocks].count("B5c") == 2
    with pytest.warns(ClusterConflict) as caught:
        form_clusters(pg, dec, THETA6_1_SPEC)
    assert [f"ClusterConflict: {w.message}" for w in caught] == [CONFLICT_ANOMALY]
    expected = {
        THETA6_1_SPEC: ("-129/4", "-37/4", "1/1"),
        THETA6_2_SPEC: ("-21/2", "-7/2", "2/1"),
    }
    for spec, (g_bbar, g_edge, g_b5c) in expected.items():
        cert = certify(pg, spec)
        assert cert.anomalies == (CONFLICT_ANOMALY,)
        assert cert.violations == (2,)
        assert cluster_rows(cert) == [
            ("bbar", [0, 1, 2, 4, 5], "12/1", "27/4", g_bbar),
            ("singleton", [3], "1/1", "5/12", g_edge),
            ("singleton", [6], "8/1", "5/1", g_b5c),
            ("singleton", [7], "1/1", "5/12", g_edge),
            ("singleton", [8], "1/1", "5/12", g_edge),
        ]


#: The BBar gadget with one more vertex, 7, joined to 0 and to the apex 5:
#: the cross edge (0, 5) now lies on the 3-face 0-5-7, in a B3.
CROSS_EDGE_HOST = """\
planegraph 1
8 14
0: 6 3 2 4 1 5 7
1: 0 4 2
2: 3 6 5 1 4 0
3: 2 0
4: 0 2 1
5: 7 0 2
6: 2 0
7: 0 5
"""
CROSS_EDGE_ANOMALY = (
    "MalformedNeighborhood: block 0: cross edge (0, 5) is not a trivial block "
    "(got B3)"
)


def test_a_cross_edge_inside_a_larger_block_refuses_the_bbar():
    pg = parse_planegraph(CROSS_EDGE_HOST)
    expected = {
        THETA6_1_SPEC: ("1/1", "-39/4", "-31/4"),
        THETA6_2_SPEC: ("2/1", "-33/10", "-29/10"),
    }
    for spec, (g_b5c, g_b3, g_edge) in expected.items():
        cert = certify(pg, spec)
        assert cert.anomalies == (CROSS_EDGE_ANOMALY,)
        assert cert.violations == (0,)
        assert cluster_rows(cert) == [
            ("singleton", [0], "8/1", "5/1", g_b5c),
            ("singleton", [1], "3/1", "33/20", g_b3),
            ("singleton", [2], "1/1", "9/20", g_edge),
            ("singleton", [3], "1/1", "9/20", g_edge),
            ("singleton", [4], "1/1", "9/20", g_edge),
        ]


def test_a_cluster_built_from_fractions_equals_one_built_from_pairs(
    bbar_gadget: PlaneGraph,
):
    (cluster,) = certify(bbar_gadget, THETA6_1_SPEC).clusters
    doctored = dataclasses.replace(cluster, g_c=Fraction(1, 5))
    assert doctored.g_c == Fraction(1, 5)
    assert (doctored.e_c, doctored.f_c) == (cluster.e_c, cluster.f_c) == (12, 7)
    assert doctored != cluster
    assert dataclasses.replace(doctored, g_c=cluster.g_c) == cluster
    # Equality reads the values, not the pairs behind them.
    ids = cluster.block_ids
    assert Cluster("bbar", ids, (12, 1), (7, 1), (-21, 1)) == cluster
    assert Cluster("bbar", ids, (24, 2), (105, 15), (-315, 15)) == cluster
    assert (
        Cluster("bbar", ids, Fraction(12), Fraction(7), Fraction(-21)) == cluster
    )
