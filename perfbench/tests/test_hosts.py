import random

import networkx as nx
import triblock as tb

import hosts


def test_same_seed_same_hosts():
    assert hosts.make_hosts(7, 12) == hosts.make_hosts(7, 12)
    assert hosts.make_hosts(7, 12) != hosts.make_hosts(8, 12)


def test_hosts_are_connected_plane_graphs_of_the_stated_shape():
    pool = hosts.make_hosts(3, 16)
    # one host from each of 16 equal slices of the size range
    assert len({h.n for h in pool}) == 16
    for host in pool:
        assert hosts.N_MIN <= host.n <= hosts.N_MAX
        g = nx.Graph(host.edges)
        assert g.number_of_nodes() == host.n and nx.is_connected(g)
        assert len(host.edges) <= 3 * host.n - 6
        pg = tb.parse_planegraph(host.text)
        assert pg.graph.edges == frozenset(host.edges)


def test_undeleted_hosts_are_triangulations():
    host = hosts.make_host(30, 0.0, random.Random(0))
    assert len(host.edges) == 3 * 30 - 6
