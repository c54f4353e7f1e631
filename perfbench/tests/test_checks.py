"""Every output check accepts a correct op and rejects a doctored one."""

import dataclasses
from fractions import Fraction

import pytest
import triblock as tb

import hosts
import workloads


def op(workload, value):
    return workloads.run_stages(workload.stages, value)[0]


def test_family_certify_check():
    wl = workloads.FamilyCertify()
    pg, free, cert = op(wl, 0)
    assert wl.check(0, (pg, free, cert)) == []
    assert wl.check(1, (pg, free, cert))  # counts of another member
    assert wl.check(0, (pg, False, cert))
    bad = dataclasses.replace(cert.clusters[0], g_c=Fraction(1, 5))
    assert wl.check(0, (pg, free, dataclasses.replace(
        cert, clusters=(bad,) + cert.clusters[1:])))
    assert wl.check(0, (pg, free, dataclasses.replace(
        cert, clusters=cert.clusters[1:])))


@pytest.fixture(scope="module")
def sweep5():
    return op(workloads.OracleSweep(), 5)


def test_oracle_check_accepts_the_sweep(sweep5):
    assert workloads.OracleSweep().check(5, sweep5) == []


@pytest.mark.parametrize("level", range(10))
def test_oracle_check_rejects_a_level_size_off_by_one(sweep5, level):
    sizes = list(sweep5.level_sizes)
    sizes[level] += 1
    doctored = dataclasses.replace(sweep5, level_sizes=tuple(sizes))
    assert workloads.OracleSweep().check(5, doctored)


def test_oracle_check_rechecks_witnesses(sweep5):
    k5 = tuple((u, v) for u in range(5) for v in range(u + 1, 5))
    doctored = dataclasses.replace(sweep5, witnesses=(k5,))
    assert workloads.OracleSweep().check(5, doctored)
    wl = workloads.OracleSweep()
    k33 = tuple((u, v) for u in range(3) for v in range(3, 6))
    assert wl._witness_problems(6, k33, 9) == [f"witness {k33} is not planar"]
    wheel = tuple(sorted([(0, i) for i in range(1, 7)]
                         + [(i, i % 6 + 1) for i in range(1, 7)]))
    assert wl._witness_problems(7, wheel, 12) == [
        f"witness {wheel} contains theta6-2"]


def test_random_hosts_check():
    wl = workloads.RandomHosts()
    host = hosts.make_hosts(5, 4)[0]
    pg, results = op(wl, host)
    assert wl.check(host, (pg, results)) == []
    witness, cert = next((w, c) for w, c in results if w is not None)
    i = results.index((witness, cert))
    edges = set(host.edges)
    u = witness.mapping[0]
    non_neighbor = next(v for v in range(host.n)
                        if v != u and tuple(sorted((u, v))) not in edges
                        and v not in witness.mapping)
    mapping = (non_neighbor,) + witness.mapping[1:]
    doctored = list(results)
    doctored[i] = (tb.EmbeddingWitness(mapping), cert)
    assert wl.check(host, (pg, doctored))
    unbound = dataclasses.replace(cert, bound_holds=False)
    doctored[i] = (None, unbound)
    assert wl.check(host, (pg, doctored))
