"""The benchmark's workloads: what one op does, and how its output is checked.

An op is a chain of named stages; each stage takes the previous stage's
output, and the first takes one of the inputs made by ``setup``.  Every op
mirrors a CLI command and calls only the package's public names through the
``triblock`` namespace, so the tracer sees each call at a layer boundary.
``check`` returns the problems found in one op's output (empty when it is
correct).  Checks run outside the timed stages.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Sequence

import triblock as tb

import hosts

Stage = tuple[str, Callable]


def run_stages(stages: Sequence[Stage], value) -> tuple[object, list[float]]:
    """Run one op; returns its output and the seconds of each stage."""
    times = []
    for _, fn in stages:
        start = time.perf_counter()
        value = fn(value)
        times.append(time.perf_counter() - start)
    return value, times


def warm_up(workload, value) -> None:
    """One checked op on a small input, so caches fill before timing."""
    problems = workload.check(value, run_stages(workload.stages, value)[0])
    if problems:
        raise RuntimeError(f"{workload.name} warm-up failed: {problems}")


class FamilyCertify:
    """``construct --k 40`` piped into ``certify --target theta6-1
    --check-freeness``.

    Why: one huge host (n = 6870, m = 18180).  The full no-match search for
    theta6-1 is about half of the certify stage and grows superlinearly in n
    with the pure kernel's host-wide bitmasks; every block is B5a and there
    are no BBar clusters.  This is the workload for kernel, parse/faces and
    construction changes.
    """

    name = "family-certify"
    k = 40

    def setup(self, seed: int) -> list[int]:
        """The input is fixed (k = 40); the seed has nothing to vary."""
        warm_up(self, 1)
        return [self.k]

    @staticmethod
    def construct(k: int) -> str:
        return tb.format_planegraph(tb.substitute_b5a(tb.build_skeleton(k)))

    @staticmethod
    def certify(text: str):
        pg = tb.parse_planegraph(text)
        free = tb.is_free(pg, tb.THETA6_1)
        cert = tb.certify(pg, tb.get_spec("theta6-1"), freeness_checked=free)
        return pg, free, cert

    stages: tuple[Stage, ...] = (("construct", construct), ("certify", certify))

    def check(self, k: int, out) -> list[str]:
        pg, free, cert = out
        problems = []
        if (pg.n, pg.m) != (170 * k + 70, 450 * k + 180):
            problems.append(f"k={k}: host has (n, m) = {(pg.n, pg.m)}")
        if not free:
            problems.append(f"k={k}: host contains theta6-1")
        if len(cert.clusters) != 50 * k + 20:
            problems.append(f"k={k}: {len(cert.clusters)} clusters")
        if any(c.g_c != 0 for c in cert.clusters):
            problems.append(f"k={k}: a cluster has g != 0")
        if 17 * pg.m != 45 * (pg.n - 2) or not cert.bound_holds:
            problems.append(f"k={k}: 17m = 45(n-2) fails")
        return problems

    def properties(self, inputs, last) -> dict:
        pg, _, cert = last
        return {"k": self.k, "n": pg.n, "m": pg.m, "clusters": len(cert.clusters)}


#: Frozen sweep results for theta6-2; both agree with a count over the
#: networkx graph atlas, which enumerates every graph on at most 7 vertices.
ORACLE_EXPECTED = {
    5: (9, (1, 1, 2, 4, 6, 6, 6, 4, 2, 1), 1),
    7: (12, (1, 1, 2, 5, 10, 21, 41, 64, 88, 92, 58, 22, 4), 4),
}


class OracleSweep:
    """``oracle --n 7 --pattern theta6-2`` with one worker.

    Why: thousands of 7-vertex graphs go through ``oracle.is_planar``
    (networkx), the anchored containment test and the isomorphism dedup:
    the many-tiny-calls regime, and the workload for oracle changes.  With
    ``jobs=1`` (the CLI default) the tracer sees every call.  n = 7 rather
    than 8: with the pure-Python kernel on one core of a 2-core VM, one
    n = 8 sweep takes about 20 s, too long to fit the several ops a run
    needs for a steady median, while n = 7 runs the same code with the same
    call mix in about 3 s.
    """

    name = "oracle-sweep"
    n = 7

    def __init__(self) -> None:
        self._verified: set[tuple] = set()  # witnesses already rechecked

    def setup(self, seed: int) -> list[int]:
        """The input is fixed (n = 7); the seed has nothing to vary."""
        warm_up(self, 5)
        return [self.n]

    @staticmethod
    def sweep(n: int):
        return tb.max_edges(n, tb.THETA6_2, pattern_name="theta6-2", jobs=1)

    stages: tuple[Stage, ...] = (("sweep", sweep),)

    def check(self, n: int, result) -> list[str]:
        best, sizes, count = ORACLE_EXPECTED[n]
        problems = []
        if result.max_edges != best:
            problems.append(f"n={n}: maximum {result.max_edges}, expected {best}")
        if result.level_sizes != sizes:
            problems.append(f"n={n}: level sizes {result.level_sizes}")
        if len(result.witnesses) != count:
            problems.append(f"n={n}: {len(result.witnesses)} witnesses")
        for edges in result.witnesses:
            if (n, edges) not in self._verified:
                problems += self._witness_problems(n, edges, best)
        return problems

    def _witness_problems(self, n: int, edges, best: int) -> list[str]:
        """Recheck a witness by methods that share no code with the sweep."""
        g = tb.Graph.from_edges(n, edges)
        if g.m != best:
            return [f"witness {edges} has {g.m} edges"]
        if tb.planar_by_embedding_search(g) is not True:
            return [f"witness {edges} is not planar"]
        if tb.brute_force_contains(g, tb.THETA6_2) is not None:
            return [f"witness {edges} contains theta6-2"]
        self._verified.add((n, edges))
        return []

    def properties(self, inputs, result) -> dict:
        return {"n": self.n, "explored": result.explored,
                "level_sizes": list(result.level_sizes)}

    def layer_values(self, stats, ops: int, result) -> dict[str, float]:
        """Graphs examined per sweep, and isomorphism classes kept over the
        free children (the anchored calls that found no copy)."""
        anchored = stats.get("patterns.anchored")
        free = (anchored.calls - anchored.truthy) / ops if anchored else 0
        kept = sum(result.level_sizes) - 1
        return {"oracle.explored": result.explored,
                "oracle.dedup_keep_ratio": kept / free if free else 0.0}


PATTERNS = (("theta6-1", tb.THETA6_1), ("theta6-2", tb.THETA6_2))


class RandomHosts:
    """``check-free`` then ``certify``, for theta6-1 and for theta6-2, on
    each host of a seeded pool of random plane hosts (n in 12..120, edge
    deletion p in {0, 0.2, 0.4, 0.55}); see ``hosts``.

    Why: the same layers as family-certify, used differently.  Pattern
    search hits early (about 99% of calls find a witness), all nine catalog
    labels and ``Other`` occur, and ``certify`` dominates.  A change that
    speeds the full-miss search of family-certify should not move this
    workload; a per-call-overhead change should.
    """

    name = "random-hosts"
    pool = 200

    def setup(self, seed: int) -> list[hosts.Host]:
        pool = hosts.make_hosts(seed, self.pool)
        warm_up(self, pool[0])
        return pool

    @staticmethod
    def certify_host(host: hosts.Host):
        pg = tb.parse_planegraph(host.text)
        results = []
        for name, pattern in PATTERNS:
            witness = tb.contains_subgraph(pg, pattern)
            cert = tb.certify(pg, tb.get_spec(name),
                              freeness_checked=witness is None)
            results.append((witness, cert))
        return pg, results

    stages: tuple[Stage, ...] = (("certify", certify_host),)

    def check(self, host: hosts.Host, out) -> list[str]:
        pg, results = out
        if (pg.n, pg.m) != (host.n, len(host.edges)):
            return [f"parsed (n, m) = {(pg.n, pg.m)}, generated "
                    f"{(host.n, len(host.edges))}"]
        graph = tb.Graph.from_edges(host.n, host.edges)
        problems = []
        for (name, pattern), (witness, cert) in zip(PATTERNS, results):
            if witness is not None and not witness.is_valid(graph, pattern):
                problems.append(f"invalid {name} witness {witness.mapping}")
            if witness is None and not (cert.identities_ok and cert.bound_holds):
                problems.append(f"{name}-free host fails its bound")
        return problems

    def properties(self, inputs: Sequence[hosts.Host], last) -> dict:
        """Share of containment calls that find a witness, and the block
        labels, over the seed's host pool."""
        hits, labels = 0, Counter()
        for host in inputs:
            pg = tb.parse_planegraph(host.text)
            hits += sum(tb.contains_subgraph(pg, p) is not None
                        for _, p in PATTERNS)
            labels.update(b.label for b in tb.decompose(pg).blocks)
        return {"hosts": len(inputs),
                "hit_share": hits / (len(PATTERNS) * len(inputs)),
                "block_labels": dict(sorted(labels.items()))}


WORKLOADS = {cls.name: cls for cls in (FamilyCertify, OracleSweep, RandomHosts)}
