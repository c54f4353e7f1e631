"""Exact contribution accounting and bound certification.

Every block contributes its edge count e_B and a face share f_B: each face
hands out one unit, split evenly over the steps of its boundary walk, and
a block collects one share per step that runs along a block edge (so a
bridge collects both of its face's visits).  Summed over the blocks, these
reproduce the edge count and the face count of the graph exactly — both
identities are asserted on every certificate.  Blocks are grouped into
clusters, and per-cluster nonpositivity of the linear form

    g(e, f) = (beta - alpha) * e + alpha * f

implies m <= (alpha/beta)(n - 2): summing g over all clusters gives
beta*m - alpha*(n-2) by Euler's formula, so nonpositive summands force the
bound.  All arithmetic is exact, on integers, over one denominator per
graph: L, the least common multiple of the dart counts of its faces.  A
dart's share of a face of d darts is then the integer L // d, exact
because d divides L, so every block's, merged unit's and cluster's f is
a whole number num of 1/L units, e is whole, and g = alpha*f - (alpha -
beta)*e is alpha*num - (alpha - beta)*e*L of them.  The face identity
reads sum num = faces * L.  L is 15 on every extremal family member (3-
and 5-faces); on the benchmark's random hosts it has a median of 9 bits
and at most 26 (seed 1) or 29 (seeds 1-3); a polygon with chords from one
vertex, its faces of 3..200 darts, takes L of 298 bits.  A
`fractions.Fraction` is built only when a caller reads a value:
``Cluster.e_c``, ``f_c`` and ``g_c`` are kept as integer pairs and built
as `Fraction`s on each read (so for a certificate's JSON or text, not
while certifying), and the public contribution functions return one
each.  Floating point is deliberately absent from this module.

Clusters are usually singletons.  Two rules merge blocks (`form_clusters`):

* BBar ("bbar"): a B5c absorbs the trivial blocks across its boundary
  4-faces.
* Bridge absorption ("bridged"): a singleton with g > 0 absorbs every
  bridge not yet in a cluster that lies on one of its non-interior faces.
  A bridge is a trivial block whose edge the same face walks twice.

Proven about bridge absorption:

* It cannot certify a false bound.  Any regrouping of the blocks keeps
  sum g = beta*m - alpha*(n-2), the identity `certify` asserts, so
  nonpositive clusters still force the bound.
* It changes no certificate that passes without it: it acts only on
  clusters that are positive before it runs.
* It only ever lowers a cluster's g.  In a simple graph on n >= 6
  vertices a face that walks a bridge has d >= 4 darts, so the bridge
  scores (beta - alpha) + 2*alpha/d <= beta - alpha/2, which is -11/2
  for theta6-1 and -2 for theta6-2.
* The case it is for: K5 minus an edge with a pendant vertex in one of
  its triangles, which is theta6-2-free and has the n = 6 maximum of 10
  edges.  The pendant edge turns that triangle into a 5-dart face.  The
  B5a has e = 9, f = 5 + 3/5 and, under theta6-2, g = 18*(28/5) - 11*9
  = 9/5.  The bridge has e = 1, f = 2/5 and g = 18*(2/5) - 11 = -19/5.
  Merged, e = 10, f = 6 and g = -2 = 7*10 - 18*4, the whole host's
  beta*m - alpha*(n-2).

Only checked, not proven: that the two rules leave every cluster of every
pattern-free host nonpositive.  This holds on the test corpus (the oracle
witnesses at n = 6, 7, 8, the extremal family members, the catalog and
the systematic graphs) for both targets.  The paper's own cluster rules
are not recorded here, so whether this rule is one of them is open.

Both targets share one decomposition and one face-share count; only the
sign of g, and so bridge absorption, depends on alpha and beta.  Cluster
formation is therefore split in two:

* a ledger (`_ledger`), built once per decomposition: each block's e and
  face share, the BBar groups with the anomalies they raised, and each
  non-trivial block's sorted bridge candidates;
* a per-target pass (`_clusters`): bridge absorption by the sign of g and
  the `Cluster`s, after which `certify` checks the identities over the
  clusters and the verdict.

`certify` keeps the ledger of each graph in a weak-keyed table for as long
as the graph lives, so a second target on the same graph skips the
decomposition, the face shares and BBar, and replays the recorded
anomalies.  A pickled copy is a new graph and starts without one.  The
`Decomposition` itself is not kept.  On the k = 40 family member
(n = 6 870) it holds about 6.5 MB against 0.06 MB for the ledger
(`sys.getsizeof` over the containers), and a caller that keeps the
previous graph alive while the next one is certified, as the benchmark's
family-certify op does, would hold two: kept on the graph, it raised that
op's peak RSS from 62 to 68 MB (2-core x86-64 VM, Python 3.11).
`certify_decomposition` and `form_clusters` build a fresh ledger from the
decomposition they are handed and never read or fill the table.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import NamedTuple

from .blocks import (
    Decomposition,
    DecompositionError,
    TriangularBlock,
    canonical_b5c_frame,
    decompose,
)
from .patterns import THETA6_1, THETA6_2, isomorphic
from .plane_graph import Edge, Graph, PlaneGraph, normalize_edge

__all__ = [
    "BoundSpec",
    "Certificate",
    "Cluster",
    "ClusterConflict",
    "DecompositionAnomaly",
    "MalformedNeighborhood",
    "SPECS",
    "THETA6_1_SPEC",
    "THETA6_2_SPEC",
    "TooSmall",
    "certify",
    "certify_decomposition",
    "edge_contribution",
    "face_contribution",
    "form_clusters",
    "format_rational",
    "g_eval",
    "get_spec",
]


class TooSmall(ValueError):
    """certify() requires at least 6 vertices (smaller graphs have no room
    for the per-block face analysis the certificate is about)."""


class DecompositionAnomaly(UserWarning):
    """Base for reportable-but-non-fatal cluster-formation findings."""


class ClusterConflict(DecompositionAnomaly):
    """Two candidate BBar clusters competed for the same trivial block.

    Impossible on pattern-free inputs, so an occurrence flags a non-free
    input (or a bug); the later cluster falls back to a singleton.
    """


class MalformedNeighborhood(DecompositionAnomaly):
    """A B5c saw four boundary 4-faces without the forced shapes (two
    quads sharing the diagonal endpoints and one outside apex each)."""


def format_rational(value: Fraction) -> str:
    """Uniform "p/q" form, e.g. "-21/1"; `Fraction` parses it back."""
    return f"{value.numerator}/{value.denominator}"


#: name -> (alpha, beta, pattern) of each certification target: 45/17 for
#: hosts free of the long-chord theta (chord distance 3), 18/7 for hosts
#: free of the short-chord theta (chord distance 2).
_TARGETS: dict[str, tuple[int, int, Graph]] = {
    "theta6-1": (45, 17, THETA6_1),
    "theta6-2": (18, 7, THETA6_2),
}


@dataclass(frozen=True)
class BoundSpec:
    """A certification target: m <= (alpha/beta)(n - 2) for pattern-free
    plane graphs.  Only a row of `_TARGETS` is accepted, with the pattern
    up to isomorphism."""

    name: str
    alpha: int
    beta: int
    pattern: Graph

    def __post_init__(self) -> None:
        target = _TARGETS.get(self.name)
        if not (
            target
            and target[:2] == (self.alpha, self.beta)
            and isomorphic(target[2], self.pattern)
        ):
            raise ValueError(
                f"unknown bound spec {self.name!r} with "
                f"({self.alpha}, {self.beta}) and a pattern of "
                f"{self.pattern.n} vertices and {self.pattern.m} edges"
            )

    def g_coefficients(self) -> tuple[int, int]:
        """(face coefficient, edge coefficient): g = alpha*f - (alpha-beta)*e."""
        return (self.alpha, self.alpha - self.beta)


SPECS: dict[str, BoundSpec] = {
    name: BoundSpec(name, *target) for name, target in _TARGETS.items()
}
THETA6_1_SPEC = SPECS["theta6-1"]
THETA6_2_SPEC = SPECS["theta6-2"]


def get_spec(name: str) -> BoundSpec:
    try:
        return SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown target {name!r}; expected one of {sorted(SPECS)}"
        ) from None


def edge_contribution(block: TriangularBlock) -> Fraction:
    """e_B: the block's edge count, as an exact rational."""
    return Fraction(len(block.edges))


def face_contribution(pg: PlaneGraph, block: TriangularBlock) -> Fraction:
    """f_B: the block's share of each boundary walk, summed over faces.

    Every face hands out exactly one unit, split evenly over the darts of
    its walk; the block collects one share per walk step that traverses a
    block edge.  So an interior 3-face gives 1, and an outer face of d
    darts gives steps/d (``block.outer_faces``).  A bridge is walked twice
    by its single face and so carries two shares there — that convention
    is what makes the per-block f values match the face-degree arithmetic
    of the bound proofs on hosts with cut edges (a triangle with a pendant
    edge hanging into it is a 5-face, not a 4-face).  A plain `Fraction`
    sum, independent of the ledger's integer count over the graph's L."""
    faces = pg.faces
    return sum(
        (Fraction(steps, len(faces[fid])) for fid, steps in block.outer_faces),
        Fraction(len(block.interior_faces)),
    )


def g_eval(spec: BoundSpec, e: Fraction, f: Fraction) -> Fraction:
    """The contribution formula (beta - alpha)*e + alpha*f."""
    return (spec.beta - spec.alpha) * e + spec.alpha * f


class _Ratio:
    """A rational field of `Cluster`: stored as an integer pair (numerator,
    denominator), not necessarily in lowest terms, with a positive
    denominator, and read as a `Fraction`, built on each read."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, cluster: "Cluster | None", owner: type) -> Fraction:
        if cluster is None:
            raise AttributeError(self.name)  # so the field has no default
        return Fraction(*cluster.__dict__[self.name])

    def __set__(self, cluster: "Cluster", value: object) -> None:
        # Defined so that this descriptor, not the stored pair of the same
        # name in the instance dict, answers every read.
        raise FrozenInstanceError(f"cannot assign to field {self.name!r}")


def _pair(value: Fraction | tuple[int, int]) -> tuple[int, int]:
    if type(value) is tuple:
        return value
    return value.numerator, value.denominator


@dataclass(frozen=True, init=False)
class Cluster:
    """A group of blocks accounted jointly; e/f/g are exact sums.

    ``e_c``, ``f_c`` and ``g_c`` read as `Fraction`s but are kept as
    integer pairs (see `_Ratio`), and each may be given as a `Fraction` or
    as a pair: `form_clusters` and `certify` pass integer pairs, so a
    cluster holds no `Fraction` until one is read.
    """

    kind: str  # "singleton" | "bbar" | "bridged"
    block_ids: tuple[int, ...]
    e_c: Fraction = _Ratio()
    f_c: Fraction = _Ratio()
    g_c: Fraction = _Ratio()

    def __init__(
        self,
        kind: str,
        block_ids: tuple[int, ...],
        e_c: Fraction | tuple[int, int],
        f_c: Fraction | tuple[int, int],
        g_c: Fraction | tuple[int, int],
    ) -> None:
        # Written into the instance dict at once, which the frozen
        # dataclass's per-field setattr calls would cost several times over.
        self.__dict__.update(
            kind=kind,
            block_ids=block_ids,
            e_c=_pair(e_c),
            f_c=_pair(f_c),
            g_c=_pair(g_c),
        )

    def _ratio(self, name: str) -> tuple[int, int]:
        """The integer pair behind ``e_c``, ``f_c`` or ``g_c``."""
        return self.__dict__[name]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "blocks": list(self.block_ids),
            "e": format_rational(self.e_c),
            "f": format_rational(self.f_c),
            "g": format_rational(self.g_c),
        }


def _bbar_partners(
    pg: PlaneGraph,
    dec: Decomposition,
    block: TriangularBlock,
    anomalies: list[DecompositionAnomaly],
) -> tuple[int, ...] | None:
    """Trivial-block ids absorbed by a B5c under the BBar rule, or None.

    Appends a MalformedNeighborhood to ``anomalies`` for each anomalous
    refusal; a plain None (some boundary face is not a 4-face) is the
    ordinary singleton case.
    """
    frame = canonical_b5c_frame(pg, block)
    interior = set(block.interior_faces)

    def outside_face(edge: Edge) -> int:
        fids = [f for f in pg.faces_of_edge(edge) if f not in interior]
        if len(fids) != 1:
            raise DecompositionError(
                f"boundary edge {edge} of block {block.id} should have "
                f"exactly one non-interior side, found {len(fids)}"
            )
        return fids[0]

    sides = (
        ((frame.x1, frame.x2), (frame.x2, frame.x3)),
        ((frame.x3, frame.x4), (frame.x4, frame.x1)),
    )
    apexes: list[int] = []
    for (a1, b1), (a2, b2) in sides:
        e1 = normalize_edge(a1, b1)
        e2 = normalize_edge(a2, b2)
        f1 = outside_face(e1)
        f2 = outside_face(e2)
        if len(pg.faces[f1]) != 4 or len(pg.faces[f2]) != 4:
            return None
        if f1 != f2:
            anomalies.append(
                MalformedNeighborhood(
                    f"block {block.id}: 4-faces across {e1} and {e2} differ"
                )
            )
            return None
        outside_vertices = set(pg.face_vertices(f1)) - block.vertices
        if len(outside_vertices) != 1:
            anomalies.append(
                MalformedNeighborhood(
                    f"block {block.id}: face {f1} is not a quad through one "
                    "outside apex"
                )
            )
            return None
        (apex,) = outside_vertices
        expected = frozenset(
            (
                e1,
                e2,
                normalize_edge(frame.x1, apex),
                normalize_edge(frame.x3, apex),
            )
        )
        if pg.face_edges(f1) != expected:
            anomalies.append(
                MalformedNeighborhood(
                    f"block {block.id}: face {f1} lacks the forced quad shape"
                )
            )
            return None
        apexes.append(apex)

    # The two apexes usually differ, giving four cross edges; a shared apex
    # is legitimate (both quads lean on the same outside vertex) and yields
    # two.
    cross_edges = sorted(
        {
            normalize_edge(x, apex)
            for apex in apexes
            for x in (frame.x1, frame.x3)
        }
    )
    partner_ids = []
    for edge in cross_edges:
        partner = dec.block_of_edge(edge)
        if not (partner.label == "B2" and partner.is_trivial):
            anomalies.append(
                MalformedNeighborhood(
                    f"block {block.id}: cross edge {edge} is not a trivial "
                    f"block (got {partner.label})"
                )
            )
            return None
        partner_ids.append(partner.id)
    return tuple(sorted(set(partner_ids)))


def _bridges_by_face(dec: Decomposition) -> dict[int, list[int]]:
    """Face index -> ids of the bridge blocks on that face, in id order.

    A bridge is a trivial block with a single outer face, which walks its
    edge twice."""
    out: dict[int, list[int]] = {}
    for block in dec.blocks:
        if block.is_trivial and len(block.outer_faces) == 1:
            ((fid, _),) = block.outer_faces
            out.setdefault(fid, []).append(block.id)
    return out


#: A merged cluster before its target is known: (kind, sorted member block
#: ids, e, and the face share f in 1/L units).
_Unit = tuple[str, tuple[int, ...], int, int]


class _Ledger(NamedTuple):
    """The target-independent part of `form_clusters` for one
    decomposition; only the sign of g, and so bridge absorption, depends
    on the target.

    ``den`` is the graph's L, the lcm of its faces' dart counts, and
    block i has ``e[i]`` edges and the face share ``num[i]/den``.
    ``bbar`` maps the smallest member of each BBar group to the group's
    unit, and ``grouped`` holds every member of a BBar group.
    ``candidates`` lists, in block order, each non-trivial block outside
    the BBar groups with the sorted ids of the bridges on its non-interior
    faces (only blocks with at least one).  ``anomalies`` are the findings
    the BBar rule raised, in the order it raised them.  Per-block values
    sit in flat lists, not one tuple per block: a caller that keeps the
    previous graph alive while the next is certified holds two ledgers.
    """

    e: list[int]
    num: list[int]
    den: int
    bbar: dict[int, _Unit]
    grouped: set[int]
    candidates: list[tuple[int, tuple[int, ...]]]
    anomalies: tuple[DecompositionAnomaly, ...]


def _merge(
    kind: str, members: tuple[int, ...], e: list[int], num: list[int]
) -> _Unit:
    """One unit for the sorted ``members``: e and f summed."""
    return (
        kind,
        members,
        sum(e[j] for j in members),
        sum(num[j] for j in members),
    )


def _ledger(pg: PlaneGraph, dec: Decomposition) -> _Ledger:
    """Per-block e and face shares, the BBar groups (rule 1 of
    `form_clusters`) and the bridge candidates of rule 2."""
    faces = pg.faces
    sizes = {len(face) for face in faces}
    den = math.lcm(*sizes)
    share = {d: den // d for d in sizes}  # one dart's, in 1/L units
    e = [len(b.edges) for b in dec.blocks]
    num = [
        len(b.interior_faces) * den
        + sum(steps * share[len(faces[fid])] for fid, steps in b.outer_faces)
        for b in dec.blocks
    ]
    anomalies: list[DecompositionAnomaly] = []
    bbar: dict[int, _Unit] = {}
    grouped: set[int] = set()
    for block in dec.blocks:
        if block.label != "B5c":
            continue
        partners = _bbar_partners(pg, dec, block, anomalies)
        if partners is None:
            continue
        taken = [p for p in partners if p in grouped]
        if taken:
            anomalies.append(
                ClusterConflict(
                    f"block {block.id}: trivial blocks {taken} already "
                    f"belong to other clusters; falling back to a singleton"
                )
            )
            continue
        members = tuple(sorted((block.id, *partners)))
        grouped.update(members)
        bbar[members[0]] = _merge("bbar", members, e, num)

    bridges_on_face = _bridges_by_face(dec)
    candidates = []
    for block in dec.blocks:
        # A trivial block always scores g < 0, so only a larger block can
        # be positive.
        if block.is_trivial or block.id in grouped:
            continue
        bridges = sorted(
            b
            for fid, _ in block.outer_faces
            for b in bridges_on_face.get(fid, ())
            if b not in grouped
        )
        if bridges:
            candidates.append((block.id, tuple(bridges)))
    return _Ledger(e, num, den, bbar, grouped, candidates, tuple(anomalies))


def _clusters(ledger: _Ledger, spec: BoundSpec) -> list[Cluster]:
    """The clusters of one target: rule 2 of `form_clusters` on the
    ledger's candidates, then every block or merged unit scored by g."""
    alpha, delta = spec.g_coefficients()
    e_of, num_of, den = ledger.e, ledger.num, ledger.den
    delta_den = delta * den
    # smallest member -> merged unit; every member of a merged unit
    merged = dict(ledger.bbar)
    absorbed = set(ledger.grouped)
    for block_id, bridges in ledger.candidates:
        if alpha * num_of[block_id] - delta_den * e_of[block_id] <= 0:
            continue
        free = [b for b in bridges if b not in absorbed]
        if not free:
            continue
        members = tuple(sorted((block_id, *free)))
        absorbed.update(members)
        merged[members[0]] = _merge("bridged", members, e_of, num_of)

    # A merged cluster is emitted at its smallest member, in block order.
    clusters: list[Cluster] = []
    for i, (e, num) in enumerate(zip(e_of, num_of)):
        if i in absorbed:
            unit = merged.get(i)
            if unit is None:
                continue
            kind, members, e, num = unit
        else:
            kind, members = "singleton", (i,)
        g = alpha * num - delta_den * e
        clusters.append(Cluster(kind, members, (e, 1), (num, den), (g, den)))
    return clusters


def form_clusters(
    pg: PlaneGraph, dec: Decomposition, spec: BoundSpec
) -> list[Cluster]:
    """Group blocks into clusters; every block lands in exactly one.

    Two merging rules run in order, each with the same steps for both
    targets (only g's coefficients change):

    1. BBar: a B5c whose four boundary faces are 4-faces of the forced
       shape absorbs the trivial blocks on its outside.  B5c blocks are
       visited in id order and earlier BBar clusters win conflicts.
    2. Bridge absorption: every block still a singleton whose g is
       positive absorbs each bridge, not yet in a cluster, that lies on
       one of its non-interior faces.  Blocks are visited in id order and
       an absorbed bridge is not offered again.  See the module docstring
       for why the rule is sound and what is only checked.

    Each ClusterConflict or MalformedNeighborhood met by rule 1 is issued
    as a warning, on every call.
    """
    ledger = _ledger(pg, dec)
    for anomaly in ledger.anomalies:
        warnings.warn(anomaly, stacklevel=2)
    return _clusters(ledger, spec)


@dataclass(frozen=True)
class Certificate:
    """The full per-cluster ledger and the verdict for one target bound."""

    spec: BoundSpec
    n: int
    m: int
    face_count: int
    clusters: tuple[Cluster, ...]
    identities_ok: bool
    all_nonpositive: bool
    bound_holds: bool
    violations: tuple[int, ...]
    anomalies: tuple[str, ...]
    freeness_checked: bool | None

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.name,
            "alpha": self.spec.alpha,
            "beta": self.spec.beta,
            "n": self.n,
            "m": self.m,
            "faces": self.face_count,
            "clusters": [c.to_json_dict() for c in self.clusters],
            "identities_ok": self.identities_ok,
            "all_nonpositive": self.all_nonpositive,
            "bound_holds": self.bound_holds,
            "violations": list(self.violations),
            "anomalies": list(self.anomalies),
            "freeness_checked": self.freeness_checked,
        }


#: PlaneGraph -> the `_Ledger` of its decomposition, kept by `certify`
#: while the graph lives.  A PlaneGraph is immutable and compares by
#: identity, so an entry never goes stale, and the ledger holds no
#: reference back to the graph.
_LEDGERS: weakref.WeakKeyDictionary[PlaneGraph, _Ledger] = (
    weakref.WeakKeyDictionary()
)


def _require_six(pg: PlaneGraph) -> None:
    if pg.n < 6:
        raise TooSmall(f"certify needs n >= 6, got n={pg.n}")


def certify(
    pg: PlaneGraph,
    spec: BoundSpec,
    freeness_checked: bool | None = None,
) -> Certificate:
    """Decompose, cluster, and check the target bound exactly.

    The target-independent work (the decomposition, every block's e and
    face share, the BBar groups with the anomalies they raised, and the
    bridge candidates) is done on the first call for a graph and kept
    until the graph is garbage collected, so a second target on the same
    graph only absorbs bridges by the sign of its g, builds its clusters
    and checks the identities and the verdict.  The decomposition itself
    is not kept.

    Freeness of the host is NOT verified here; pass the result of a
    separate `patterns.is_free` call as ``freeness_checked`` if you made
    one, so the certificate records it.  Raises TooSmall below 6 vertices
    and DecompositionError if an exact identity fails (always a bug).
    """
    _require_six(pg)
    ledger = _LEDGERS.get(pg)
    if ledger is None:
        ledger = _LEDGERS[pg] = _ledger(pg, decompose(pg))
    return _certificate(pg, ledger, spec, freeness_checked)


def certify_decomposition(
    pg: PlaneGraph,
    dec: Decomposition,
    spec: BoundSpec,
    freeness_checked: bool | None = None,
) -> Certificate:
    """:func:`certify` for a caller that already holds ``decompose(pg)``;
    it builds the ledger from ``dec`` and neither reads nor fills the
    table that `certify` keeps."""
    _require_six(pg)
    return _certificate(pg, _ledger(pg, dec), spec, freeness_checked)


def _certificate(
    pg: PlaneGraph,
    ledger: _Ledger,
    spec: BoundSpec,
    freeness_checked: bool | None,
) -> Certificate:
    clusters = tuple(_clusters(ledger, spec))

    # On the integer pairs: every e is whole, and every f is over L.
    e_total = f_total = 0
    for c in clusters:
        e_total += c._ratio("e_c")[0]
        f_total += c._ratio("f_c")[0]
    identities_ok = e_total == pg.m and f_total == pg.face_count * ledger.den
    if not identities_ok:
        raise DecompositionError(
            f"contribution identities failed: sum e = {e_total} vs m = "
            f"{pg.m}; sum f = {Fraction(f_total, ledger.den)} vs faces = "
            f"{pg.face_count}"
        )

    violations = tuple(
        i for i, c in enumerate(clusters) if c._ratio("g_c")[0] > 0
    )
    all_nonpositive = not violations
    bound_holds = pg.m * spec.beta <= spec.alpha * (pg.n - 2)
    if all_nonpositive and not bound_holds:
        raise DecompositionError(
            "all clusters nonpositive but the bound fails; the Euler "
            "identity argument is broken"
        )

    return Certificate(
        spec=spec,
        n=pg.n,
        m=pg.m,
        face_count=pg.face_count,
        clusters=clusters,
        identities_ok=identities_ok,
        all_nonpositive=all_nonpositive,
        bound_holds=bound_holds,
        violations=violations,
        anomalies=tuple(
            f"{type(a).__name__}: {a}" for a in ledger.anomalies
        ),
        freeness_checked=freeness_checked,
    )
