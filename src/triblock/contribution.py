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
bound.  All arithmetic is exact rational (`fractions.Fraction`); floating
point is deliberately absent from this module.

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
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .blocks import (
    Decomposition,
    DecompositionError,
    TriangularBlock,
    canonical_b5c_frame,
    decompose,
)
from .patterns import THETA6_1, THETA6_2
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


@dataclass(frozen=True)
class BoundSpec:
    """A certification target: m <= (alpha/beta)(n - 2) for pattern-free
    plane graphs."""

    name: str
    alpha: int
    beta: int
    pattern: Graph

    def __post_init__(self) -> None:
        known = {"theta6-1": (45, 17), "theta6-2": (18, 7)}
        if known.get(self.name) != (self.alpha, self.beta):
            raise ValueError(
                f"unknown bound spec {self.name!r} with "
                f"({self.alpha}, {self.beta})"
            )

    def g_coefficients(self) -> tuple[int, int]:
        """(face coefficient, edge coefficient): g = alpha*f - (alpha-beta)*e."""
        return (self.alpha, self.alpha - self.beta)


#: 45/17 target for hosts free of the long-chord theta (chord distance 3).
THETA6_1_SPEC = BoundSpec("theta6-1", 45, 17, THETA6_1)
#: 18/7 target for hosts free of the short-chord theta (chord distance 2).
THETA6_2_SPEC = BoundSpec("theta6-2", 18, 7, THETA6_2)

SPECS: dict[str, BoundSpec] = {
    THETA6_1_SPEC.name: THETA6_1_SPEC,
    THETA6_2_SPEC.name: THETA6_2_SPEC,
}


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

    Every face hands out exactly one unit, split evenly over the steps of
    its boundary walk; the block collects one share per walk step that
    traverses a block edge.  A bridge is walked twice by its single face
    and so carries two shares there — that convention is what makes the
    per-block f values match the face-degree arithmetic of the bound
    proofs on hosts with cut edges (a triangle with a pendant edge hanging
    into it is a 5-face, not a 4-face).  Interior 3-faces contribute 1
    apiece."""
    counts: Counter[int] = Counter()
    for edge in block.edges:
        for fid in pg.faces_of_edge(edge):
            counts[fid] += 1
    total = Fraction(0)
    for fid, count in sorted(counts.items()):
        total += Fraction(count, pg.faces[fid].dart_count)
    return total


def g_eval(spec: BoundSpec, e: Fraction, f: Fraction) -> Fraction:
    """The contribution formula (beta - alpha)*e + alpha*f."""
    return (spec.beta - spec.alpha) * e + spec.alpha * f


@dataclass(frozen=True)
class Cluster:
    """A group of blocks accounted jointly; e/f/g are exact sums."""

    kind: str  # "singleton" | "bbar" | "bridged"
    block_ids: tuple[int, ...]
    e_c: Fraction
    f_c: Fraction
    g_c: Fraction

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "blocks": list(self.block_ids),
            "e": format_rational(self.e_c),
            "f": format_rational(self.f_c),
            "g": format_rational(self.g_c),
        }


def _bbar_partners(
    pg: PlaneGraph, dec: Decomposition, block: TriangularBlock
) -> tuple[int, ...] | None:
    """Trivial-block ids absorbed by a B5c under the BBar rule, or None.

    Emits ClusterConflict/MalformedNeighborhood warnings for the anomalous
    refusals; a plain None (some boundary face is not a 4-face) is the
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
        if pg.faces[f1].dart_count != 4 or pg.faces[f2].dart_count != 4:
            return None
        if f1 != f2:
            warnings.warn(
                MalformedNeighborhood(
                    f"block {block.id}: 4-faces across {e1} and {e2} differ"
                ),
                stacklevel=3,
            )
            return None
        face = pg.faces[f1]
        outside_vertices = set(face.vertices()) - block.vertices
        if len(outside_vertices) != 1:
            warnings.warn(
                MalformedNeighborhood(
                    f"block {block.id}: face {f1} is not a quad through one "
                    "outside apex"
                ),
                stacklevel=3,
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
        if face.edge_set != expected:
            warnings.warn(
                MalformedNeighborhood(
                    f"block {block.id}: face {f1} lacks the forced quad shape"
                ),
                stacklevel=3,
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
            warnings.warn(
                MalformedNeighborhood(
                    f"block {block.id}: cross edge {edge} is not a trivial "
                    f"block (got {partner.label})"
                ),
                stacklevel=3,
            )
            return None
        partner_ids.append(partner.id)
    return tuple(sorted(set(partner_ids)))


def _bridges_by_face(
    pg: PlaneGraph, dec: Decomposition
) -> dict[int, list[int]]:
    """Face index -> ids of the bridge blocks on that face, in id order.

    A bridge is a trivial block whose edge the same face walks twice."""
    out: dict[int, list[int]] = {}
    for block in dec.blocks:
        if not block.is_trivial:
            continue
        (edge,) = block.edges
        a, b = pg.faces_of_edge(edge)
        if a == b:
            out.setdefault(a, []).append(block.id)
    return out


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
    """
    e_by_block = [edge_contribution(b) for b in dec.blocks]
    f_by_block = [face_contribution(pg, b) for b in dec.blocks]
    g_by_block = [g_eval(spec, e, f) for e, f in zip(e_by_block, f_by_block)]

    # absorbed block id -> absorbing block id; absorbing id -> (kind, members)
    owner: dict[int, int] = {}
    groups: dict[int, tuple[str, tuple[int, ...]]] = {}
    for block in dec.blocks:
        if block.label != "B5c":
            continue
        partners = _bbar_partners(pg, dec, block)
        if partners is None:
            continue
        taken = [p for p in partners if p in owner]
        if taken:
            warnings.warn(
                ClusterConflict(
                    f"block {block.id}: trivial blocks {taken} already "
                    f"belong to other clusters; falling back to a singleton"
                ),
                stacklevel=2,
            )
            continue
        for p in partners:
            owner[p] = block.id
        groups[block.id] = ("bbar", (block.id,) + partners)

    bridges_on_face = _bridges_by_face(pg, dec)
    for block in dec.blocks:
        # A trivial block always scores g < 0, so only a larger block can
        # be positive.
        if block.is_trivial or block.id in groups or g_by_block[block.id] <= 0:
            continue
        interior = set(block.interior_faces)
        faces = {
            fid for edge in block.edges for fid in pg.faces_of_edge(edge)
        } - interior
        bridges = sorted(
            b
            for fid in faces
            for b in bridges_on_face.get(fid, ())
            if b not in owner
        )
        if not bridges:
            continue
        for b in bridges:
            owner[b] = block.id
        groups[block.id] = ("bridged", (block.id, *bridges))

    clusters: list[Cluster] = []
    emitted: set[int] = set()
    for block in dec.blocks:
        if block.id in emitted:
            continue
        kind, members = groups.get(
            owner.get(block.id, block.id), ("singleton", (block.id,))
        )
        members = tuple(sorted(members))
        emitted.update(members)
        if len(members) == 1:
            (i,) = members
            e_c, f_c, g_c = e_by_block[i], f_by_block[i], g_by_block[i]
        else:
            e_c = sum((e_by_block[i] for i in members), Fraction(0))
            f_c = sum((f_by_block[i] for i in members), Fraction(0))
            g_c = g_eval(spec, e_c, f_c)
        clusters.append(
            Cluster(kind=kind, block_ids=members, e_c=e_c, f_c=f_c, g_c=g_c)
        )
    return clusters


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


def certify(
    pg: PlaneGraph,
    spec: BoundSpec,
    freeness_checked: bool | None = None,
) -> Certificate:
    """Decompose, cluster, and check the target bound exactly.

    Freeness of the host is NOT verified here; pass the result of a
    separate `patterns.is_free` call as ``freeness_checked`` if you made
    one, so the certificate records it.  Raises TooSmall below 6 vertices
    and DecompositionError if an exact identity fails (always a bug).
    """
    return certify_decomposition(pg, decompose(pg), spec, freeness_checked)


def certify_decomposition(
    pg: PlaneGraph,
    dec: Decomposition,
    spec: BoundSpec,
    freeness_checked: bool | None = None,
) -> Certificate:
    """:func:`certify` for a caller that already holds ``decompose(pg)``."""
    if pg.n < 6:
        raise TooSmall(f"certify needs n >= 6, got n={pg.n}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        clusters = tuple(form_clusters(pg, dec, spec))
    anomalies = []
    for item in caught:
        if issubclass(item.category, DecompositionAnomaly):
            anomalies.append(f"{item.category.__name__}: {item.message}")
        else:  # propagate anything that isn't ours
            warnings.warn_explicit(
                item.message, item.category, item.filename, item.lineno
            )

    e_total = sum((c.e_c for c in clusters), Fraction(0))
    f_total = sum((c.f_c for c in clusters), Fraction(0))
    identities_ok = e_total == Fraction(pg.m) and f_total == Fraction(
        pg.face_count
    )
    if not identities_ok:
        raise DecompositionError(
            f"contribution identities failed: sum e = {e_total} vs m = "
            f"{pg.m}; sum f = {f_total} vs faces = {pg.face_count}"
        )

    violations = tuple(
        i for i, c in enumerate(clusters) if c.g_c > 0
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
        anomalies=tuple(anomalies),
        freeness_checked=freeness_checked,
    )
