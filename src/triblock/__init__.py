"""Triangular-block decompositions of plane graphs, exact contribution
certificates for two planar Turán-type bounds, matching extremal
constructions, and an exhaustive small-graph oracle.

The package namespace holds the names a whole-pipeline caller needs; the
rest lives in the submodules (``triblock.plane_graph``, ``triblock.blocks``,
``triblock.catalog``, ``triblock.contribution``, ``triblock.constructions``,
``triblock.patterns``, ``triblock.oracle``)."""

from .blocks import decompose
from .constructions import build_skeleton, substitute_b5a
from .contribution import certify, get_spec
from .oracle import max_edges, planar_by_embedding_search
from .patterns import (
    THETA6_1,
    THETA6_2,
    EmbeddingWitness,
    brute_force_contains,
    contains_subgraph,
    is_free,
)
from .plane_graph import Graph, format_planegraph, parse_planegraph

__version__ = "0.1.0"

__all__ = [
    "EmbeddingWitness",
    "Graph",
    "THETA6_1",
    "THETA6_2",
    "brute_force_contains",
    "build_skeleton",
    "certify",
    "contains_subgraph",
    "decompose",
    "format_planegraph",
    "get_spec",
    "is_free",
    "max_edges",
    "parse_planegraph",
    "planar_by_embedding_search",
    "substitute_b5a",
]
