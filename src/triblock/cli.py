"""Command-line entry point.

Subcommands: decompose, certify, check-free, construct, oracle, export,
catalog.  Input graphs are read in the native planegraph format (from a
file argument, or stdin when the argument is "-" or omitted), so commands
compose in pipelines.  Exit codes: 0 success / bound holds, 1 usage
error, 2 certification found a positive cluster or a pattern copy was
found, 3 structural or format errors, or out of memory.  A reader that
closes the pipe early (``triblock decompose g.pg | head -1``) ends the
command quietly with exit 0.  Output is deterministic; the only timing
field is the explicitly labeled ``elapsed_seconds`` of the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from .blocks import Decomposition, DecompositionError, decompose
from .catalog import CATALOG_LABELS, catalog_graph, catalog_plane_graph
from .constructions import (
    GluingMismatch,
    build_skeleton,
    substitute_b5a,
    verify_extremal,
)
from .contribution import SPECS, TooSmall, certify, get_spec
from .oracle import CapExceeded, arbitrary_embedding, check_cap, max_edges
from .patterns import (
    KERNEL_NAME,
    contains_subgraph,
    is_free,
    theta_family,
    theta_pattern,
)
from .plane_graph import (
    Graph,
    PlaneGraph,
    PlaneGraphError,
    export_dot,
    format_planegraph,
    parse_planegraph,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class PatternNameError(ValueError):
    """An unparseable or unsupported pattern name on the command line."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; we promised 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _int_from(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _theta_names(name: str) -> tuple[int, Iterable[tuple[str, int]]]:
    """The cycle length k shared by the theta patterns a CLI pattern name
    denotes, and a (label, chord distance) pair for each of them.

    The name is checked here, as `theta_pattern` checks its arguments, but
    no pattern is built: one with more vertices than a host is absent from
    it, and building it could exhaust memory (``theta:99999999:2``).  The
    pairs of ``theta-family:<k>`` are produced as they are read.
    """
    try:
        if name in ("theta6-1", "theta6-2"):
            return 6, [(name, 3 if name == "theta6-1" else 2)]
        if name.startswith("theta-family:"):
            k = int(name.split(":", 1)[1])
            if k < 4:
                theta_family(k)  # raises, naming the bound
            return k, ((f"theta:{k}:{d}", d) for d in range(2, k // 2 + 1))
        if name.startswith("theta:"):
            parts = name.split(":")
            if len(parts) != 3:
                raise PatternNameError(
                    f"expected theta:<k>:<d>, got {name!r}"
                )
            k, d = int(parts[1]), int(parts[2])
            if k < 4 or not 2 <= d <= k // 2:
                theta_pattern(k, d)  # raises, naming the bound
            return k, [(name, d)]
    except PatternNameError:
        raise
    except ValueError as exc:
        raise PatternNameError(f"bad pattern name {name!r}: {exc}") from exc
    raise PatternNameError(
        f"unrecognized pattern name {name!r}; expected theta6-1, theta6-2, "
        "theta:<k>:<d>, or theta-family:<k>"
    )


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_plane_graph(path: str) -> PlaneGraph:
    return parse_planegraph(_read_text(path))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text, encoding="utf-8")


def _print_json(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _decomposition_json(pg: PlaneGraph, dec: Decomposition) -> dict:
    counts: dict[str, int] = {}
    for block in dec.blocks:
        counts[block.label] = counts.get(block.label, 0) + 1
    return {
        "n": pg.n,
        "m": pg.m,
        "faces": pg.face_count,
        "blocks": [
            {
                "id": b.id,
                "label": b.label,
                "vertices": sorted(b.vertices),
                "edges": [[u, v] for u, v in sorted(b.edges)],
                "interior_faces": list(b.interior_faces),
                "trivial": b.is_trivial,
            }
            for b in dec.blocks
        ],
        "counts_by_label": counts,
    }


def _cmd_decompose(args: argparse.Namespace) -> int:
    pg = _load_plane_graph(args.input)
    dec = decompose(pg)
    if args.json:
        _print_json(_decomposition_json(pg, dec))
        return 0
    print(f"n={pg.n} m={pg.m} faces={pg.face_count} blocks={len(dec.blocks)}")
    for b in dec.blocks:
        edges = " ".join(f"{u}-{v}" for u, v in sorted(b.edges))
        print(f"  block {b.id}: {b.label:4s} [{edges}]")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    try:
        spec = get_spec(args.target)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    pg = _load_plane_graph(args.input)
    checked = is_free(pg, spec.pattern) if args.check_freeness else None
    cert = certify(pg, spec, freeness_checked=checked)
    if args.json:
        _print_json(cert.to_json_dict())
    else:
        rel = "=" if spec.beta * pg.m == spec.alpha * (pg.n - 2) else "<"
        print(
            f"target {spec.name} ({spec.alpha}/{spec.beta}): "
            f"n={cert.n} m={cert.m} faces={cert.face_count}"
        )
        merged = sum(1 for c in cert.clusters if len(c.block_ids) > 1)
        print(f"clusters: {len(cert.clusters)} ({merged} merged)")
        if cert.anomalies:
            for note in cert.anomalies:
                print(f"anomaly: {note}")
        if cert.violations:
            for i in cert.violations:
                c = cert.clusters[i]
                print(
                    f"POSITIVE cluster {i}: blocks {list(c.block_ids)} "
                    f"g = {c.g_c}"
                )
        else:
            verdict = "holds with equality" if rel == "=" else "holds"
            print(
                f"all clusters nonpositive; "
                f"{spec.beta}*m {rel}= {spec.alpha}*(n-2): bound {verdict}"
            )
        if checked is not None:
            state = "free" if checked else "NOT free"
            print(f"pattern check: host is {state} of {spec.name}")
    return 2 if cert.violations else 0


def _cmd_check_free(args: argparse.Namespace) -> int:
    k, named = _theta_names(args.pattern)
    pg = _load_plane_graph(args.input)
    if k > pg.n:  # patterns on more vertices than the host are absent
        named = ()
    for label, d in named:
        witness = contains_subgraph(pg, theta_pattern(k, d))
        if witness is not None:
            if args.json:
                _print_json(
                    {
                        "free": False,
                        "pattern": label,
                        "witness": list(witness.mapping),
                    }
                )
            else:
                print(f"contains {label}: vertices {list(witness.mapping)}")
            return 2
    if args.json:
        _print_json({"free": True, "pattern": args.pattern, "witness": None})
    else:
        print(f"free of {args.pattern}")
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.json and not args.verify:
        print("error: --json needs --verify", file=sys.stderr)
        return 1
    k = args.k
    if args.skeleton_only:
        pg = build_skeleton(k)
        comment = f"skeleton k={k}: n={pg.n} m={pg.m}"
        if args.verify:
            if args.json:
                _print_json({"k": k, "n": pg.n, "m": pg.m, "ok": True})
            else:
                print(f"skeleton k={k}: n={pg.n} m={pg.m} ok")
        if args.out or not args.verify:
            _write_text(args.out, format_planegraph(pg, comment=comment))
        return 0
    code = 0
    if args.verify:
        report = verify_extremal(k)
        pg = report.plane_graph
        code = 0 if report.ok else 2
        if args.json:
            _print_json(report.to_json_dict())
        else:
            print(
                f"k={k}: n={report.n} m={report.m} counts_ok="
                f"{report.counts_ok} pattern_free={report.pattern_free} "
                f"all_g_zero={report.all_g_zero} "
                f"equality={report.bound_equality} ok={report.ok}"
            )
    else:
        pg = substitute_b5a(build_skeleton(k))
    if args.out or not args.verify:
        comment = f"extremal k={k}: n={pg.n} m={pg.m}"
        _write_text(args.out, format_planegraph(pg, comment=comment))
    return code


def _cmd_oracle(args: argparse.Namespace) -> int:
    k, named = _theta_names(args.pattern)
    if args.witnesses and args.n < 2:
        print("error: --witnesses needs --n >= 2", file=sys.stderr)
        return 1
    if args.witnesses:  # a bad path fails before the sweep, not after it
        check_cap(args.n, args.force)  # and a refused sweep leaves no DIR
        outdir = Path(args.witnesses)
        outdir.mkdir(parents=True, exist_ok=True)
    # On fewer than k vertices every pattern of order k is absent, so the
    # edgeless graph of order k, which costs nothing to build, stands in.
    if k <= args.n:
        patterns = tuple(theta_pattern(k, d) for _, d in named)
    else:
        patterns = (Graph(k, frozenset()),)
    result = max_edges(
        args.n,
        patterns,
        pattern_name=args.pattern,
        jobs=args.jobs,
        force=args.force,
    )
    if args.json:
        _print_json(result.to_json_dict())
    else:
        print(
            f"maximum size of {args.pattern}-free planar graphs on "
            f"n={result.n} vertices"
        )
        print("  m   classes")
        for m, size in enumerate(result.level_sizes):
            print(f"{m:>3}   {size}")
        print(f"max edges: {result.max_edges}")
        print(
            f"witnesses: {len(result.witnesses)}  "
            f"explored: {result.explored}  "
            f"elapsed: {result.elapsed:.2f}s  kernel: {KERNEL_NAME}"
        )
    if args.witnesses:
        for i, edges in enumerate(result.witnesses):
            pg = arbitrary_embedding(Graph.from_edges(result.n, edges))
            text = format_planegraph(
                pg,
                comment=(
                    f"oracle witness {i}: n={result.n} "
                    f"pattern={args.pattern}; embedding chosen arbitrarily "
                    "for serialization"
                ),
            )
            (outdir / f"witness_{i:03d}.pg").write_text(
                text, encoding="utf-8"
            )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    pg = _load_plane_graph(args.input)
    _write_text(args.out, export_dot(pg))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.label:
        if args.label not in CATALOG_LABELS:
            print(
                f"error: unknown block label {args.label!r}; expected one "
                f"of {', '.join(CATALOG_LABELS)}",
                file=sys.stderr,
            )
            return 1
        pg = catalog_plane_graph(args.label)
        _write_text(
            args.out,
            format_planegraph(pg, comment=f"catalog block {args.label}"),
        )
        return 0
    if args.json:
        _print_json(
            {
                label: {
                    "n": catalog_graph(label).n,
                    "m": catalog_graph(label).m,
                    "edges": [
                        [u, v] for u, v in sorted(catalog_graph(label).edges)
                    ],
                }
                for label in CATALOG_LABELS
            }
        )
        return 0
    print("label  n  m  edges")
    for label in CATALOG_LABELS:
        g = catalog_graph(label)
        edges = " ".join(f"{u}-{v}" for u, v in sorted(g.edges))
        print(f"{label:5s} {g.n:>2} {g.m:>2}  {edges}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="triblock",
        description=(
            "Triangular-block decomposition, exact contribution "
            "certificates, extremal constructions, and an exhaustive "
            "small-graph oracle for theta-free planar graphs."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", metavar="command", parser_class=_Parser
    )
    sub.required = True

    p = sub.add_parser("decompose", help="partition edges into blocks")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("certify", help="exact contribution certificate")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument(
        "--target",
        required=True,
        help=f"bound to certify: {' or '.join(sorted(SPECS))}",
    )
    p.add_argument(
        "--check-freeness",
        action="store_true",
        help="also search the host for the target pattern",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check-free", help="search for a pattern copy")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--pattern", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_free)

    p = sub.add_parser("construct", help="build the extremal family")
    p.add_argument(
        "--k", type=_int_from(0), required=True, help="family index >= 0"
    )
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument(
        "--skeleton-only",
        action="store_true",
        help="emit the glued skeleton without block substitution",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-verify extremality and print the report",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the --verify report as JSON",
    )
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("oracle", help="exhaustive maximum on small n")
    p.add_argument("--n", type=_int_from(1), required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--jobs", type=_int_from(1), default=1)
    p.add_argument(
        "--witnesses",
        metavar="DIR",
        help="write extremal graphs here in planegraph format",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="run past the safety cap on n",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("export", help="emit Graphviz DOT")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("catalog", help="dump the block catalog")
    p.add_argument(
        "--label", help="emit this block in planegraph format instead"
    )
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early; send the unflushed rest to devnull so the
        # interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (PatternNameError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        PlaneGraphError,
        DecompositionError,
        GluingMismatch,
        TooSmall,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # e.g. construct --k 100000000000
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
