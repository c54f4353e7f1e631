from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from conftest import antiprism_graph, embed, k5_minus_edge_with_pendant
from triblock.catalog import catalog_plane_graph
from triblock.cli import main, resolve_patterns
from triblock.plane_graph import format_planegraph, parse_planegraph


def write_pg(tmp_path: Path, name: str, pg) -> str:
    path = tmp_path / name
    path.write_text(format_planegraph(pg), encoding="utf-8")
    return str(path)


def run_json(capsys, argv: list[str]) -> tuple[int, dict]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["certify", "--help"]) == 0
    capsys.readouterr()


USAGE_ERRORS = [
    [],
    ["no-such-command"],
    ["certify"],  # --target is required
    ["construct"],  # --k is required
    ["oracle", "--n", "0", "--pattern", "theta6-2"],
    ["oracle", "--n", "-3", "--pattern", "theta6-2"],
    ["oracle", "--n", "5", "--pattern", "theta6-2", "--jobs", "0"],
]


def test_missing_subcommand_is_a_usage_error(capsys):
    for argv in USAGE_ERRORS:
        assert main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err, argv


def test_resolve_patterns():
    assert [label for label, _ in resolve_patterns("theta6-1")] == ["theta6-1"]
    assert [label for label, _ in resolve_patterns("theta:6:3")] == ["theta:6:3"]
    assert [label for label, _ in resolve_patterns("theta-family:6")] == [
        "theta:6:2",
        "theta:6:3",
    ]
    from triblock.cli import PatternNameError

    for bad in ("theta6-3", "theta:3:2", "theta:6:9", "wheel", "theta:x:y"):
        with pytest.raises(PatternNameError):
            resolve_patterns(bad)


def test_catalog_table_and_json(capsys):
    assert main(["catalog"]) == 0
    table = capsys.readouterr().out
    for label in ("B2", "B5a", "B6"):
        assert label in table
    code, data = run_json(capsys, ["catalog", "--json"])
    assert code == 0
    assert set(data) >= {"B2", "B5c", "B6"}
    assert data["B5a"] == {
        "n": 5,
        "m": 9,
        "edges": [[u, v] for u, v in sorted(catalog_plane_graph("B5a").graph.edges)],
    }


def test_catalog_label_round_trips(capsys, tmp_path):
    out = tmp_path / "b5a.pg"
    assert main(["catalog", "--label", "B5a", "--out", str(out)]) == 0
    capsys.readouterr()
    pg = parse_planegraph(out.read_text(encoding="utf-8"))
    assert (pg.n, pg.m) == (5, 9)


def test_catalog_unknown_label(capsys):
    assert main(["catalog", "--label", "B9"]) == 1
    capsys.readouterr()


def test_decompose_json(capsys, tmp_path):
    path = write_pg(tmp_path, "b6.pg", catalog_plane_graph("B6"))
    code, data = run_json(capsys, ["decompose", path, "--json"])
    assert code == 0
    assert data["counts_by_label"] == {"B6": 1}
    assert data["n"] == 6 and data["m"] == 9
    (block,) = data["blocks"]
    assert block["label"] == "B6" and not block["trivial"]


def test_decompose_reads_stdin(capsys, monkeypatch, tmp_path):
    text = format_planegraph(catalog_plane_graph("B4a"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, data = run_json(capsys, ["decompose", "--json"])
    assert code == 0
    assert data["counts_by_label"] == {"B4a": 1}


def test_decompose_rejects_garbage(capsys, tmp_path):
    bad = tmp_path / "bad.pg"
    bad.write_text("planegraph 1\n2 9\n0: 1\n1: 0\n", encoding="utf-8")
    assert main(["decompose", str(bad)]) == 3
    assert main(["decompose", str(tmp_path / "missing.pg")]) == 3
    capsys.readouterr()


def test_certify_b6(capsys, tmp_path):
    path = write_pg(tmp_path, "b6.pg", catalog_plane_graph("B6"))
    assert main(["certify", path, "--target", "theta6-1"]) == 0
    out = capsys.readouterr().out
    assert "bound holds" in out
    code, data = run_json(
        capsys, ["certify", path, "--target", "theta6-1", "--json"]
    )
    assert code == 0
    assert data["identities_ok"] and data["all_nonpositive"]
    assert data["violations"] == []
    assert data["freeness_checked"] is None


def test_certify_check_freeness(capsys, tmp_path):
    path = write_pg(tmp_path, "b6.pg", catalog_plane_graph("B6"))
    code, data = run_json(
        capsys,
        ["certify", path, "--target", "theta6-1", "--check-freeness", "--json"],
    )
    assert code == 0 and data["freeness_checked"] is True


def test_certify_violation_exits_two(capsys, tmp_path):
    path = write_pg(tmp_path, "octa.pg", embed(antiprism_graph(3)))
    assert main(["certify", path, "--target", "theta6-1"]) == 2
    out = capsys.readouterr().out
    assert "POSITIVE" in out


def test_certify_merges_a_bridge_into_its_positive_block(capsys, tmp_path):
    path = write_pg(tmp_path, "pendant.pg", embed(k5_minus_edge_with_pendant()))
    assert main(["certify", path, "--target", "theta6-2"]) == 0
    out = capsys.readouterr().out
    assert "clusters: 1 (1 merged)" in out
    assert "bound holds" in out


def test_certify_bad_target(capsys, tmp_path):
    path = write_pg(tmp_path, "b6.pg", catalog_plane_graph("B6"))
    assert main(["certify", path, "--target", "theta7-1"]) == 1
    capsys.readouterr()


def test_certify_too_small_is_a_structure_error(capsys, tmp_path):
    path = write_pg(tmp_path, "b5c.pg", catalog_plane_graph("B5c"))
    assert main(["certify", path, "--target", "theta6-1"]) == 3
    capsys.readouterr()


def test_check_free(capsys, tmp_path):
    path = write_pg(tmp_path, "b6.pg", catalog_plane_graph("B6"))
    assert main(["check-free", path, "--pattern", "theta6-1"]) == 0
    assert main(["check-free", path, "--pattern", "theta6-2"]) == 2
    assert main(["check-free", path, "--pattern", "no-such"]) == 1
    capsys.readouterr()


def test_check_free_family_reports_first_hit(capsys, tmp_path):
    path = write_pg(tmp_path, "b6.pg", catalog_plane_graph("B6"))
    code, data = run_json(
        capsys, ["check-free", path, "--pattern", "theta-family:6", "--json"]
    )
    assert code == 2
    assert data["free"] is False
    assert data["pattern"] == "theta:6:2"
    assert len(data["witness"]) == 6


def test_construct_writes_the_family_member(capsys, tmp_path):
    out = tmp_path / "extremal0.pg"
    assert main(["construct", "--k", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    pg = parse_planegraph(out.read_text(encoding="utf-8"))
    assert (pg.n, pg.m) == (70, 180)


def test_construct_skeleton_only(capsys, tmp_path):
    out = tmp_path / "skeleton0.pg"
    assert main(["construct", "--k", "0", "--skeleton-only", "--out", str(out)]) == 0
    capsys.readouterr()
    pg = parse_planegraph(out.read_text(encoding="utf-8"))
    assert (pg.n, pg.m) == (30, 60)


def test_construct_verify_json(capsys):
    code, data = run_json(capsys, ["construct", "--k", "0", "--verify", "--json"])
    assert code == 0
    assert data["ok"] is True and data["failures"] == []


def test_construct_rejects_negative_k(capsys):
    assert main(["construct", "--k", "-1"]) == 1
    capsys.readouterr()


def test_oracle_json_and_witness_files(capsys, tmp_path):
    wdir = tmp_path / "wit"
    code, data = run_json(
        capsys,
        [
            "oracle",
            "--n",
            "5",
            "--pattern",
            "theta6-1",
            "--witnesses",
            str(wdir),
            "--json",
        ],
    )
    assert code == 0
    assert data["max_edges"] == 9
    files = sorted(wdir.glob("witness_*.pg"))
    assert len(files) == data["witness_count"] == 1
    pg = parse_planegraph(files[0].read_text(encoding="utf-8"))
    assert (pg.n, pg.m) == (5, 9)


def test_oracle_cap_is_a_usage_error(capsys):
    assert main(["oracle", "--n", "9", "--pattern", "theta6-1"]) == 1
    capsys.readouterr()


def test_oracle_table_output(capsys):
    assert main(["oracle", "--n", "5", "--pattern", "theta6-2"]) == 0
    out = capsys.readouterr().out
    assert "max edges: 9" in out
    assert "kernel:" in out


def test_export_dot(capsys, tmp_path):
    path = write_pg(tmp_path, "b3.pg", catalog_plane_graph("B3"))
    assert main(["export", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph") and out.count("--") == 3


def test_json_output_is_deterministic(capsys, tmp_path):
    path = write_pg(tmp_path, "b6.pg", catalog_plane_graph("B6"))
    argv = ["certify", path, "--target", "theta6-2", "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_oracle_json_deterministic_modulo_timing(capsys):
    argv = ["oracle", "--n", "5", "--pattern", "theta6-1", "--json"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    first.pop("elapsed_seconds")
    second.pop("elapsed_seconds")
    assert first == second


def test_construct_decompose_certify_pipeline(capsys, monkeypatch):
    # construct --k 1 | decompose --json
    assert main(["construct", "--k", "1"]) == 0
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, data = run_json(capsys, ["decompose", "--json"])
    assert code == 0
    assert data["counts_by_label"] == {"B5a": 70}

    # construct --k 1 | certify --target theta6-1
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["certify", "--target", "theta6-1"]) == 0
    out = capsys.readouterr().out
    assert "holds with equality" in out
