from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import antiprism_graph, embed, k5_minus_edge_with_pendant
from triblock.catalog import catalog_plane_graph
from triblock.cli import PatternNameError, _theta_names, main
from triblock.constructions import build_skeleton
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
    ["oracle", "--n", "5", "--pattern", "theta-family:3"],
    ["oracle", "--n", "1", "--pattern", "theta6-2", "--witnesses", "unused"],
    ["check-free", "--pattern", "theta-family:3"],
    ["construct", "--k", "0", "--json"],  # --json needs --verify
    ["construct", "--k", "0", "--skeleton-only", "--json"],
]


def test_missing_subcommand_is_a_usage_error(capsys):
    for argv in USAGE_ERRORS:
        assert main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err, argv


def test_resolve_patterns():
    def names(name):
        k, named = _theta_names(name)
        return k, list(named)

    assert names("theta6-1") == (6, [("theta6-1", 3)])
    assert names("theta6-2") == (6, [("theta6-2", 2)])
    assert names("theta:6:3") == (6, [("theta:6:3", 3)])
    assert names("theta-family:6") == (
        6,
        [("theta:6:2", 2), ("theta:6:3", 3)],
    )
    for bad in (
        "theta6-3",
        "theta:3:2",
        "theta:6:9",
        "wheel",
        "theta:x:y",
        "theta-family:3",
    ):
        with pytest.raises(PatternNameError):
            _theta_names(bad)


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


def test_decompose_rejects_garbage(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.pg"
    bad.write_text("planegraph 1\n2 9\n0: 1\n1: 0\n", encoding="utf-8")
    assert main(["decompose", str(bad)]) == 3
    assert main(["decompose", str(tmp_path / "missing.pg")]) == 3
    capsys.readouterr()
    not_utf8 = tmp_path / "not_utf8.pg"
    not_utf8.write_bytes(b"\xff\xfe")
    for argv in (
        ["decompose", str(not_utf8)],
        ["certify", str(not_utf8), "--target", "theta6-1"],
        ["check-free", str(not_utf8), "--pattern", "theta6-1"],
        ["export", str(not_utf8)],
    ):
        assert main(argv) == 3, argv
        assert "error:" in capsys.readouterr().err, argv
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["decompose"]) == 3
    assert "error:" in capsys.readouterr().err


def test_decompose_into_a_closed_pipe_exits_quietly(tmp_path):
    # `triblock decompose g.pg | head -1`: the reader is gone before the
    # first write, which must end the command with exit 0 and no message.
    path = write_pg(tmp_path, "b6.pg", catalog_plane_graph("B6"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "triblock.cli", "decompose", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_python_m_triblock_runs_the_command():
    # `python -m triblock` is the same command as `triblock`, with its
    # documented exit codes.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "triblock", "oracle", "--n", "4", "--pattern"]
    done = subprocess.run(
        [*command, "theta6-1"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "max edges: 6" in done.stdout
    done = subprocess.run(
        [*command, "theta9-9"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")


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


def test_no_pattern_larger_than_the_host_is_built(capsys, tmp_path, monkeypatch):
    import triblock.cli as cli

    sizes: list[int] = []
    build = cli.theta_pattern

    def recording(k: int, d: int):
        sizes.append(k)
        assert k <= 6, f"built a pattern on {k} vertices"  # before it eats memory
        return build(k, d)

    monkeypatch.setattr(cli, "theta_pattern", recording)
    k3 = write_pg(tmp_path, "k3.pg", catalog_plane_graph("B3"))
    for name in ("theta:99999999:2", "theta-family:99999999", "theta6-1"):
        assert main(["check-free", k3, "--pattern", name]) == 0
        assert capsys.readouterr().out == f"free of {name}\n"
    assert sizes == []
    b6 = write_pg(tmp_path, "b6.pg", catalog_plane_graph("B6"))
    assert main(["check-free", b6, "--pattern", "theta-family:6"]) == 2
    assert main(["oracle", "--n", "5", "--pattern", "theta:99999999:2"]) == 0
    assert "max edges: 9" in capsys.readouterr().out
    assert sizes == [6]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--k", "100000000000"],
        ["construct", "--k", "100000000000", "--skeleton-only"],
        ["construct", "--k", "100000000000", "--verify", "--json"],
    ],
)
def test_construct_out_of_memory_is_exit_3_with_one_line(capsys, monkeypatch, argv):
    # A k whose chain cannot be allocated; the stub fails before anything is.
    def out_of_memory(k):
        raise MemoryError

    monkeypatch.setattr("triblock.constructions.build_skeleton", out_of_memory)
    monkeypatch.setattr("triblock.cli.build_skeleton", out_of_memory)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_construct_verify_writes_the_member_it_checked(
    capsys, monkeypatch, tmp_path
):
    builds = []

    def counting_build(k):
        builds.append(k)
        return build_skeleton(k)

    monkeypatch.setattr("triblock.constructions.build_skeleton", counting_build)
    monkeypatch.setattr("triblock.cli.build_skeleton", counting_build)
    out = tmp_path / "extremal0.pg"
    assert main(["construct", "--k", "0", "--verify", "--out", str(out)]) == 0
    capsys.readouterr()
    pg = parse_planegraph(out.read_text(encoding="utf-8"))
    assert (pg.n, pg.m) == (70, 180)
    assert builds == [0]


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


def test_oracle_rejects_a_witness_path_before_the_sweep(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    argv = ["oracle", "--n", "3", "--pattern", "theta6-1", "--witnesses", str(taken)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_oracle_cap_is_a_usage_error(capsys, tmp_path):
    assert main(["oracle", "--n", "9", "--pattern", "theta6-1"]) == 1
    capsys.readouterr()
    wdir = tmp_path / "wit"
    argv = ["oracle", "--n", "9", "--pattern", "theta6-1", "--witnesses", str(wdir)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: n=9 exceeds the cap")
    assert not wdir.exists()


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
