import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_holds_every_declared_metric(capsys, trace, declared):
    assert run.main(["--workload", "random-hosts", "--seed", "2",
                     "--seconds", "0.05", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[declared]}
    report = json.loads(lines[-2])["report"]
    assert report["failed_ratio"] == 0
    assert report["facts"]["kernel"]


def test_fails_without_a_package_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-hosts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
