"""Run one benchmark workload against the package in this checkout.

    python3 perfbench/run.py --workload family-certify --seed 1 --seconds 35 --trace 0

Set-up is timed three times, each from a cold import of the package: once
in this process and twice in fresh interpreters; ``setup_s`` is the median.
Then ops run back to back (a closed loop with one client) until
``--seconds`` have passed, each op's output is checked outside its timing,
and the last line of standard output is the result object whose metrics
BENCHMARK.json declares.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
an untraced and a traced op alternate on each input: the traced ops give
the per-layer metrics (self seconds and calls per op, outcome ratios), the
pairs give ``trace.overhead_ratio``, and the spans are written to
``perfbench/out/``.  The line before the result is a report: run facts, the
workload's properties, and the figures BENCHMARK.json cannot declare because
they exist on one workload only (``op_s_p90``, per-stage seconds) or are 0
when all is well (``failed_ratio``).

``--workload all`` runs every workload in turn, each in its own process.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the package or the workload cannot be loaded.  The benchmark's own tests:
``PYTHONPATH=src python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3


def timed_setup(name: str, seed: int):
    """Cold-import the package, then make the workload's inputs."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]()
    inputs = workload.setup(seed)
    return time.perf_counter() - start, workload, inputs


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def one_op(workload, value, around=nullcontext):
    """Run and check one op; returns (stage seconds or None, problems, output)."""
    import workloads

    try:
        with around():
            out, times = workloads.run_stages(workload.stages, value)
    except Exception:  # an op that raises is a failed op, not a failed run
        return None, [traceback.format_exc()], None
    try:
        return times, workload.check(value, out), out
    except Exception:
        return times, [traceback.format_exc()], out


class Tally:
    """Ops attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.last = None  # output of the last correct op

    def add(self, problems: list[str], out) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[: 5 - len(self.problems)]
        else:
            self.last = out


def measure(workload, inputs, seconds: float, tally: Tally):
    ops: list[list[float]] = []
    start = time.perf_counter()
    while not tally.attempted or time.perf_counter() - start < seconds:
        gc.collect()
        times, problems, out = one_op(workload, inputs[tally.attempted % len(inputs)])
        tally.add(problems, out)
        if times is not None:
            ops.append(times)
    if not ops:
        return {}, {}
    totals = [sum(t) for t in ops]
    values = {
        "op_s": statistics.median(totals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra: dict = {"timed_ops": len(ops)}
    if len(ops) >= 100:  # at least ten samples above the 90th percentile
        extra["op_s_p90"] = statistics.quantiles(totals, n=10)[-1]
    if len(workload.stages) > 1:
        for i, (stage, _) in enumerate(workload.stages):
            extra[f"{stage}_s"] = statistics.median(t[i] for t in ops)
    return values, extra


def measure_traced(workload, inputs, seconds: float, tally: Tally, spans: Path):
    import tracer

    trace = tracer.Tracer()
    slowdowns, result = [], None  # traced over untraced seconds, per pair
    start = time.perf_counter()
    while not tally.attempted or time.perf_counter() - start < seconds:
        value = inputs[len(slowdowns) % len(inputs)]
        gc.collect()
        plain, problems, out = one_op(workload, value)
        tally.add(problems, out)
        gc.collect()
        traced, problems, out = one_op(workload, value, trace.op)
        tally.add(problems, out)
        if plain is not None and traced is not None:
            slowdowns.append(sum(traced) / sum(plain))
            result = out
    pairs = len(slowdowns)
    if not pairs:
        return {}, {}
    stats = trace.summarize()
    values = tracer.layer_values(stats, pairs)
    values["trace.overhead_ratio"] = statistics.median(slowdowns) - 1
    if hasattr(workload, "layer_values"):
        values.update(workload.layer_values(stats, pairs, result))
    spans.parent.mkdir(exist_ok=True)
    trace.write_tsv(spans)
    return values, {"traced_ops": pairs, "spans": str(spans.relative_to(ROOT))}


def run_facts() -> dict:
    import networkx
    import triblock

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "commit": commit,
        "kernel": triblock.patterns.KERNEL_NAME,
    }


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in its own process; the last line sums them up."""
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1):
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "triblock" / "__init__.py").is_file():
        print(f"error: no triblock package at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    if args.workload == "all":
        return run_all(args, names)

    setup_s, workload, inputs = timed_setup(args.workload, args.seed)
    import triblock

    if not Path(triblock.__file__).resolve().is_relative_to(SRC):
        print(f"error: triblock was imported from {triblock.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_s)
        return 0
    setups = [setup_s] + [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]

    gc.collect()
    gc.freeze()  # keep the inputs out of the collections the ops trigger
    tally = Tally()
    if args.trace:
        spans = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}.spans.tsv"
        values, extra = measure_traced(workload, inputs, args.seconds, tally, spans)
    else:
        values, extra = measure(workload, inputs, args.seconds, tally)
    if values and not args.trace:
        values["setup_s"] = statistics.median(setups)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A per-layer metric of a layer the workload does not reach reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared} if values else {}
    correct = bool(values) and tally.failed == 0

    for problem in tally.problems:
        print(problem, file=sys.stderr)
    report = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": run_facts(),
        "properties": workload.properties(inputs, tally.last) if tally.last else {},
        "setup_s_samples": setups,
        "failed_ratio": tally.failed / tally.attempted,
        **extra,
        "metrics": values,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
