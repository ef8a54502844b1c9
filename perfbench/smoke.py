"""Reduced-size self-check of the benchmark; run from the root of a checkout.

    python3 perfbench/smoke.py

For every workload, runs ``run.py --smoke`` untraced and traced and checks
that the result line names exactly the metrics of ``BENCHMARK.json`` with
their units, that every value is a finite number, that the metrics named
absent are those whose layer the workload never calls and read 0 in the
result line, and that every repetition passed
its output checks. Then checks that the benchmark refuses to run, without a
result, in a directory holding only ``BENCHMARK.json`` and the benchmark.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# metric-name prefixes whose layer the workload never calls
ABSENT = {
    "sweep": ("sparse_grad.estimate_normalized_clip.", "policy."),
    "basic-10k": ("sparse_grad.estimate_normalized_clip.", "policy.", "bench.sweep_cell."),
    "pipeline": ("sparse_grad.solve_1bge_exact.", "bench.", "optimizer.iter_ms_p80"),
}
# quantiles are absent when a run has too few samples for them
MAY_BE_ABSENT = (
    "oracles.query.us_p50",
    "oracles.query.us_p99",
    "optimizer.iter_ms_p50",
    "optimizer.iter_ms_p80",
    "bench.sweep_cell.s_p50",
)


class SmokeFailure(Exception):
    pass


def expect(condition, *detail) -> None:
    if not condition:
        raise SmokeFailure(" ".join(str(d) for d in detail))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    expect(proc.returncode == 0, proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], parse_constant=lambda c: expect(False, "not JSON:", c))
    expect(lines[-2].startswith("absent "), lines[-2])
    reported_absent = set(json.loads(lines[-2][len("absent "):]))
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    expect(set(metrics) == names, "names differ:", sorted(set(metrics) ^ names))
    for spec in expected:
        name = spec["name"]
        value, unit = metrics[name]["value"], metrics[name]["unit"]
        expect(unit == spec["unit"], name, unit, spec["unit"])
        expect(math.isfinite(value), workload, name, "is", value)
        if trace and name.startswith(ABSENT[workload]):
            expect(name in reported_absent, workload, name, "should be absent")
        elif name in reported_absent:
            expect(name in MAY_BE_ABSENT, workload, name, "should not be absent")
        if name in reported_absent:
            expect(value == 0.0, workload, name, "is absent but reads", value)
    print(f"smoke: {workload} trace={trace}: {len(metrics)} metrics ok")


def check_bare_directory() -> None:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "sweep", 0)
        expect(proc.returncode != 0, "benchmark ran without the duelopt sources")
        expect('"metrics"' not in proc.stdout, proc.stdout)
    finally:
        shutil.rmtree(bare)
    print("smoke: refuses to run without src/duelopt")


def main() -> int:
    try:
        for workload in ABSENT:
            for trace in (0, 1):
                check(workload, trace)
        check_bare_directory()
    except SmokeFailure as exc:
        print(f"smoke: FAILED: {exc}", file=sys.stderr)
        return 1
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
