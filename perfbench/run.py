"""duelopt benchmark: time to solution and query throughput of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,basic-10k,pipeline} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Each invocation starts fresh child processes (``child.py``) with one BLAS
thread and ``PYTHONPATH=<checkout>/src``.

- ``--trace 0``: several children only time set-up, then one runs the
  workload. The end-to-end metrics give times in reference seconds (see
  ``child.py``), and the raw wall-clock figures are printed beside them.
- ``--trace 1``: one child runs every input untraced and then traced, and
  the per-layer metrics of the traced repetitions are printed.
- ``--smoke`` shrinks every workload for a quick self-check.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit). JSON has
no NaN, so a per-layer metric that is absent (the workload never calls its
layer) is 0 there; the line before the result, ``absent [...]``, names them.

Exits 2 without a result when the checkout holds no ``src/duelopt``, or when
no repetition passed its checks, so that there is no time to report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 4  # set-up-only children; the workload child adds one more sample
TIME_LIMIT_S = 170.0


def _child(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run child.py to completion and return its JSON result."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(CHILD),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *(["--smoke"] if args.smoke else []),
        *extra,
    ]
    # run() kills the child on timeout and waits for it before raising
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """HEAD of the checkout, read from .git; the checkout need not be a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "none (not a git checkout)"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "duelopt").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced-size workloads")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "duelopt" / "__init__.py").is_file():
        print(f"error: no duelopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setup = [_child(args, deadline, "--setup-probe") for _ in range(probes)]
        run = _child(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup.append(run)
    if not args.trace and math.isnan(run["untraced"]["wall_s"]):
        for error in run["errors"]:
            print(f"failed repetition: {error}", file=sys.stderr)
        print("error: no repetition passed its checks", file=sys.stderr)
        return 2

    attempted = run["attempted"]
    failed = len(run["errors"])
    table = {}
    if args.trace:
        for name, (value, unit) in run["layers"].items():
            table[name] = (value, unit, f"{run['traced_samples']} traced repetitions")
    else:
        untraced = run["untraced"]
        table["wall_s"] = (untraced["wall_s"], "s", f"{untraced['samples']} repetitions")
        table["queries_per_s"] = (untraced["queries_per_s"], "queries/s", f"{untraced['samples']} repetitions")
        table["peak_rss_mb"] = (run["peak_rss_mb"], "MiB", "1 child")
        table["setup_s"] = (statistics.median(c["setup_s"] for c in setup), "s", f"{len(setup)} children")
    table["failed_frac"] = (failed / attempted, "ratio", f"{failed} of {attempted} repetitions")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": run["inputs"],
        "config": WORKLOADS[args.workload].smoke_config if args.smoke else WORKLOADS[args.workload].config,
        "commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": run["python"],
        "numpy": run["numpy"],
        "spans_file": run.get("spans_file"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit, samples) in table.items():
        shown = "absent" if math.isnan(value) else repr(value)
        print(f"{name:42s} {shown:>24s} {unit:10s} n={samples}")
    if not args.trace:
        raw = run["untraced_raw"]
        print(
            "wall-clock, not normalized: "
            f"wall_s {raw['wall_s']!r} s, queries_per_s {raw['queries_per_s']!r} queries/s, "
            f"setup_s {statistics.median(c['setup_raw_s'] for c in setup)!r} s; "
            f"reference task {run['reference_s']!r} s"
        )
    for error in run["errors"]:
        print(f"failed repetition: {error}")

    if args.trace:
        names = ["failed_frac", *run["layers"]]
    else:
        names = ["wall_s", "queries_per_s", "peak_rss_mb", "setup_s"]
    absent = [n for n in names if math.isnan(table[n][0])]
    print("absent " + json.dumps(absent))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": 0.0 if n in absent else table[n][0], "unit": table[n][1]}
            for n in names
        },
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
