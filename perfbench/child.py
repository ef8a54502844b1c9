"""One fresh process of the benchmark: set duelopt up, then run one workload.

``run.py`` starts this script with ``PYTHONPATH=<checkout>/src`` and one BLAS
thread. Set-up is timed first: ``import duelopt`` plus one
``cli.build_config``. With ``--setup-probe`` the process stops there.
Otherwise it runs a small warm-up config, then repetitions of the workload in
a closed loop: each starts when the previous one ends, in this one thread.
``--trace 0`` makes one pass over the run's inputs and repeats inputs while
``--seconds`` allows, at least once, so that the artifacts of a repeated
input can be compared byte for byte. ``--trace 1`` runs each input exactly
twice, untraced and then traced, so per-repetition layer metrics always cover
the same inputs, and machine drift falls on both sides of the tracing
overhead alike. The traced artifacts must equal the untraced ones.

Machine speed on a shared host drifts by 20% or more over minutes, for every
process alike. So ``--trace 0`` times a fixed reference task, which does not
use duelopt, before the first repetition and after each one. It reports each
repetition's time in reference seconds: measured seconds, times
``REFERENCE_S``, divided by the mean of the two reference times around it.
Set-up is scaled the same way, by one reference time taken right after it.
Raw wall-clock figures are reported alongside.

The last line of standard output is one JSON object for ``run.py``.
"""

import sys
import time

_started = time.perf_counter()
import duelopt  # noqa: E402  (the import is part of the timed set-up)
from duelopt import cli  # noqa: E402

IMPORT_S = time.perf_counter() - _started

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, artifact_digests, input_seeds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
NAN = float("nan")
# the reference task's time on an idle 2-core Xeon VM (Python 3.11, numpy 2.4)
REFERENCE_S = 0.1


def reference_s() -> float:
    """Seconds taken by a fixed task: Philox draws, norms and dict updates, as duelopt does."""
    started = time.perf_counter()
    for i in range(1500):
        z = np.random.Generator(np.random.Philox(key=i)).standard_normal(2000)
        z /= np.linalg.norm(z)
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return time.perf_counter() - started


class Runner:
    def __init__(self, workload, smoke: bool, work: Path):
        self.workload = workload
        self.smoke = smoke
        self.work = work
        self.digests: dict[int, dict[str, str]] = {}
        self.reps: list[dict] = []

    def rep(self, seed: int, warmup: bool = False, tracer: spans.Tracer | None = None) -> dict:
        """One repetition in its own output dir, checked, hashed and deleted.

        With ``tracer``, the layer wrappers are installed for this repetition only.
        """
        out = Path(tempfile.mkdtemp(dir=self.work))
        rec = {"seed": seed, "traced": tracer is not None, "ok": False, "error": None}
        uninstall = None
        if tracer is not None:
            tracer.rep_id = len(self.reps)
            uninstall = spans.install(tracer)
        try:
            started = time.perf_counter()
            config = cli.build_config(
                self.workload.raw_config(seed, out, smoke=self.smoke or warmup)
            )
            manifest = cli.run_experiment(config)
            rec["wall_s"] = time.perf_counter() - started
            if warmup:
                return rec
            error = self.workload.check(config, manifest, out)
            rec["oracle_calls"] = int(self.workload.oracle_calls(manifest, out))
            rec["artifact_bytes"] = sum(Path(p).stat().st_size for p in manifest.artifacts.values())
            digests = artifact_digests(out)
            first = self.digests.setdefault(seed, digests)
            if error is None and digests != first:
                changed = sorted(n for n in set(first) | set(digests) if first.get(n) != digests.get(n))
                error = f"artifacts differ from the first repetition of input {seed}: {changed}"
            rec["error"] = error
            rec["ok"] = error is None
        except Exception as exc:  # a failed repetition is recorded and the run goes on
            traceback.print_exc(file=sys.stderr)
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if uninstall is not None:
                uninstall()
            shutil.rmtree(out, ignore_errors=True)
        if not warmup:
            self.reps.append(rec)
        return rec

    def passes(self, seeds: list[int], budget_s: float) -> list[dict]:
        """One pass over ``seeds``, then repeats from the first seed.

        Repeats continue while another repetition fits in ``budget_s``, and
        number at least one. Every input is measured, so the inputs behind a
        run's figures never depend on its speed. Each repetition records the
        mean reference time around it as ``ref_s``.
        """
        started = time.perf_counter()
        before = reference_s()
        done = 0
        while done <= len(seeds) or (time.perf_counter() - started) * (done + 1) / done <= budget_s:
            rec = self.rep(seeds[done % len(seeds)])
            after = reference_s()
            rec["ref_s"] = (before + after) / 2
            before = after
            done += 1
        return self.reps


def summarize(reps: list[dict], normalize: bool) -> dict:
    """Time per repetition and queries per second over ``reps``.

    ``wall_s`` is the mean over inputs of each input's median repetition
    time, in reference seconds when ``normalize``.
    """
    by_seed: dict[int, list[dict]] = {}
    for rec in reps:
        if rec["ok"]:
            by_seed.setdefault(rec["seed"], []).append(rec)
    if not by_seed:
        return {"wall_s": NAN, "queries_per_s": NAN, "samples": 0}

    def seconds(rec: dict) -> float:
        return rec["wall_s"] * REFERENCE_S / rec["ref_s"] if normalize else rec["wall_s"]

    walls = [statistics.median(seconds(r) for r in recs) for recs in by_seed.values()]
    calls = [recs[0]["oracle_calls"] for recs in by_seed.values()]
    return {
        "wall_s": statistics.fmean(walls),
        "queries_per_s": sum(calls) / sum(walls),
        "samples": sum(len(recs) for recs in by_seed.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(duelopt.__file__).resolve().parents:
        print(f"error: duelopt imported from {duelopt.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seeds = input_seeds(args.seed, workload.inputs)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        started = time.perf_counter()
        cli.build_config(workload.raw_config(seeds[0], work, smoke=args.smoke))
        setup_raw_s = IMPORT_S + time.perf_counter() - started
        setup = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * REFERENCE_S / reference_s()}
        if args.setup_probe:
            print(json.dumps(setup))
            return 0

        runner = Runner(workload, args.smoke, work)
        runner.rep(seeds[0], warmup=True)
        result = {
            **setup,
            "inputs": seeds,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        if not args.trace:
            untraced = runner.passes(seeds, args.seconds)
            result["untraced"] = summarize(untraced, normalize=True)
            result["untraced_raw"] = summarize(untraced, normalize=False)
            result["reference_s"] = statistics.median(r["ref_s"] for r in untraced)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            tracer = spans.Tracer()
            for seed in seeds:
                runner.rep(seed)
                runner.rep(seed, tracer=tracer)
            untraced = summarize([r for r in runner.reps if not r["traced"]], normalize=False)
            traced_reps = [r for r in runner.reps if r["traced"]]
            traced = summarize(traced_reps, normalize=False)
            layers = spans.layer_metrics(
                tracer,
                len(traced_reps),
                statistics.fmean(r.get("artifact_bytes", 0) for r in traced_reps),
            )
            layers["trace.overhead_frac"] = (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio")
            result["layers"] = layers
            result["traced_samples"] = traced["samples"]
            spans_file = WORK_DIR / "spans" / f"{workload.name}-seed{args.seed}.npz"
            tracer.save(spans_file)
            result["spans_file"] = str(spans_file.relative_to(ROOT))
        result["attempted"] = len(runner.reps)
        result["errors"] = [r["error"] for r in runner.reps if not r["ok"]]
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
