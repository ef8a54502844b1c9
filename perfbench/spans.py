"""Spans around the public functions of each duelopt layer, and the per-layer metrics.

``install`` replaces each function at the name its caller looks it up under
(``optimizer.measure_bits``, not ``oracles.measure_bits``; class attributes
for methods), so the package itself stays untouched. Every call records a
span: label, start, end, parent span and repetition id. Spans stay in memory
in flat int64 columns and are written out once, by ``Tracer.save``.

A span's self time is its duration minus the time its child spans cover.
Metrics are per repetition: totals divided by the number of traced
repetitions. A metric whose layer a workload never calls is NaN here:
absent, not zero. ``run.py`` names the absent metrics and writes them as 0
in its JSON result line, since JSON has no NaN.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LOOPS = ("bench.run_basic", "cli.run_basic", "policy.run_practical")
QUERIES = ("bench.compare_function", "policy.compare_preference")
ESTIMATORS = ("sparse_grad.solve_1bge_exact", "sparse_grad.estimate_normalized_clip")
ABSENT = float("nan")


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rep = array("q")
        self.child = array("q")  # ns of this span covered by child spans
        self._stack: list[int] = []
        self.rep_id = -1
        self.counts: Counter = Counter()

    def wrap(self, label: str, fn):
        """``fn`` with a span around each call."""
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        lid = self._ids[label]
        clock = time.perf_counter_ns
        starts, ends, children, stack = self.start, self.end, self.child, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            self.label.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.rep.append(self.rep_id)
            ends.append(0)
            children.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t = clock()
                ends[i] = t
                stack.pop()
                if stack:
                    children[stack[-1]] += t - starts[i]

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        cols = {
            name: np.frombuffer(getattr(self, name), dtype=np.int64).copy()
            for name in ("label", "start", "end", "parent", "rep", "child")
        }
        cols["self"] = cols["end"] - cols["start"] - cols["child"]
        return cols

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, labels=np.array(self.labels), **self.columns())


def install(tracer: Tracer):
    """Wrap every traced layer function in place; returns a function that undoes it."""
    from duelopt import bench, cli, core, optimizer, oracles, policy
    from duelopt.errors import DegenerateMeasurementError
    from duelopt.oracles import Sign

    counts = tracer.counts

    def count_minus(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            answer = fn(*args, **kwargs)
            if answer == Sign.MINUS:
                counts["minus"] += 1
            return answer

        return inner

    def count_degenerate(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except DegenerateMeasurementError:
                counts["degenerate"] += 1
                raise

        return inner

    def count_loop(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            traj = fn(*args, **kwargs)
            counts["iterations"] += len(traj.records)
            counts["loop_calls"] += traj.total_oracle_calls
            for rec in traj.records:
                if rec.skipped:
                    counts["skipped"] += 1
                    counts["skipped_calls"] += rec.oracle_calls
            return traj

        return inner

    def count_feature_hits(fn):
        @functools.wraps(fn)
        def inner(policy_self, *args, **kwargs):
            cached = len(policy_self._feature_cache)
            feat = fn(policy_self, *args, **kwargs)
            if len(policy_self._feature_cache) == cached:
                counts["feature_hits"] += 1
            return feat

        return inner

    def timed_objective(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            obj = fn(*args, **kwargs)
            return dataclasses.replace(
                obj,
                value=tracer.wrap("bench.value", obj.value),
                gradient=tracer.wrap("bench.gradient", obj.gradient),
            )

        return inner

    def same(fn):
        return fn

    targets = [
        (core.RngState, "substream", "core.substream", same),
        (oracles, "embed_perturbation", "core.embed_perturbation", same),
        (core.ParamVector, "content_hash", "core.content_hash", same),
        (core.ParamVector, "with_scope_values", "core.with_scope_values", same),
        (optimizer, "measure_bits", "oracles.measure_bits", same),
        (oracles.BitMeasurementBatch, "signed_direction_sum", "oracles.signed_direction_sum", same),
        (bench, "compare_function", "bench.compare_function", count_minus),
        (policy, "compare_preference", "policy.compare_preference", count_minus),
        (optimizer, "solve_1bge_exact", "sparse_grad.solve_1bge_exact", count_degenerate),
        (
            optimizer,
            "estimate_normalized_clip",
            "sparse_grad.estimate_normalized_clip",
            count_degenerate,
        ),
        (bench, "run_basic", "bench.run_basic", count_loop),
        (cli, "run_basic", "cli.run_basic", count_loop),
        (policy, "run_practical", "policy.run_practical", count_loop),
        (bench, "make_sparse_quadratic", "bench.make_sparse_quadratic", timed_objective),
        (policy, "generate_preference_data", "policy.generate_preference_data", same),
        (policy, "split_by_margin", "policy.split_by_margin", same),
        (policy, "train_dpo", "policy.train_dpo", same),
        (policy, "dpo_grad", "policy.dpo_grad", same),
        (policy, "likelihood_report", "policy.likelihood_report", same),
        (policy.ToyPolicy, "sequence_log_likelihood", "policy.loglik", same),
        (policy.ToyPolicy, "features", "policy.features", count_feature_hits),
        (cli, "build_config", "cli.build_config", same),
        (cli, "export_results", "cli.export_results", same),
        (cli, "run_experiment", "cli.run_experiment", same),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    for owner, attr, label, extra in targets:
        setattr(owner, attr, tracer.wrap(label, extra(getattr(owner, attr))))

    def uninstall() -> None:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

    return uninstall


def _quantile(values: np.ndarray, q: float, n: float) -> float:
    """q-quantile, reported only when ``n`` samples leave ten beyond it.

    Query and iteration times count samples per repetition (p80 of iterations
    needs 50 per repetition); sweep cells count all traced cells.
    """
    if n * (1.0 - q) < 10:
        return ABSENT
    return float(np.quantile(values, q))


def layer_metrics(tracer: Tracer, reps: int, artifact_bytes: float) -> dict[str, tuple[float, str]]:
    """Per-repetition metrics of the traced repetitions, as name -> (value, unit)."""
    cols = tracer.columns()
    label, parent, self_ns = cols["label"], cols["parent"], cols["self"]
    dur = cols["end"] - cols["start"]
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def mask(*labels: str) -> np.ndarray:
        return np.isin(label, [i for i, name in enumerate(tracer.labels) if name in labels])

    def put(name: str, unit: str, present, value) -> None:
        """``value`` is a thunk, evaluated only when the layer was called."""
        out[name] = (float(value()) if present else ABSENT, unit)

    def calls(name: str, m: np.ndarray) -> None:
        put(name, "count", m.any(), lambda: np.count_nonzero(m) / reps)

    def self_s(name: str, m: np.ndarray) -> None:
        put(name, "s", m.any(), lambda: self_ns[m].sum() / reps / 1e9)

    def total_s(name: str, m: np.ndarray) -> None:
        put(name, "s", m.any(), lambda: dur[m].sum() / reps / 1e9)

    def per_query(name: str, m: np.ndarray) -> None:
        """Calls made inside a query, per query."""
        put(name, "calls/query", m.any(), lambda: np.count_nonzero(m & in_query) / queries)

    query = mask(*QUERIES)
    queries = np.count_nonzero(query)
    queries_per_rep = queries / reps
    in_query = np.isin(parent, np.flatnonzero(query))

    for layer in ("core.substream", "core.embed_perturbation", "core.content_hash"):
        m = mask(layer)
        calls(f"{layer}.calls", m)
        self_s(f"{layer}.self_s", m)
    self_s("core.with_scope_values.self_s", mask("core.with_scope_values"))

    measure = mask("oracles.measure_bits")
    calls("oracles.measure_bits.calls", measure)
    self_s("oracles.measure_bits.self_s", measure)
    put(
        "oracles.measure_bits.self_us_per_query", "us/query", measure.any(),
        lambda: self_ns[measure].sum() / queries / 1e3,
    )
    calls("oracles.query.calls", query)
    self_s("oracles.query.self_s", query)
    put("oracles.query.us_p50", "us", queries, lambda: _quantile(dur[query], 0.5, queries_per_rep) / 1e3)
    put("oracles.query.us_p99", "us", queries, lambda: _quantile(dur[query], 0.99, queries_per_rep) / 1e3)
    m = mask("oracles.signed_direction_sum")
    calls("oracles.signed_direction_sum.calls", m)
    self_s("oracles.signed_direction_sum.self_s", m)
    put("oracles.improving_frac", "ratio", queries, lambda: counts["minus"] / queries)

    for layer in ESTIMATORS:
        m = mask(layer)
        calls(f"{layer}.calls", m)
        self_s(f"{layer}.self_s", m)
    put("sparse_grad.degenerate.count", "count", mask(*ESTIMATORS).any(), lambda: counts["degenerate"] / reps)

    loops = mask(*LOOPS)
    iterations = counts["iterations"]
    iters_ms = _iteration_ms(cols, loops, measure)
    put("optimizer.iterations", "count", loops.any(), lambda: iterations / reps)
    put("optimizer.oracle_calls", "count", loops.any(), lambda: counts["loop_calls"] / reps)
    put("optimizer.iter_ms_p50", "ms", iters_ms.size, lambda: _quantile(iters_ms, 0.5, iterations / reps))
    put("optimizer.iter_ms_p80", "ms", iters_ms.size, lambda: _quantile(iters_ms, 0.8, iterations / reps))
    self_s("optimizer.loop.self_s", loops)
    put("optimizer.skipped_frac", "ratio", iterations, lambda: counts["skipped"] / iterations)
    put(
        "optimizer.wasted_query_frac", "ratio", counts["loop_calls"],
        lambda: counts["skipped_calls"] / counts["loop_calls"],
    )

    value = mask("bench.value")
    calls("bench.value.calls", value)
    self_s("bench.value.self_s", value)
    per_query("bench.value.per_query", value)
    self_s("bench.gradient.self_s", mask("bench.gradient"))
    cells = _sweep_cell_s(cols, mask("bench.make_sparse_quadratic"), mask("bench.run_basic"))
    put("bench.sweep_cell.s_p50", "s", cells.size, lambda: _quantile(cells, 0.5, cells.size))

    loglik = mask("policy.loglik")
    calls("policy.loglik.calls", loglik)
    self_s("policy.loglik.self_s", loglik)
    per_query("policy.loglik.per_query", loglik)
    features = mask("policy.features")
    calls("policy.features.calls", features)
    put(
        "policy.features.hit_ratio", "ratio", features.any(),
        lambda: counts["feature_hits"] / np.count_nonzero(features),
    )
    for stage in ("generate_preference_data", "split_by_margin", "train_dpo"):
        total_s(f"policy.{stage}.s", mask(f"policy.{stage}"))
    calls("policy.dpo_grad.calls", mask("policy.dpo_grad"))
    total_s("policy.refine.s", mask("policy.run_practical"))
    total_s("policy.likelihood_report.s", mask("policy.likelihood_report"))

    total_s("cli.build_config.s", mask("cli.build_config"))
    export = mask("cli.export_results")
    calls("cli.export_results.calls", export)
    total_s("cli.export_results.s", export)
    run = mask("cli.run_experiment")
    self_s("cli.run_experiment.self_s", run)
    put("cli.artifact_bytes", "bytes", run.any(), lambda: artifact_bytes)
    return out


def _iteration_ms(cols: dict, loops: np.ndarray, measures: np.ndarray) -> np.ndarray:
    """Iteration times: from one ``measure_bits`` start to the next in the same loop.

    The last iteration of a loop ends where the loop span ends.
    """
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    out = []
    for loop in np.flatnonzero(loops):
        starts = np.sort(start[measures & (parent == loop)])
        if starts.size:
            out.append(np.diff(np.append(starts, end[loop])))
    return np.concatenate(out) / 1e6 if out else np.empty(0)


def _sweep_cell_s(cols: dict, objectives: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Sweep cell times: objective construction start to the end of its basic loop."""
    obj_idx = np.flatnonzero(objectives)
    run_idx = np.flatnonzero(runs)
    if not obj_idx.size or not run_idx.size:
        return np.empty(0)
    # spans are stored in start order: a cell's objective is the last one before its run
    cell_obj = obj_idx[np.searchsorted(obj_idx, run_idx) - 1]
    return (cols["end"][run_idx] - cols["start"][cell_obj]) / 1e9
