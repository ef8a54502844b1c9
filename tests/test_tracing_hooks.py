"""The benchmark's traced run wraps package functions where their callers look them up.

``perfbench/spans.py`` replaces functions by module or class attribute. A
refactor that binds one of them at import time, or moves a loop entry point,
leaves the traced run silently counting nothing, so these tests check that
the wrapped names are called and that uninstalling restores the package.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from duelopt import bench, cli, core, optimizer, oracles, policy

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (
    bench, cli, core, optimizer, oracles, policy,
    core.RngState, core.ParamVector, oracles.BitMeasurementBatch, policy.ToyPolicy,
)


RUNS = {
    "basic": {"mode": "basic", "d": 30, "s": 3, "Delta": 0.3, "c_m": 2.0, "T": 3},
    "pipeline": {"mode": "pipeline", "n_clean": 4, "n_noisy": 2, "dpo_epochs": 1, "m": 10},
    # m = 25 rows of the shortest length filled ahead: chunks of 8, 8, 8 and 1
    "basic-long": {"mode": "basic", "d": core._SPLIT_MIN_DIM, "s": 2, "Delta": 0.3,
                   "c_m": 1.2, "epsilon": 0.5},
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def attributes():
    return {owner: dict(vars(owner)) for owner in OWNERS}


def replaced(before, after):
    return {
        (getattr(owner, "__name__", owner), name)
        for owner in OWNERS
        for name in set(before[owner]) | set(after[owner])
        if before[owner].get(name) is not after[owner].get(name)
    }


def test_install_wraps_caller_names_and_uninstall_restores(tmp_path):
    # the long basic run fills rows ahead on the worker thread
    core._row_worker()  # made on first use; made here, it is no change the runs make
    spans = load_spans()
    before = attributes()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert {
            ("duelopt.optimizer", "measure_bits"),
            ("duelopt.optimizer", "solve_1bge_exact"),
            ("duelopt.optimizer", "estimate_normalized_clip"),
            ("duelopt.cli", "run_basic"),
            ("duelopt.policy", "run_practical"),
        } <= replaced(before, attributes())
        for name, raw in RUNS.items():
            cli.run_experiment(cli.build_config(dict(raw, out_dir=str(tmp_path / name))))
    finally:
        uninstall()
    assert replaced(before, attributes()) == set()

    label = tracer.columns()["label"]
    calls = {name: int(np.count_nonzero(label == i)) for i, name in enumerate(tracer.labels)}
    for name in (
        "cli.run_basic", "policy.run_practical", "sparse_grad.solve_1bge_exact",
        "sparse_grad.estimate_normalized_clip", "bench.compare_function",
        "policy.compare_preference", "policy.dpo_grad", "policy.loglik", "policy.features",
    ):
        assert calls.get(name, 0) >= 1, name
    # one measurement batch per loop iteration, counted at the loop entry points
    assert calls["oracles.measure_bits"] == tracer.counts["iterations"] >= 2
    # one query span per oracle call each trajectory records
    oracle_calls, batches = {}, {}
    for name in RUNS:
        header, *rows = (tmp_path / name / "trajectory.csv").read_text().splitlines()
        column = header.split(",").index("oracle_calls")
        per_batch = [int(r.split(",")[column]) for r in rows]
        oracle_calls[name], batches[name] = sum(per_batch), len(per_batch)
        if name == "basic-long":
            assert set(per_batch) == {25}
    assert calls["bench.compare_function"] == oracle_calls["basic"] + oracle_calls["basic-long"]
    assert calls["policy.compare_preference"] == oracle_calls["pipeline"]
    # candidates are built once per chunk: one chunk per batch of short rows,
    # and chunks of 8, 8, 8 and 1 in the long run
    assert calls["core.embed_perturbation"] == (
        batches["basic"] + batches["pipeline"] + 4 * batches["basic-long"]
    )
    # the worker thread calls no wrapped name: every generator is opened by
    # measure_bits on the calling thread, at most one per batch
    parent = tracer.columns()["parent"][label == tracer.labels.index("core.substream")]
    assert set(label[parent]) == {tracer.labels.index("oracles.measure_bits")}
    assert set(Counter(parent.tolist()).values()) == {1}


def test_every_wrapped_name_is_called_by_the_runs_and_a_small_sweep(tmp_path):
    # a name still defined but no longer called would leave its metrics absent
    core._row_worker()
    spans = load_spans()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    runs = dict(RUNS, sweep={"mode": "bench-sweep", "dims": [20, 40], "bench_seeds": [0]})
    try:
        for name, raw in runs.items():
            cli.run_experiment(cli.build_config(dict(raw, out_dir=str(tmp_path / name))))
    finally:
        uninstall()
    spanned = set(tracer.columns()["label"].tolist())
    assert len(tracer.labels) >= 26  # the 24 installed names and the objective's two
    assert [name for i, name in enumerate(tracer.labels) if i not in spanned] == []
