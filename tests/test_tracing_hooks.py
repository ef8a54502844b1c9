"""The benchmark's traced run wraps package functions where their callers look them up.

``perfbench/spans.py`` replaces functions by module or class attribute. A
refactor that binds one of them at import time, or moves a loop entry point,
leaves the traced run silently counting nothing, so these tests check that
the wrapped names are called and that uninstalling restores the package.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from duelopt import bench, cli, core, optimizer, oracles, policy

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (
    bench, cli, core, optimizer, oracles, policy,
    core.RngState, core.ParamVector, oracles.BitMeasurementBatch, policy.ToyPolicy,
)


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
        for raw in (
            {"mode": "basic", "d": 30, "s": 3, "Delta": 0.3, "c_m": 2.0, "T": 3},
            {"mode": "pipeline", "n_clean": 4, "n_noisy": 2, "dpo_epochs": 1, "m": 10},
        ):
            cli.run_experiment(cli.build_config(dict(raw, out_dir=str(tmp_path / raw["mode"]))))
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
    for mode, query in (
        ("basic", "bench.compare_function"), ("pipeline", "policy.compare_preference"),
    ):
        header, *rows = (tmp_path / mode / "trajectory.csv").read_text().splitlines()
        column = header.split(",").index("oracle_calls")
        assert calls[query] == sum(int(r.split(",")[column]) for r in rows), mode
