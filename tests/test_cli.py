import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import duelopt
from duelopt import ParamVector, RngState, Trajectory
from duelopt.cli import (
    FIELD_TYPES, RANGES, _csv_cell, _is_json_type, _write_json, build_config, export_results, main,
    parse_config, run_experiment,
)
from duelopt.errors import ConfigError, DimensionError, MissingFieldError, RangeError
from duelopt.optimizer import PracticalConfig, run_practical
from duelopt.oracles import Sign


ROOT = Path(__file__).resolve().parents[1]
BUNDLED_DATASET = ROOT / "src" / "duelopt" / "data" / "toy_pairs.jsonl"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# ----- parsing -----------------------------------------------------------


def test_empty_config_lists_required_fields(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(MissingFieldError) as err:
        parse_config(path)
    assert err.value.fields == ["mode"]


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {"mode": "basic", "typo_field": 1})
    with pytest.raises(ConfigError, match="typo_field"):
        parse_config(path)


def test_mistral_preset_values(tmp_path):
    path = write_config(tmp_path, {"mode": "practical", "preset": "mistral-7b"})
    config = parse_config(path)
    assert config.r == 0.0005
    assert config.m == 1600
    assert config.lambda_g == 0.00022
    assert config.skip_threshold == 0.2
    assert config.delta == 3.0


def test_llama_preset_values(tmp_path):
    path = write_config(tmp_path, {"mode": "practical", "preset": "llama-3-8b"})
    config = parse_config(path)
    assert config.r == 0.00075
    assert config.m == 1800
    assert config.lambda_g == 0.00008
    assert config.skip_threshold == 0.2


def test_file_values_override_preset(tmp_path):
    path = write_config(tmp_path, {"mode": "practical", "preset": "mistral-7b", "m": 32})
    config = parse_config(path)
    assert config.m == 32


def test_range_errors_name_field_and_bounds(tmp_path):
    with pytest.raises(RangeError, match="skip_threshold"):
        parse_config(write_config(tmp_path, {"mode": "practical", "skip_threshold": 1.0}))
    with pytest.raises(RangeError, match="mode"):
        parse_config(write_config(tmp_path, {"mode": "nonsense"}, name="m.json"))
    with pytest.raises(RangeError, match="epsilon"):
        parse_config(write_config(tmp_path, {"mode": "basic", "epsilon": 1.5}, name="e.json"))


def test_bench_mode_defaults_applied(tmp_path):
    config = parse_config(write_config(tmp_path, {"mode": "bench-lemma"}))
    assert config.d == 100
    assert config.epsilon == 1.0
    assert config.n_samples == 100_000


def test_config_roundtrip(tmp_path):
    original = build_config({"mode": "pipeline", "seed": 9, "scope_mask": [1, 2, 5], "m": 64})
    path = tmp_path / "exported.json"
    path.write_text(json.dumps(dataclasses.asdict(original)))
    reparsed = parse_config(path)
    assert reparsed == original


def test_config_hash_stable_and_sensitive():
    a = build_config({"mode": "basic"})
    b = build_config({"mode": "basic"})
    c = build_config({"mode": "basic", "seed": 1})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


@pytest.mark.parametrize("raw, digest", [
    ({"mode": "basic"},
     "d4aacf2a47144ba6384243bb704262033e48938d86b31978815552521870566e"),
    ({"mode": "pipeline", "scope_mask": [1, 2, 5], "m": 64},
     "29ae88d21e0d5955b975dd8b82a217309bc4415284835428902bfe0a975d434d"),
    ({"mode": "bench-sweep"},
     "e3d6d0bd6702f25d0ef37f7d6800254c30b6a419e231ab31ee9a8be34edd25e7"),
    ({"mode": "practical"},
     "2173bea80b952a2531fbf7e33bd8f88db971181b75a9bec9ec6e822e68c2e53d"),
    ({"mode": "pipeline"},
     "425248c36afd3682d4a55c7b3b10b72870a967da388b5bc3aca6d032961e37e3"),
    ({"mode": "bench-lemma"},
     "35dca38e3b21bddd142ba97e2d5e0c8b55fde6283e0330f8148086f5292db8b5"),
    ({"mode": "bench-proposition"},
     "1ba88a0cfdfa746c28175aa872996492401564e6c1baddd4fe9514d9e61d8f91"),
])
def test_config_hash_is_pinned(raw, digest):
    # canonical JSON of every field: a changed digest means changed manifests
    assert build_config(raw).config_hash() == digest


# ----- export ------------------------------------------------------------


def empty_trajectory():
    return Trajectory(records=[], final_theta=ParamVector(np.zeros(2)))


def one_step_trajectory():
    oracle = lambda a, b: Sign.PLUS
    config = PracticalConfig(
        gamma=1.0, radius=0.1, m=4, lambda_g=0.0, skip_threshold=0.5, iterations=1
    )
    return run_practical(oracle, ParamVector(np.zeros(3)), config, rng=RngState(0))


def test_export_empty_trajectory_is_header_only(tmp_path):
    path = export_results(empty_trajectory(), tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    assert lines == ["iter,oracle_calls,neg_fraction,step,skipped,f,grad_norm"]


def test_export_one_iteration_trajectory_two_lines(tmp_path):
    path = export_results(one_step_trajectory(), tmp_path / "t.csv")
    assert len(path.read_text().splitlines()) == 2


def test_csv_cell_formats_each_value_type():
    assert _csv_cell(None) == ""
    assert (_csv_cell(True), _csv_cell(False)) == ("1", "0")
    assert _csv_cell(-12) == "-12"
    for value in (0.1, np.float64(1 / 3), -0.0, float("inf")):
        assert _csv_cell(value) == repr(float(value))
    assert _csv_cell(-0.0) == "-0.0" and _csv_cell(np.float64(0.5)) == "0.5"
    assert _csv_cell("1.2|3.4|5") == "1.2|3.4|5"
    with pytest.raises(TypeError, match="tuple"):
        _csv_cell((1, 2))


def test_write_json_makes_the_out_dir(tmp_path):
    path = _write_json({"b": (1, 2), "a": None}, tmp_path / "new" / "summary.json")
    assert path == tmp_path / "new" / "summary.json"
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'


# ----- experiments ---------------------------------------------------------


def test_run_experiment_basic_writes_manifest_and_artifacts(tmp_path):
    config = build_config(
        {"mode": "basic", "d": 30, "s": 3, "Delta": 0.3, "c_m": 2.0,
         "out_dir": str(tmp_path / "out"), "seed": 5}
    )
    manifest = run_experiment(config)
    assert manifest.passed is None
    for path in manifest.artifacts.values():
        assert Path(path).is_file() and Path(path).stat().st_size > 0
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(written) == {
        "mode", "seed", "config_hash", "artifacts", "wall_clock_seconds", "passed", "summary"
    }
    assert written["config_hash"] == config.config_hash()
    assert manifest.summary["min_grad_norm"] < 0.1


def test_basic_mode_runs_the_nonconvex_objective_byte_for_byte(tmp_path):
    raw = {"mode": "basic", "objective": "nonconvex", "d": 30, "s": 3, "c_m": 2.0, "Delta": 0.3}
    written = []
    for out in ("a", "b"):
        manifest = run_experiment(build_config(dict(raw, out_dir=str(tmp_path / out))))
        assert manifest.summary["iterations_run"] < manifest.summary["schedule"]["T"]
        assert manifest.summary["min_grad_norm"] < 0.1
        written.append((tmp_path / out / "trajectory.csv").read_bytes())
    assert written[0] == written[1]


def test_run_experiment_pipeline_on_bundled_dataset(tmp_path):
    config = build_config(
        {
            "mode": "pipeline",
            "dataset": str(BUNDLED_DATASET),
            "out_dir": str(tmp_path / "out"),
            "m": 80,
            "T": 1,
            "dpo_epochs": 5,
            "skip_threshold": 0.05,
        }
    )
    manifest = run_experiment(config)
    names = set(manifest.artifacts)
    assert {"split_report", "trajectory", "likelihood_report",
            "dpo_clean_weights", "final_weights"} <= names
    assert manifest.summary["noisy_pairs"] > 0
    split_lines = Path(manifest.artifacts["split_report"]).read_text().splitlines()
    assert split_lines[0] == "pair,subset,ref_margin"
    assert len(split_lines) == manifest.summary["clean_pairs"] + manifest.summary["noisy_pairs"] + 1


@pytest.mark.parametrize("raw, refined", [
    ({"mode": "pipeline", "dataset": str(BUNDLED_DATASET), "m": 40, "T": 1, "dpo_epochs": 3},
     True),
    # no noisy pair: the refine stage and the likelihood report are skipped
    ({"mode": "pipeline", "n_clean": 4, "n_noisy": 0, "dpo_epochs": 3}, False),
])
def test_pipeline_manifest_profiles_its_stages(tmp_path, raw, refined):
    config_path = write_config(tmp_path, raw)
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    profile = manifest["summary"]["profile"]
    stages = {"split_seconds", "dpo_seconds", "refine_seconds", "likelihood_report_seconds"}
    # beside the stage timers, the refinement loop's counters and timers
    assert set(profile) == stages | set(LOOP_PROFILE)
    stage_seconds = [profile[name] for name in stages]
    assert all(type(value) is float and value >= 0.0 for value in stage_seconds)
    assert (profile["refine_seconds"] > 0.0) == refined
    assert ("likelihood_report" in manifest["artifacts"]) == refined
    assert sum(stage_seconds) <= manifest["wall_clock_seconds"]


LOOP_PROFILE = ("oracle_queries", "skipped_iterations", "degenerate_iterations",
                "wasted_queries", "measure_seconds", "estimate_seconds")


@pytest.mark.parametrize("raw", [
    {"mode": "basic", "d": 30, "s": 3, "Delta": 0.3, "c_m": 2.0, "T": 4},
    # a high skip threshold makes skipped, wasted batches
    {"mode": "practical", "d": 12, "s": 3, "T": 6, "m": 8, "r": 0.05, "skip_threshold": 0.5},
    {"mode": "practical", "dataset": str(BUNDLED_DATASET), "m": 20, "T": 3},
    {"mode": "pipeline", "n_clean": 4, "n_noisy": 2, "dpo_epochs": 2, "m": 10,
     "pairs_per_batch": 2},
    {"mode": "bench-sweep", "dims": [20, 40], "bench_seeds": [0, 1], "epsilon": 0.3},
    {"mode": "bench-lemma", "d": 20, "n_samples": 500},
    {"mode": "bench-proposition", "d": 20, "s": 2, "trials": 2},
])
def test_every_mode_profiles_its_descent_loops(tmp_path, monkeypatch, raw):
    cells = []
    run_basic = duelopt.bench.run_basic
    monkeypatch.setattr(duelopt.bench, "run_basic", lambda *a, **k: cells.append(
        run_basic(*a, **k)) or cells[-1])
    manifest = run_experiment(build_config(dict(raw, out_dir=str(tmp_path))))
    profile = manifest.summary["profile"]
    assert set(LOOP_PROFILE) <= set(profile)
    # the counts are the sums over the run's trajectories: every sweep cell's
    if raw["mode"] == "bench-sweep":
        records = [rec for traj in cells for rec in traj.records]
        assert len(cells) == 4 and len(records) >= 4
        assert profile["oracle_queries"] == sum(rec.oracle_calls for rec in records)
        assert profile["skipped_iterations"] == profile["wasted_queries"] == 0
        assert profile["measure_seconds"] == sum(traj.measure_seconds for traj in cells)
    elif raw["mode"].startswith("bench-"):  # no descent loop runs
        assert all(profile[name] == 0 for name in LOOP_PROFILE)
    else:
        header, *rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        columns = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert profile["oracle_queries"] == sum(int(c["oracle_calls"]) for c in columns)
        skipped = [c for c in columns if c["skipped"] == "1"]
        assert profile["skipped_iterations"] == len(skipped)
        assert profile["wasted_queries"] == sum(int(c["oracle_calls"]) for c in skipped)
        assert profile["degenerate_iterations"] <= len(skipped)
        if raw["mode"] == "practical" and "dataset" not in raw:
            assert 0 < len(skipped) < len(columns)
    seconds = profile["measure_seconds"] + profile["estimate_seconds"]
    assert all(profile[name] >= 0 for name in LOOP_PROFILE)
    assert seconds <= manifest.wall_clock_seconds
    assert (profile["measure_seconds"] > 0) == (profile["oracle_queries"] > 0)


def test_run_experiment_practical_synthetic_deterministic(tmp_path):
    payload = {
        "mode": "practical", "d": 16, "s": 4, "T": 4, "m": 12, "r": 0.05,
        "skip_threshold": 0.0, "seed": 3,
    }
    out_a = dict(payload, out_dir=str(tmp_path / "a"))
    out_b = dict(payload, out_dir=str(tmp_path / "b"))
    m1 = run_experiment(build_config(out_a))
    m2 = run_experiment(build_config(out_b))
    bytes_a = Path(m1.artifacts["trajectory"]).read_bytes()
    bytes_b = Path(m2.artifacts["trajectory"]).read_bytes()
    assert bytes_a == bytes_b


def test_run_experiment_bench_lemma_pass(tmp_path):
    config = build_config(
        {"mode": "bench-lemma", "n_samples": 20_000, "out_dir": str(tmp_path / "out")}
    )
    manifest = run_experiment(config)
    assert manifest.passed is True
    summary = json.loads(Path(manifest.artifacts["summary"]).read_text())
    assert summary["agreement"] >= 0.69
    assert summary["pass"] is True


def test_failing_bench_run_exits_nonzero(tmp_path):
    # starved measurement budget cannot recover the planted direction
    config_path = write_config(
        tmp_path,
        {"mode": "bench-proposition", "bench_m": 4, "trials": 10, "d": 100,
         "out_dir": str(tmp_path / "out")},
    )
    code = main(["run", "--config", str(config_path)])
    assert code == 1


@pytest.mark.parametrize(
    "raw",
    [
        {"mode": "pipeline", "n_clean": 4, "n_noisy": 2, "beta": 1000, "dpo_epochs": 3, "m": 10},
        {"mode": "pipeline", "beta": 50, "learning_rate": 50},
    ],
)
def test_cli_pipeline_with_a_saturating_dpo_margin_completes(tmp_path, raw):
    # beta * margin past exp's float range once ended the run in an OverflowError
    config_path = write_config(tmp_path, raw)
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert all(Path(path).is_file() for path in manifest["artifacts"].values())


@pytest.mark.parametrize("n_noisy", [2, 0])
def test_cli_pipeline_whose_dpo_weights_overflow_is_an_error(tmp_path, capsys, n_noisy):
    # with no noisy pair, the NaN weights were once saved as the final policy
    path = write_config(tmp_path, {
        "mode": "pipeline", "n_clean": 2, "n_noisy": n_noisy, "learning_rate": -1e308,
    })
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert "DPO weights are not finite" in one_line_error(capsys, argv)
    assert not (tmp_path / "out" / "final_weights.npy").exists()
    assert not (tmp_path / "out").exists()
    # an out dir that was there before the run is left as it was
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "kept.txt").write_text("kept")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one_line_error(capsys, argv)
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["kept.txt"]
    assert (tmp_path / "out" / "kept.txt").read_text() == "kept"


@pytest.mark.parametrize(
    "raw, skipped, warned",
    [
        # four pairs per query: no step reaches the skip threshold's agreement
        ({"mode": "pipeline", "n_clean": 40, "n_noisy": 20, "pairs_per_batch": 4}, 5, True),
        ({"mode": "pipeline", "n_clean": 40, "n_noisy": 20, "pairs_per_batch": 2,
          "skip_threshold": 0}, 0, False),
    ],
)
def test_cli_pipeline_manifest_reports_skipped_refinement_steps(tmp_path, raw, skipped, warned):
    config_path = write_config(tmp_path, dict(raw, seed=0))
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    assert summary["skipped_iterations"] == skipped
    expected = [f"all {skipped} refinement steps skipped; final policy equals the clean baseline"]
    assert summary["warnings"] == (expected if warned else [])


def test_cli_run_respects_overrides(tmp_path, capsys):
    config_path = write_config(
        tmp_path, {"mode": "practical", "d": 12, "s": 3, "T": 2, "m": 8, "r": 0.05}
    )
    code = main(
        ["run", "--config", str(config_path), "--seed", "7", "--out", str(tmp_path / "cli_out")]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "cli_out" / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert (tmp_path / "cli_out" / "trajectory.csv").is_file()


def test_cli_split_command(tmp_path, capsys):
    code = main(
        ["split", "--dataset", str(BUNDLED_DATASET), "--delta", "3.0",
         "--out", str(tmp_path / "split_out")]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["clean"] == 20
    assert printed["noisy"] == 6
    assert Path(printed["report"]).is_file()


def test_cli_bench_lemma_suite(tmp_path, capsys):
    code = main(["bench", "--suite", "lemma", "--out", str(tmp_path / "bench_out")])
    assert code == 0
    assert "[lemma] PASS" in capsys.readouterr().out


def test_config_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_console_script_help():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf8"))
    assert pyproject["project"]["scripts"] == {"duelopt": "duelopt.cli:main"}

    # run the package the way the tests import it, with no install step
    src = str(Path(duelopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "duelopt", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert out.returncode == 0
    for sub in ("run", "bench", "split"):
        assert sub in out.stdout
    # the suites are the bench modes of the one mode table, and "all"
    out = subprocess.run(
        [sys.executable, "-m", "duelopt", "bench", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert out.returncode == 0
    assert "--suite {lemma,proposition,sweep,all}" in out.stdout


QUIET_RUNS = {
    "basic": {"mode": "basic", "d": 30, "s": 3, "Delta": 0.3, "c_m": 2.0, "T": 3},
    "basic-nonconvex": {"mode": "basic", "objective": "nonconvex", "d": 30, "s": 3,
                        "c_m": 2.0, "Delta": 0.3},
    "practical": {"mode": "practical", "d": 30, "m": 20, "T": 3},
    "practical-dataset": {"mode": "practical", "dataset": str(BUNDLED_DATASET), "m": 20, "T": 2},
    "pipeline": {"mode": "pipeline", "n_clean": 4, "n_noisy": 2, "dpo_epochs": 1, "m": 10},
    "bench-lemma": {"mode": "bench-lemma", "d": 20, "s": 2, "n_samples": 500},
    "bench-proposition": {"mode": "bench-proposition", "d": 30, "s": 2, "trials": 5},
    "bench-sweep": {"mode": "bench-sweep", "dims": [20, 40], "bench_seeds": [0]},
}


@pytest.mark.parametrize("name", QUIET_RUNS)
def test_the_library_never_prints_or_warns(tmp_path, capfd, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_experiment(build_config(dict(QUIET_RUNS[name], out_dir=str(tmp_path))))
    assert capfd.readouterr() == ("", "")


# ----- error boundary ------------------------------------------------------


def one_line_error(capsys, argv) -> str:
    code = main(argv)
    lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.mark.parametrize("source", [{"dataset": str(BUNDLED_DATASET)}, {}])
def test_cli_reference_margin_overflow_is_an_error(tmp_path, capsys, source):
    # the weights are finite, but the reference's log-likelihoods are not
    path = write_config(tmp_path, dict(
        source, mode="pipeline", ref_weight_scale=5e307, dpo_epochs=2, m=20,
        out_dir=str(tmp_path / "out"),
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = one_line_error(capsys, ["run", "--config", str(path)])
    assert "reference log-likelihood margin of pair" in line
    assert not (tmp_path / "out").exists()


def test_cli_practical_dataset_log_likelihood_overflow_is_an_error(tmp_path, capsys):
    # practical mode never splits by margin; the refinement's own check names the pair
    path = write_config(tmp_path, {
        "mode": "practical", "dataset": str(BUNDLED_DATASET), "ref_weight_scale": 5e307,
        "m": 20, "T": 2, "out_dir": str(tmp_path / "out"),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = one_line_error(capsys, ["run", "--config", str(path)])
    assert "starting log-likelihood of pair" in line and line.endswith("is -inf")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, iteration", [
    # every candidate's value overflows
    ({"mode": "practical", "r": 1e200, "T": 2, "m": 10}, 1),
    # the first step overflows the value at the next iterate
    ({"mode": "practical", "gamma": 1e308, "T": 3, "m": 10}, 2),
])
def test_cli_synthetic_objective_overflow_is_an_error(tmp_path, capsys, payload, iteration):
    path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = one_line_error(capsys, ["run", "--config", str(path)])
    assert line == f"error: iteration {iteration}: objective evaluated to inf"
    assert not (tmp_path / "out").exists()


def test_cli_scope_mask_out_of_range_is_an_error(tmp_path, capsys):
    path = write_config(tmp_path, {
        "mode": "pipeline", "dataset": str(BUNDLED_DATASET), "scope_mask": [5000],
        "dpo_epochs": 1, "m": 8, "out_dir": str(tmp_path / "out"),
    })
    assert "scope mask" in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()  # rejected when read, before any stage ran


@pytest.mark.parametrize("field, value", [
    ("vocab_size", 1), ("feature_dim", 0), ("max_context", 0), ("max_context", -2),
    ("refine_epochs", 0), ("dpo_epochs", -1), ("n_clean", -1), ("n_noisy", -2),
])
def test_cli_policy_field_out_of_range_is_an_error(tmp_path, capsys, field, value):
    path = write_config(tmp_path, {
        "mode": "pipeline", "dataset": str(BUNDLED_DATASET), field: value,
        "out_dir": str(tmp_path / "out"),
    })
    assert repr(field) in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload", [
    {"mode": "practical", "d": 10, "scope_mask": [10]},
    {"mode": "practical", "d": 10, "scope_mask": [3, 3]},
    {"mode": "practical", "d": 10, "scope_mask": []},
    {"mode": "practical", "dataset": "pairs.jsonl", "scope_mask": [128]},
    {"mode": "pipeline", "d": 1000, "scope_mask": [128]},
])
def test_scope_mask_checked_against_the_mode_dimension(payload):
    with pytest.raises(DimensionError, match="scope mask"):
        build_config(payload)


def test_scope_mask_within_the_mode_dimension_is_accepted():
    # the policy has vocab_size * feature_dim = 8 * 16 = 128 weights
    assert build_config({"mode": "pipeline", "d": 10, "scope_mask": [127]}).scope_mask == (127,)
    assert build_config({"mode": "practical", "d": 200, "scope_mask": [199]}).scope_mask == (199,)


@pytest.mark.parametrize("flags, field", [
    (["--delta", "-1"], "delta"),
    (["--delta", "3.0", "--vocab-size", "1"], "vocab_size"),
])
def test_cli_split_bad_input_is_an_error(tmp_path, capsys, flags, field):
    argv = ["split", "--dataset", str(BUNDLED_DATASET), "--out", str(tmp_path / "out")] + flags
    assert repr(field) in one_line_error(capsys, argv)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, field", [
    ({"mode": "bench-sweep", "dims": [3]}, "dims"),  # below s = 5
    ({"mode": "bench-sweep", "dims": [50, 4]}, "dims"),
    ({"mode": "bench-proposition", "bench_m": 0}, "bench_m"),
    ({"mode": "bench-proposition", "trials": 0}, "trials"),
    ({"mode": "bench-proposition", "flip_prob": 0.5}, "flip_prob"),
    ({"mode": "bench-sweep", "Lambda": 0.0}, "Lambda"),
    # a pipeline with no dataset synthesizes n_clean + n_noisy pairs
    ({"mode": "pipeline", "n_clean": 0, "n_noisy": 0}, "n_clean + n_noisy"),
    ({"mode": "pipeline", "n_clean": -1, "n_noisy": -2}, "n_clean"),
    # each in range, but no list of pairs that long could be indexed
    ({"mode": "pipeline", "n_clean": 2**62, "n_noisy": 2**62}, "n_clean + n_noisy"),
])
def test_cli_bench_field_out_of_range_is_an_error(tmp_path, capsys, payload, field):
    path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
    assert repr(field) in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, field", [
    ({"mode": "pipeline", "seed": -1}, "seed"),
    ({"mode": "basic", "seed": -1}, "seed"),
    ({"mode": "basic", "seed": 2**64}, "seed"),
    ({"mode": "basic", "objective_seed": -1}, "objective_seed"),
    ({"mode": "pipeline", "ref_weight_seed": 2**64}, "ref_weight_seed"),
    ({"mode": "pipeline", "feature_seed": 2**63}, "feature_seed"),
    ({"mode": "pipeline", "feature_seed": -(2**63) - 1}, "feature_seed"),
    ({"mode": "bench-sweep", "seed": -3}, "seed"),
    ({"mode": "bench-sweep", "seed": 2, "bench_seeds": [0, -3]}, "bench_seeds"),
    ({"mode": "bench-sweep", "seed": 2**64 - 2, "bench_seeds": [0, 2]}, "bench_seeds"),
])
def test_cli_seed_outside_its_range_is_an_error(tmp_path, capsys, payload, field):
    path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
    assert repr(field) in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


def test_seeds_at_the_ends_of_their_ranges_are_accepted():
    top = 2**64 - 1
    build_config({"mode": "basic", "seed": top, "objective_seed": top, "ref_weight_seed": top})
    build_config({"mode": "pipeline", "feature_seed": -(2**63)})
    build_config({"mode": "pipeline", "feature_seed": 2**63 - 1})
    build_config({"mode": "bench-sweep", "seed": 3, "bench_seeds": [-3, top - 3]})


def test_bench_sweep_bounds_s_by_its_grid_not_d():
    raw = {"mode": "bench-sweep", "s": 300, "dims": [400, 800], "bench_seeds": [0], "epsilon": 0.5}
    assert build_config(raw).s == 300 > build_config(raw).d
    with pytest.raises(RangeError, match=r"'s' = 0 outside bounds \[1, min\(dims\)=400\]"):
        build_config(dict(raw, s=0))
    with pytest.raises(RangeError, match=r"'dims' = \(400, 800\) outside bounds entries in \[s=500"):
        build_config(dict(raw, s=500))
    # every other mode keeps s within [1, d]
    with pytest.raises(RangeError, match=r"\[1, d=200\]"):
        build_config({"mode": "basic", "s": 300})


def test_closed_ends_of_ranges_are_accepted():
    config = build_config({"mode": "pipeline", "lambda_g": 0, "dpo_epochs": 0, "vocab_size": 2})
    assert (config.lambda_g, config.dpo_epochs, config.vocab_size) == (0, 0, 2)


def test_every_numeric_field_has_a_range():
    # the range check is also the only finiteness check, so no number may skip it
    numeric = {name for name, hint in FIELD_TYPES.items() if _is_json_type(1, hint)}
    assert "s" in numeric  # bounded by d, in _validate_config
    assert set(RANGES) == numeric - {"s"}


@pytest.mark.parametrize("payload, field", [
    ({"mode": ["basic"]}, "mode"),
    ({"mode": {"basic": 1}}, "mode"),
    ({"mode": "basic", "preset": ["mistral-7b"]}, "preset"),
    ({"mode": "basic", "d": "10"}, "d"),
    ({"mode": "basic", "d": True}, "d"),
    ({"mode": "basic", "T": 2.0}, "T"),
    ({"mode": "basic", "epsilon": "0.1"}, "epsilon"),
    ({"mode": "practical", "scope_mask": 5}, "scope_mask"),
])
def test_cli_config_value_of_wrong_json_type_is_an_error(tmp_path, capsys, payload, field):
    path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
    assert repr(field) in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, field", [
    ({"mode": "basic", "d": 10**30}, "'d'"),
    ({"mode": "basic", "T": 2**63}, "'T'"),
    ({"mode": "practical", "m": 2**63}, "'m'"),
    ({"mode": "pipeline", "n_noisy": 10**30}, "'n_noisy'"),
    ({"mode": "bench-proposition", "bench_m": 2**63}, "'bench_m'"),
    ({"mode": "bench-sweep", "dims": [10**30]}, "'dims'"),
    ({"mode": "bench-sweep", "dims": [50, 2**63]}, "'dims'"),
    ({"mode": "basic", "scope_mask": [10**30]}, "scope mask"),
    ({"mode": "practical", "scope_mask": [0, -(10**30)]}, "scope mask"),
])
def test_cli_integer_outside_int64_is_an_error(tmp_path, capsys, payload, field):
    path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
    assert field in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


def test_integer_fields_take_sizes_below_2_to_the_63():
    top = 2**63 - 1
    config = build_config({"mode": "bench-sweep", "T": top, "m": top, "dims": [top]})
    assert (config.T, config.m, config.dims) == (top, top, (top,))


def test_cli_size_the_machine_cannot_allocate_is_an_error(tmp_path, capsys):
    # 4 EiB of signs: refused at once by the allocator, so no memory is touched
    path = write_config(tmp_path, {"mode": "practical", "m": 2**62, "out_dir": str(tmp_path / "out")})
    assert "out of memory" in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_noisy", [2**62, 2**63 - 21])
def test_cli_pair_count_the_machine_cannot_hold_is_an_error(tmp_path, capsys, n_noisy):
    # the pair list is made whole before any pair is drawn, and no list that long fits
    path = write_config(
        tmp_path, {"mode": "pipeline", "n_noisy": n_noisy, "out_dir": str(tmp_path / "out")}
    )
    assert "out of memory" in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload", [
    {"mode": "basic", "d": 2**63 - 1},
    {"mode": "bench-sweep", "dims": [2**63 - 1]},
    {"mode": "basic", "d": 2**60},
])
def test_cli_size_whose_bytes_numpy_cannot_address_is_an_error(tmp_path, capsys, payload):
    # d float64s take 8 * d bytes, past numpy's index range from d = 2**60 on
    path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
    assert "out of memory: array is too big" in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, quantity", [
    ({"mode": "basic", "epsilon": 1e-300}, "underflows, epsilon**2 = 0"),
    ({"mode": "bench-sweep", "epsilon": 1e-300}, "underflows, epsilon**2 = 0"),
    ({"mode": "basic", "epsilon": 1e-160}, "T = inf"),
    ({"mode": "basic", "Lambda": 1e-320}, "m = inf"),
    ({"mode": "basic", "c_m": 1e300}, "m = 2.81e+301"),
])
def test_cli_schedule_past_float_or_int64_range_is_an_error(tmp_path, capsys, payload, quantity):
    # each input is in range, but epsilon**2 underflows or T or m leaves int64
    path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
    assert quantity in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


def test_json_integer_is_accepted_for_a_float_field():
    config = build_config({"mode": "basic", "c_m": 4, "Delta": 1})
    assert config.c_m == 4 and config.Delta == 1


@pytest.mark.parametrize("entries", [[7.5], [8, True], ["9"]])
@pytest.mark.parametrize("mode, field", [
    ("practical", "scope_mask"), ("bench-sweep", "dims"), ("bench-sweep", "bench_seeds"),
])
def test_cli_non_integer_list_entry_is_an_error(tmp_path, capsys, entries, mode, field):
    path = write_config(tmp_path, {"mode": mode, field: entries, "out_dir": str(tmp_path / "out")})
    assert repr(field) in one_line_error(capsys, ["run", "--config", str(path)])
    assert not (tmp_path / "out").exists()


def test_cli_malformed_config_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"mode": "basic",')
    line = one_line_error(capsys, ["run", "--config", str(path)])
    assert str(path) in line and "not valid JSON" in line
    # bytes that are not UTF-8 are named with their file
    path.write_bytes(b'\xff{"mode": "basic"}')
    line = one_line_error(capsys, ["run", "--config", str(path)])
    assert str(path) in line and "UTF-8" in line


def test_cli_missing_config_is_an_error(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert str(path) in one_line_error(capsys, ["run", "--config", str(path)])


def dataset_argv(tmp_path, command, record):
    """argv that reads a one-record dataset and would write to ``tmp_path / "out"``."""
    tmp_path.mkdir(exist_ok=True)
    dataset = tmp_path / "pairs.jsonl"
    dataset.write_text("\n" + record + "\n")
    out = str(tmp_path / "out")
    if command == "split":
        return ["split", "--dataset", str(dataset), "--delta", "3.0", "--out", out]
    path = write_config(tmp_path, {
        "mode": command, "dataset": str(dataset), "vocab_size": 8, "m": 8, "T": 1,
        "out_dir": out,
    })
    return ["run", "--config", str(path)]


def test_cli_dataset_token_outside_vocabulary_is_an_error(tmp_path, capsys):
    record = '{"prompt":[1,2],"preferred":[99],"dispreferred":[3]}'
    for command in ("pipeline", "practical", "split"):
        argv = dataset_argv(tmp_path / command, command, record)
        assert "outside vocabulary" in one_line_error(capsys, argv)
        # checked when read, before any stage ran
        assert not (tmp_path / command / "out").exists(), command


def test_cli_practical_on_an_empty_dataset_is_an_error(tmp_path, capsys):
    # a dataset of blank lines holds no pair
    line = one_line_error(capsys, dataset_argv(tmp_path, "practical", ""))
    assert "at least one pair" in line
    assert not (tmp_path / "out").exists()


def test_cli_pipeline_on_an_empty_dataset_is_an_error(tmp_path, capsys):
    # the same input error as in practical mode, found before any stage ran
    line = one_line_error(capsys, dataset_argv(tmp_path, "pipeline", ""))
    assert line == "error: data stream must contain at least one pair"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("token", ["1.7", "true", '"3"'])
def test_cli_dataset_non_integer_token_is_an_error(tmp_path, capsys, token):
    record = '{"prompt":[1,2],"preferred":[%s],"dispreferred":[3]}' % token
    line = one_line_error(capsys, dataset_argv(tmp_path, "pipeline", record))
    assert "pairs.jsonl:2:" in line and "integers" in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "practical", "split"])
def test_cli_dataset_not_utf8_is_an_error(tmp_path, capsys, command):
    argv = dataset_argv(tmp_path, command, '{"prompt":[1],"preferred":[2],"dispreferred":[3]}')
    dataset = tmp_path / "pairs.jsonl"
    dataset.write_bytes(b"\xff" + dataset.read_bytes())
    line = one_line_error(capsys, argv)
    assert str(dataset) in line and "UTF-8" in line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, field", [
    ('{"mode": "practical", "r": NaN}', "r"),
    ('{"mode": "practical", "gamma": Infinity}', "gamma"),
    ('{"mode": "pipeline", "learning_rate": NaN}', "learning_rate"),
    ('{"mode": "pipeline", "ref_weight_scale": -Infinity}', "ref_weight_scale"),
    ('{"mode": "practical", "skip_threshold": Infinity}', "skip_threshold"),
    # a finite scale whose N(0, 1) multiples overflow: the built weights are checked
    ('{"mode": "pipeline", "ref_weight_scale": 1e308}', "ref_weight_scale"),
    pytest.param(json.dumps({
        "mode": "pipeline", "dataset": str(BUNDLED_DATASET), "ref_weight_scale": 1e308, "m": 20,
        "T": 1, "dpo_epochs": 2,
    }), "ref_weight_scale", id="pipeline-dataset-ref_weight_scale-1e308"),
    pytest.param(json.dumps({
        "mode": "practical", "dataset": str(BUNDLED_DATASET), "ref_weight_scale": -1e308,
    }), "ref_weight_scale", id="practical-dataset-ref_weight_scale--1e308"),
])
def test_cli_non_finite_config_value_is_an_error(tmp_path, capsys, text, field):
    path = tmp_path / "config.json"
    path.write_text(text)
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(field) in one_line_error(capsys, argv)
    assert not (tmp_path / "out").exists()


def test_cli_pipeline_that_cannot_synthesize_its_pairs_is_an_error(tmp_path, capsys):
    # no pair's reference margin lands within 1e-9 of zero in the attempts allowed
    path = write_config(tmp_path, {"mode": "pipeline", "n_clean": 2, "n_noisy": 2, "delta": 1e-9})
    line = one_line_error(capsys, ["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert "could not synthesize a noisy pair" in line
    # the pairs are synthesized before the out dir is made
    assert not (tmp_path / "out").exists()


def test_cli_split_nan_delta_is_an_error(tmp_path, capsys):
    argv = ["split", "--dataset", str(BUNDLED_DATASET), "--delta", "nan",
            "--out", str(tmp_path / "out")]
    assert "'delta'" in one_line_error(capsys, argv)
    assert not (tmp_path / "out").exists()


# ----- determinism ---------------------------------------------------------


def test_pipeline_artifacts_repeat_byte_for_byte_in_one_process(tmp_path):
    # policy memos live on instances each run builds afresh; no run may see another's
    pipeline = {"mode": "pipeline", "n_clean": 6, "n_noisy": 3, "dpo_epochs": 10, "m": 60,
                "refine_epochs": 2, "seed": 4}
    unrelated = {"mode": "pipeline", "dataset": str(BUNDLED_DATASET), "dpo_epochs": 3,
                 "m": 40, "seed": 9}

    def artifacts(raw, name):
        manifest = run_experiment(build_config(dict(raw, out_dir=str(tmp_path / name))))
        return {key: Path(p).read_bytes() for key, p in manifest.artifacts.items()}

    first = artifacts(pipeline, "first")
    second = artifacts(pipeline, "second")
    artifacts(unrelated, "unrelated")
    third = artifacts(pipeline, "third")
    assert {"dataset", "trajectory", "likelihood_report", "final_weights"} <= set(first)
    assert first == second == third
