"""Experiment configuration, orchestration, and result export.

Subcommands:
  run    -- execute one experiment described by a JSON config file
  bench  -- run the validation suites with their default operating points
  split  -- partition a preference dataset by reference log-likelihood margin

Configs are flat JSON objects; unknown keys are rejected. A ``"preset"`` key
fills in the practical-scheme hyperparameters used at large scale; everything
here runs at desk scale regardless. All CSV artifacts are byte-deterministic
given (config, seed). The DUELOPT_OUT environment variable selects the default
output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import policy as policy_mod
from .core import ParamVector, RngState
from .errors import (
    ConfigError,
    DueloptError,
    InvalidScheduleError,
    MissingFieldError,
    RangeError,
    VocabularyError,
)
from .optimizer import PracticalConfig, loop_profile, run_basic, run_practical, schedule_from_theorem

# practical-scheme hyperparameters published for the large-model runs; kept as
# documentation presets, not reproduced at this scale
PRESETS = {
    "mistral-7b": {"r": 0.0005, "m": 1600, "lambda_g": 0.00022, "skip_threshold": 0.2, "delta": 3.0},
    "llama-3-8b": {"r": 0.00075, "m": 1800, "lambda_g": 0.00008, "skip_threshold": 0.2, "delta": 3.0},
}

SIGN_AGREEMENT_FLOOR = 0.69
RECOVERY_TOLERANCE = 0.5
RECOVERY_SUCCESS_RATE = 0.95
SWEEP_MAX_RATIO = 2.0


@dataclass(frozen=True)
class RunConfig:
    """Flat experiment configuration; field meanings depend on ``mode``."""

    mode: str
    seed: int = 0
    out_dir: str | None = None
    dataset: str | None = None

    # synthetic objective
    objective: str = "quadratic"
    d: int = 200
    s: int = 5
    objective_seed: int = 0

    # schedule-driven loop
    epsilon: float = 0.1
    Lambda: float = 0.1
    Delta: float = 0.5
    c_m: float = 1.0

    # practical loop
    gamma: float = 1.0
    r: float = 0.01
    m: int = 400
    lambda_g: float = 0.01
    skip_threshold: float = 0.1
    T: int = 10
    scope_mask: tuple[int, ...] | None = None
    pairs_per_batch: int = 1

    # policy / pipeline
    delta: float = 3.0
    beta: float = 0.1
    learning_rate: float = 0.5
    dpo_epochs: int = 50
    refine_epochs: int = 1
    vocab_size: int = 8
    feature_dim: int = 16
    max_context: int = 16
    feature_seed: int = 7
    ref_weight_seed: int = 11
    ref_weight_scale: float = 1.0
    n_clean: int = 20
    n_noisy: int = 5

    # bench suites
    n_samples: int = 100_000
    trials: int = 100
    flip_prob: float = 0.2
    bench_m: int | None = None
    dims: tuple[int, ...] = (200, 400, 800)
    bench_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        # JSON arrays arrive as lists; their entries are checked, not coerced
        for name in ("scope_mask", "dims", "bench_seeds"):
            value = getattr(self, name)
            if isinstance(value, list):
                object.__setattr__(self, name, tuple(value))

    def config_hash(self) -> str:
        canonical = json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf8")).hexdigest()


FIELD_TYPES = typing.get_type_hints(RunConfig)

# the accepted interval of every int and float field, shown as-is in RangeError;
# `s` is checked against `d` in _validate_config. NaN and +-inf fall outside all.
# Seeds become Philox keys and RngState seeds, which take [0, 2**64); the
# feature seed is hashed as a signed 64-bit integer. Counts and sizes end at
# 2**63, the first int numpy cannot take as an int64.
RANGES = {
    "seed": "[0, 2**64)", "objective_seed": "[0, 2**64)", "ref_weight_seed": "[0, 2**64)",
    "feature_seed": "[-2**63, 2**63)", "d": "[1, 2**63)",
    "epsilon": "(0, inf)", "Lambda": "(0, 1)", "Delta": "(0, inf)", "c_m": "(0, inf)",
    "gamma": "(0, inf)", "r": "(0, inf)", "m": "[1, 2**63)", "lambda_g": "[0, inf)",
    "skip_threshold": "[0, 1)", "T": "[1, 2**63)", "pairs_per_batch": "[1, 2**63)",
    "delta": "(0, inf)", "beta": "(0, inf)", "learning_rate": "(-inf, inf)",
    "dpo_epochs": "[0, 2**63)", "refine_epochs": "[1, 2**63)", "vocab_size": "[2, 2**63)",
    "feature_dim": "[1, 2**63)", "max_context": "[1, 2**63)", "ref_weight_scale": "(-inf, inf)",
    "n_clean": "[0, 2**63)", "n_noisy": "[0, 2**63)", "n_samples": "[1, 2**63)",
    "trials": "[1, 2**63)", "flip_prob": "[0, 0.5)", "bench_m": "[1, 2**63)",
}


def _in_interval(value, interval: str) -> bool:
    """Whether ``value`` lies in an interval written like ``"[0, 2**64)"``; NaN never does."""

    def end(text: str):
        if "**" in text:  # the seed ends, "2**64" and "-2**63", as exact ints
            base, exponent = text.lstrip("-").split("**")
            return (-1 if text.startswith("-") else 1) * int(base) ** int(exponent)
        return float(text)

    low, high = (end(text) for text in interval[1:-1].split(", "))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    return above and below


def _is_json_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: bool is not int, int is float."""
    if isinstance(hint, types.UnionType):
        return any(_is_json_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_is_json_type(v, int) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


@dataclass
class RunManifest:
    mode: str
    seed: int
    config_hash: str
    artifacts: dict[str, str]
    wall_clock_seconds: float
    passed: bool | None
    summary: dict


# ----- config parsing ------------------------------------------------------


def parse_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Load a JSON config file and build it with ``build_config``."""
    try:
        with open(path, "r", encoding="utf8") as handle:
            text = handle.read().strip()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not valid UTF-8: {exc}") from None
    try:
        raw = json.loads(text) if text else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return build_config(raw, overrides)


def build_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a flat config dict and layer it over the field defaults.

    Layering order: the operating point in the mode's ``_MODES`` entry, then
    the preset named by the ``"preset"`` key, then the remaining keys, then
    ``overrides`` (command-line flags). Unknown keys are rejected.
    """
    raw = dict(raw)
    preset = raw.pop("preset", None)
    unknown = set(raw) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "mode" not in raw:
        raise MissingFieldError(["mode"])

    # a list or dict mode or preset is never in the tuples, and is never hashed
    if raw["mode"] not in MODES:
        raise RangeError("mode", raw["mode"], f"one of {MODES}")
    values = dict(_MODES[raw["mode"]][1])
    if preset is not None:
        if preset not in tuple(PRESETS):
            raise RangeError("preset", preset, f"one of {sorted(PRESETS)}")
        values.update(PRESETS[preset])
    values.update(raw)
    values.update(overrides or {})
    config = RunConfig(**values)
    _validate_config(config)
    return config


def _validate_config(config: RunConfig) -> None:
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _is_json_type(value, FIELD_TYPES[f.name]):
            raise ConfigError(f"config field {f.name!r} = {value!r} is not of type {f.type}")
        bounds = RANGES.get(f.name)
        if bounds is not None and value is not None and not _in_interval(value, bounds):
            raise RangeError(f.name, value, bounds)

    # rules that involve more than one field
    if config.objective not in ("quadratic", "nonconvex"):
        raise RangeError("objective", config.objective, "quadratic or nonconvex")
    if not config.dims:
        raise RangeError("dims", config.dims, "nonempty list")
    if config.mode == "bench-sweep" and not all(config.s <= d < 2**63 for d in config.dims):
        raise RangeError("dims", config.dims, f"entries in [s={config.s}, 2**63)")
    # bench-sweep reads its grid of dimensions, never d
    name, top = ("min(dims)", min(config.dims)) if config.mode == "bench-sweep" else ("d", config.d)
    if not (1 <= config.s <= top):
        raise RangeError("s", config.s, f"[1, {name}={top}]")
    if config.mode in ("basic", "bench-sweep") and not (0.0 < config.epsilon < 1.0):
        raise RangeError("epsilon", config.epsilon, "(0, 1) for schedule-driven modes")
    pair_count = config.n_clean + config.n_noisy  # a list of this length must be indexable
    if config.mode == "pipeline" and config.dataset is None and not 1 <= pair_count < 2**63:
        raise RangeError("n_clean + n_noisy", pair_count, "[1, 2**63) without a dataset")
    if config.scope_mask is not None:
        # ParamVector's own checks, at the dimension of the vector the mode optimizes
        uses_policy = config.mode == "pipeline" or (
            config.mode == "practical" and config.dataset is not None
        )
        dim = config.vocab_size * config.feature_dim if uses_policy else config.d
        ParamVector(np.zeros(dim), config.scope_mask)
    if not config.bench_seeds:
        raise RangeError("bench_seeds", config.bench_seeds, "nonempty list")
    if config.mode == "bench-sweep" and not all(
        _in_interval(config.seed + b, RANGES["seed"]) for b in config.bench_seeds
    ):
        raise RangeError("bench_seeds", config.bench_seeds, f"seed + entry in {RANGES['seed']}")


# ----- result export ---------------------------------------------------


def export_results(report, path: str | Path) -> Path:
    """Write a report's or trajectory's ``csv_rows()`` as CSV, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # newline pinned so artifacts are byte-identical across platforms
    with open(path, "w", encoding="utf8", newline="") as handle:
        for row in report.csv_rows():
            handle.write(",".join(map(_csv_cell, row)) + "\n")
    return path


def _write_json(obj, path: Path) -> Path:
    """Write a summary or manifest as sorted, indented JSON, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf8") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _csv_cell(value) -> str:
    """The CSV text of one report value, the only place a cell is formatted.

    None is an empty cell, a flag is 0 or 1, a float (numpy's too) is
    ``repr(float(value))``, and an int or str is written as is. Any other
    type raises ``TypeError``, so no tuple or array writes commas into a row.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int, str)):
        return str(value)
    raise TypeError(f"no CSV cell for a {type(value).__name__}: {value!r}")


# ----- experiment dispatch ----------------------------------------------


def run_experiment(config: RunConfig) -> RunManifest:
    """Run the config's mode with its ``_MODES`` runner and write the manifest.

    A runner builds its inputs first, and ``export_results`` or
    ``_write_json`` makes the out dir at a run's first artifact, once its
    work is done. So a failing input or stage leaves no out dir behind, and
    writes nothing into an out dir that was there before.
    """
    out_dir = _out_dir(config.out_dir)
    started = time.perf_counter()
    artifacts, passed, summary = _MODES[config.mode][0](config, out_dir)
    summary.setdefault("profile", loop_profile([]))  # zeros where no descent loop ran
    manifest = RunManifest(
        mode=config.mode,
        seed=config.seed,
        config_hash=config.config_hash(),
        artifacts={name: str(p) for name, p in artifacts.items()},
        wall_clock_seconds=time.perf_counter() - started,
        passed=passed,
        summary=summary,
    )
    _write_json(dataclasses.asdict(manifest), out_dir / "manifest.json")
    for name, p in manifest.artifacts.items():
        if not Path(p).is_file() or Path(p).stat().st_size == 0:
            raise ConfigError(f"artifact {name} missing or empty at {p}")
    return manifest


def _out_dir(path: str | None) -> Path:
    return Path(path or os.environ.get("DUELOPT_OUT", "duelopt_out"))


def _load_dataset(path: str | Path, vocab_size: int) -> list[policy_mod.PreferencePair]:
    """Read a preference dataset and check every token against the vocabulary."""
    pairs = policy_mod.load_preference_dataset(path)
    for i, pair in enumerate(pairs, 1):
        for tok in pair.prompt + pair.preferred + pair.dispreferred:
            if not 0 <= tok < vocab_size:
                raise VocabularyError(
                    f"{path}: pair {i}: token {tok} outside vocabulary of size {vocab_size}"
                )
    return pairs


def _make_objective(config: RunConfig) -> bench_mod.SyntheticObjective:
    factory = (
        bench_mod.make_sparse_quadratic
        if config.objective == "quadratic"
        else bench_mod.make_nonconvex_sparse
    )
    return factory(config.d, config.s, seed=config.objective_seed)


def _make_policy(config: RunConfig) -> policy_mod.ToyPolicy:
    # a finite scale can still overflow a weight; the built weights are checked
    with np.errstate(over="ignore"):
        policy = policy_mod.make_toy_policy(
            vocab_size=config.vocab_size,
            feature_dim=config.feature_dim,
            max_context=config.max_context,
            feature_seed=config.feature_seed,
            weight_seed=config.ref_weight_seed,
            weight_scale=config.ref_weight_scale,
        )
    if not np.isfinite(policy.weights).all():
        raise RangeError("ref_weight_scale", config.ref_weight_scale, "keeping the weights finite")
    return policy


def _run_basic_mode(config: RunConfig, out_dir: Path):
    objective = _make_objective(config)
    theta0, Delta = bench_mod.start_with_gap(objective, config.Delta)
    schedule = schedule_from_theorem(
        config.epsilon, config.Lambda, objective.ell, Delta, config.s, config.d, c_m=config.c_m
    )
    traj = run_basic(
        objective.comparison_oracle(),
        ParamVector(theta0),
        schedule,
        RngState(config.seed),
        objective=objective,
        stop_grad_norm=config.epsilon,
    )
    artifacts = {"trajectory": export_results(traj, out_dir / "trajectory.csv")}
    summary = {
        "schedule": {"T": schedule.T, "eta": schedule.eta, "r": schedule.r, "m": schedule.m},
        "iterations_run": len(traj.records),
        "total_oracle_calls": traj.total_oracle_calls,
        "min_grad_norm": traj.min_grad_norm,
        "profile": loop_profile([traj]),
    }
    return artifacts, None, summary


def _practical_config(config: RunConfig) -> PracticalConfig:
    return PracticalConfig(
        gamma=config.gamma,
        radius=config.r,
        m=config.m,
        lambda_g=config.lambda_g,
        skip_threshold=config.skip_threshold,
        iterations=config.T,
        scope_mask=config.scope_mask,
        seed=config.seed,
        pairs_per_batch=config.pairs_per_batch,
    )


def _run_practical_mode(config: RunConfig, out_dir: Path):
    practical = _practical_config(config)
    artifacts = {}
    if config.dataset is not None:
        pairs = _load_dataset(config.dataset, config.vocab_size)
        traj, final_policy, before = policy_mod.refine(_make_policy(config), pairs, practical)
        report = policy_mod.likelihood_report(before, final_policy, pairs)
        artifacts["likelihood_report"] = export_results(
            report, out_dir / "likelihood_report.csv"
        )
        summary = {
            "pairs": len(pairs),
            "verdicts": sum(int(row.verdict) for row in report.rows),
        }
    else:
        objective = _make_objective(config)
        theta0_values, _ = bench_mod.start_with_gap(objective, config.Delta)
        traj = run_practical(
            objective.comparison_oracle(),
            ParamVector(theta0_values),
            practical,
            objective=objective,
        )
        summary = {"min_grad_norm": traj.min_grad_norm}
    artifacts["trajectory"] = export_results(traj, out_dir / "trajectory.csv")
    summary["total_oracle_calls"] = traj.total_oracle_calls
    summary["profile"] = loop_profile([traj])
    summary["skipped_iterations"] = summary["profile"]["skipped_iterations"]
    return artifacts, None, summary


def _run_pipeline_mode(config: RunConfig, out_dir: Path):
    if config.dataset is not None:
        dataset = _load_dataset(config.dataset, config.vocab_size)
        if not dataset:
            # run_practical rejects it too, but a pipeline would split
            # nothing and save the reference twice before it got there
            raise InvalidScheduleError("data stream must contain at least one pair")
    ref_policy = _make_policy(config)
    if config.dataset is None:
        gen = np.random.Generator(np.random.Philox(key=int(config.seed)))
        dataset = policy_mod.generate_preference_data(
            ref_policy, config.n_clean, config.n_noisy, config.delta, gen
        )
    pipeline_config = policy_mod.PipelineConfig(
        practical=_practical_config(config),
        delta=config.delta,
        dpo=policy_mod.DpoConfig(
            beta=config.beta, learning_rate=config.learning_rate, epochs=config.dpo_epochs
        ),
        refine_epochs=config.refine_epochs,
    )
    result = policy_mod.run_pipeline(dataset, pipeline_config, ref_policy=ref_policy)
    profile = loop_profile([] if result.trajectory is None else [result.trajectory])
    profile.update({f"{stage}_seconds": seconds for stage, seconds in result.stage_seconds.items()})
    artifacts = {"split_report": export_results(result.split, out_dir / "split_report.csv")}
    if config.dataset is None:
        # synthesized before any stage ran, written with the other artifacts
        artifacts["dataset"] = out_dir / "dataset.jsonl"
        policy_mod.save_preference_dataset(dataset, artifacts["dataset"])
    np.save(out_dir / "dpo_clean_weights.npy", result.dpo_clean_policy.weights)
    artifacts["dpo_clean_weights"] = out_dir / "dpo_clean_weights.npy"
    np.save(out_dir / "final_weights.npy", result.final_policy.weights)
    artifacts["final_weights"] = out_dir / "final_weights.npy"
    if result.trajectory is not None:
        artifacts["trajectory"] = export_results(result.trajectory, out_dir / "trajectory.csv")
        artifacts["likelihood_report"] = export_results(
            result.report, out_dir / "likelihood_report.csv"
        )
    summary = {
        "clean_pairs": len(result.split.clean),
        "noisy_pairs": len(result.split.noisy),
        "skipped_iterations": profile["skipped_iterations"],
        "warnings": list(result.warnings),
        "profile": profile,
    }
    return artifacts, None, summary


def _run_bench_lemma(config: RunConfig, out_dir: Path):
    objective = bench_mod.make_sparse_quadratic(config.d, config.s, seed=config.objective_seed)
    rng = RngState(config.seed)
    theta = bench_mod.point_with_gradient_norm(objective, 1.0, rng.substream(rng.next_block()))
    agreement = bench_mod.check_sign_agreement(
        objective, theta, config.epsilon, config.n_samples, rng
    )
    passed = agreement >= SIGN_AGREEMENT_FLOOR
    summary = {
        "suite": "lemma",
        "d": config.d,
        "s": config.s,
        "epsilon": config.epsilon,
        "n_samples": config.n_samples,
        "agreement": agreement,
        "threshold": SIGN_AGREEMENT_FLOOR,
        "pass": passed,
    }
    artifacts = {"summary": _write_json(summary, out_dir / "lemma_summary.json")}
    return artifacts, passed, summary


def _run_bench_proposition(config: RunConfig, out_dir: Path):
    m = config.bench_m
    if m is None:
        m = int(math.ceil(40.0 * config.s * math.log(2.0 * config.d / config.s)))
    report = bench_mod.check_estimator_error(
        config.d, config.s, config.flip_prob, m, config.trials, RngState(config.seed)
    )
    successes = report.count_within(RECOVERY_TOLERANCE)
    need = int(math.ceil(RECOVERY_SUCCESS_RATE * config.trials))
    passed = successes >= need
    summary = {
        "suite": "proposition",
        "d": config.d,
        "s": config.s,
        "flip_prob": config.flip_prob,
        "m": m,
        "empirical_m_constant": m / (config.s * math.log(2.0 * config.d / config.s)),
        "trials": config.trials,
        "tolerance": RECOVERY_TOLERANCE,
        "successes": successes,
        "required": need,
        "pass": passed,
    }
    artifacts = {
        "report": export_results(report, out_dir / "proposition_report.csv"),
        "summary": _write_json(summary, out_dir / "proposition_summary.json"),
    }
    return artifacts, passed, summary


def _run_bench_sweep(config: RunConfig, out_dir: Path):
    report = bench_mod.sweep_convergence(
        list(config.dims),
        config.s,
        config.epsilon,
        config.Lambda,
        [config.seed + s for s in config.bench_seeds],
        c_m=config.c_m,
        gap=config.Delta,
    )
    max_ratio = report.max_doubling_ratio()
    passed = report.all_converged() and max_ratio is not None and max_ratio <= SWEEP_MAX_RATIO
    summary = {
        "suite": "sweep",
        "dims": list(config.dims),
        "s": config.s,
        "epsilon": config.epsilon,
        "c_m": config.c_m,
        "mean_calls": {str(d): report.mean_calls(d) for d in config.dims},
        "doubling_ratios": [[lo, hi, ratio] for lo, hi, ratio in report.doubling_ratios()],
        "max_ratio": max_ratio,
        "max_ratio_allowed": SWEEP_MAX_RATIO,
        "all_converged": report.all_converged(),
        "pass": passed,
    }
    artifacts = {
        "report": export_results(report, out_dir / "sweep_report.csv"),
        "summary": _write_json(summary, out_dir / "sweep_summary.json"),
    }
    return artifacts, passed, dict(summary, profile=report.profile)  # timings stay out of the JSON


# each mode's runner, and the operating point it starts from where the config
# leaves a field unset; RangeError lists the modes in this order
_MODES = {
    "basic": (_run_basic_mode, {}),
    "practical": (_run_practical_mode, {}),
    "pipeline": (_run_pipeline_mode, {}),
    "bench-lemma": (_run_bench_lemma, {"d": 100, "s": 5, "epsilon": 1.0}),
    "bench-proposition": (_run_bench_proposition, {"d": 500, "s": 5}),
    "bench-sweep": (_run_bench_sweep, {"s": 5, "epsilon": 0.1, "Lambda": 0.1, "c_m": 2.0}),
}
MODES = tuple(_MODES)
_SUITES = tuple(mode.removeprefix("bench-") for mode in MODES if mode.startswith("bench-"))


# ----- command line ----------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="duelopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", default=None, help="override output directory")

    p_bench = sub.add_parser("bench", help="run validation suites")
    p_bench.add_argument("--suite", required=True, choices=(*_SUITES, "all"))
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)

    p_split = sub.add_parser("split", help="split a preference dataset by margin")
    p_split.add_argument("--dataset", required=True)
    p_split.add_argument("--delta", type=float, required=True)
    p_split.add_argument("--out", default=None)
    # unset policy flags keep the run config's defaults
    p_split.add_argument("--vocab-size", type=int, default=None)
    p_split.add_argument("--feature-dim", type=int, default=None)
    p_split.add_argument("--feature-seed", type=int, default=None)
    p_split.add_argument("--ref-weight-seed", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_split(args)
    except (DueloptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as exc:  # a size in range the machine or numpy cannot hold
        if isinstance(exc, ValueError) and not str(exc).startswith("array is too big"):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    manifest = run_experiment(parse_config(args.config, overrides))
    print(json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True))
    return 0 if manifest.passed is not False else 1


def _cmd_bench(args) -> int:
    suites = _SUITES if args.suite == "all" else (args.suite,)
    base = _out_dir(args.out)
    all_passed = True
    for suite in suites:
        mode = f"bench-{suite}"
        overrides = {"seed": args.seed, "out_dir": str(base / suite)}
        config = build_config({"mode": mode}, overrides=overrides)
        manifest = run_experiment(config)
        status = "PASS" if manifest.passed else "FAIL"
        print(f"[{suite}] {status}: {json.dumps(manifest.summary, sort_keys=True)}")
        all_passed = all_passed and bool(manifest.passed)
    return 0 if all_passed else 1


def _cmd_split(args) -> int:
    overrides = {"delta": args.delta}
    for name in ("vocab_size", "feature_dim", "feature_seed", "ref_weight_seed"):
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    config = build_config({"mode": "pipeline"}, overrides=overrides)
    pairs = _load_dataset(args.dataset, config.vocab_size)
    split = policy_mod.split_by_margin(_make_policy(config), pairs, config.delta)
    path = export_results(split, _out_dir(args.out) / "split_report.csv")
    print(
        json.dumps(
            {"clean": len(split.clean), "noisy": len(split.noisy), "report": str(path)},
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
