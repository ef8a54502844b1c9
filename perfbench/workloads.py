"""The benchmark's workloads: one ``duelopt run`` config each, plus its output check.

A run with ``--seed n`` measures ``inputs`` inputs: the workload's config at
the config seeds ``input_seeds(n, inputs)``. Time to solution depends on the
input (``basic-10k`` needs 21 to 28 iterations across seeds), so averaging
several inputs per run keeps the reported figures comparable from seed to
seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# bench-sweep runs its cells at config seed + 0..4; a stride of 8 keeps the
# cells of different inputs disjoint
SEED_STRIDE = 8
HASHED_SUFFIXES = (".csv", ".npy", ".jsonl")


@dataclass(frozen=True)
class Workload:
    name: str
    # inputs per run: one pass over them takes about 17 s on a 2-core Xeon VM
    inputs: int
    config: dict
    smoke_config: dict
    # basic-10k also draws its objective from the seed
    seeds_objective: bool
    # (run config, manifest, out dir) -> reason the output is wrong, or None
    check: Callable
    # (manifest, out dir) -> oracle calls made by the repetition
    oracle_calls: Callable

    def raw_config(self, seed: int, out_dir: Path, smoke: bool = False) -> dict:
        raw = dict(self.smoke_config if smoke else self.config)
        raw["seed"] = seed
        if self.seeds_objective:
            raw["objective_seed"] = seed
        raw["out_dir"] = str(out_dir)
        return raw


def input_seeds(seed: int, inputs: int) -> list[int]:
    return [(seed * inputs + j) * SEED_STRIDE for j in range(inputs)]


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every CSV, .npy and .jsonl file the repetition wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.suffix in HASHED_SUFFIXES
    }


def _csv_column_sum(path: Path, column: str) -> int:
    header, *rows = Path(path).read_text(encoding="utf8").splitlines()
    idx = header.split(",").index(column)
    return sum(int(row.split(",")[idx]) for row in rows)


def _check_sweep(config, manifest, out_dir):
    if manifest.passed is not True:
        return f"bench-sweep did not pass: {manifest.summary}"
    return None


def _check_basic(config, manifest, out_dir):
    s = manifest.summary
    if not (s["min_grad_norm"] < config.epsilon):
        return f"min_grad_norm {s['min_grad_norm']} not below epsilon {config.epsilon}"
    if not (s["iterations_run"] < s["schedule"]["T"]):
        return f"ran the whole schedule ({s['iterations_run']} of T={s['schedule']['T']})"
    return None


def _check_pipeline(config, manifest, out_dir):
    if manifest.summary["noisy_pairs"] < 1:
        return "split produced no noisy pairs"
    missing = {"trajectory", "likelihood_report"} - set(manifest.artifacts)
    if missing:
        return f"missing artifacts: {sorted(missing)}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            inputs=6,
            config={"mode": "bench-sweep"},
            smoke_config={"mode": "bench-sweep", "dims": [50, 100], "bench_seeds": [0, 1]},
            seeds_objective=False,
            check=_check_sweep,
            # every cell converged (checked), so its calls-to-target are all its calls
            oracle_calls=lambda manifest, out: _csv_column_sum(
                out / "sweep_report.csv", "oracle_calls"
            ),
        ),
        Workload(
            name="basic-10k",
            inputs=8,
            config={"mode": "basic", "d": 10000, "s": 5, "c_m": 4, "epsilon": 0.1},
            smoke_config={"mode": "basic", "d": 1000, "s": 5, "c_m": 4, "epsilon": 0.1},
            seeds_objective=True,
            check=_check_basic,
            oracle_calls=lambda manifest, out: manifest.summary["total_oracle_calls"],
        ),
        Workload(
            name="pipeline",
            inputs=7,
            config={"mode": "pipeline", "n_clean": 40, "n_noisy": 20},
            smoke_config={"mode": "pipeline", "n_clean": 10, "n_noisy": 4},
            seeds_objective=False,
            check=_check_pipeline,
            oracle_calls=lambda manifest, out: _csv_column_sum(
                out / "trajectory.csv", "oracle_calls"
            ),
        ),
    )
}
