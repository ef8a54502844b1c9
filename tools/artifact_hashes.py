"""Record or check the sha256 of every artifact ``duelopt run`` writes for a fixed input set.

Usage, from the repository root:

    python3 tools/artifact_hashes.py --write ARTIFACT_HASHES.json
    python3 tools/artifact_hashes.py --check ARTIFACT_HASHES.json

Each input is a ``duelopt run`` config at one seed, run in-process through
``cli.run_experiment`` into a temporary directory. Every artifact its manifest
names is hashed; ``manifest.json`` itself is not, since it holds a wall-clock
time. ``--check`` exits 1 and names each artifact whose digest changed,
appeared or disappeared.

Digests depend on the BLAS kernels numpy calls (``W @ phi``, ``np.dot``), so
the file records the numpy version and BLAS configuration it was written
under; compare it on a machine with the same ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from duelopt import cli  # noqa: E402

SEEDS = (0, 8, 16)
TOY_PAIRS = ROOT / "src" / "duelopt" / "data" / "toy_pairs.jsonl"

# the benchmark's three workload configs, the two other bench suites at
# reduced size, the cosine objective's oracle, a masked synthetic practical
# run, the masked preference path, a dataset pipeline, a pipeline whose
# oracle compares two pairs per query, a narrow pipeline whose large beta
# pushes most DPO pairs past exp's range within one batch, and the narrowest
# policy (V x F = 2 x 1) through all three stages
BASE_CONFIGS = {
    "sweep": {"mode": "bench-sweep"},
    "basic-10k": {"mode": "basic", "d": 10000, "s": 5, "c_m": 4, "epsilon": 0.1},
    "pipeline": {"mode": "pipeline", "n_clean": 40, "n_noisy": 20},
    "bench-lemma": {"mode": "bench-lemma", "n_samples": 20000},
    "bench-proposition": {"mode": "bench-proposition", "trials": 30},
    "basic-nonconvex": {"mode": "basic", "objective": "nonconvex"},
    "practical-masked": {"mode": "practical", "scope_mask": list(range(0, 200, 17))},
    "practical-dataset-masked": {
        "mode": "practical", "dataset": str(TOY_PAIRS), "scope_mask": list(range(0, 128, 5)),
    },
    "pipeline-dataset": {"mode": "pipeline", "dataset": str(TOY_PAIRS)},
    "pipeline-pairs2": {
        "mode": "pipeline", "n_clean": 40, "n_noisy": 20, "pairs_per_batch": 2,
        "skip_threshold": 0.0,
    },
    "pipeline-saturated": {
        "mode": "pipeline", "vocab_size": 3, "feature_dim": 2, "n_clean": 10, "n_noisy": 5,
        "beta": 50.0, "dpo_epochs": 20,
    },
    "pipeline-narrow": {
        "mode": "pipeline", "vocab_size": 2, "feature_dim": 1, "n_clean": 10, "n_noisy": 5,
        "dpo_epochs": 5,
    },
}


def _inputs() -> dict[str, dict]:
    inputs = {}
    for name, base in BASE_CONFIGS.items():
        for seed in SEEDS:
            raw = dict(base, seed=seed)
            if name == "basic-10k":
                raw["objective_seed"] = seed
            inputs[f"{name}/seed{seed}"] = raw
    return inputs


INPUTS = _inputs()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
    }


def artifact_hashes(raw: dict) -> dict[str, str]:
    """sha256 of each artifact one config writes, keyed by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = cli.run_experiment(cli.build_config(dict(raw, out_dir=tmp)))
        return {
            Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in sorted(manifest.artifacts.values())
        }


def compare(recorded: dict[str, dict], current: dict[str, dict]) -> list[str]:
    """One line per artifact whose digest differs between two ``inputs`` tables."""
    lines = []
    for name in sorted(set(recorded) | set(current)):
        old, new = recorded.get(name, {}), current.get(name, {})
        for artifact in sorted(set(old) | set(new)):
            if artifact not in new:
                lines.append(f"{name}: {artifact} missing")
            elif artifact not in old:
                lines.append(f"{name}: {artifact} not recorded")
            elif old[artifact] != new[artifact]:
                lines.append(f"{name}: {artifact} changed")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="FILE", help="record the digests in FILE")
    action.add_argument("--check", metavar="FILE", help="compare the digests with FILE")
    args = parser.parse_args(argv)

    current = {name: artifact_hashes(raw) for name, raw in INPUTS.items()}
    if args.write:
        with open(args.write, "w", encoding="utf8") as handle:
            json.dump({"environment": environment(), "inputs": current}, handle, indent=2)
            handle.write("\n")
        print(f"wrote {sum(map(len, current.values()))} digests to {args.write}")
        return 0

    with open(args.check, encoding="utf8") as handle:
        recorded = json.load(handle)
    if recorded["environment"] != environment():
        print(f"note: recorded under {recorded['environment']}", file=sys.stderr)
    changed = compare(recorded["inputs"], current)
    for line in changed:
        print(line)
    if changed:
        return 1
    print(f"ok: {sum(map(len, current.values()))} digests match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
