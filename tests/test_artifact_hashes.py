"""``tools/artifact_hashes.py --check`` passes on a match and names each changed artifact.

Recorded digests depend on the BLAS kernels, so this checks the mechanics on
one tiny config written and checked in the same process, never the committed
``ARTIFACT_HASHES.json``.
"""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_hashes.py"
TINY = {"mode": "bench-proposition", "d": 20, "s": 2, "trials": 2, "seed": 0}


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_check_passes_on_match_and_names_each_changed_artifact(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "INPUTS", {"tiny/seed0": TINY})
    recorded = tmp_path / "hashes.json"
    assert tool.main(["--write", str(recorded)]) == 0
    data = json.loads(recorded.read_text())
    assert set(data["inputs"]["tiny/seed0"]) == {"proposition_report.csv", "proposition_summary.json"}
    capsys.readouterr()

    assert tool.main(["--check", str(recorded)]) == 0
    assert capsys.readouterr().out.startswith("ok: 2 digests match")

    data["inputs"]["tiny/seed0"]["proposition_report.csv"] = "0" * 64
    del data["inputs"]["tiny/seed0"]["proposition_summary.json"]
    recorded.write_text(json.dumps(data))
    assert tool.main(["--check", str(recorded)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "tiny/seed0: proposition_report.csv changed",
        "tiny/seed0: proposition_summary.json not recorded",
    ]
