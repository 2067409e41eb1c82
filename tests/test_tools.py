"""Smoke tests of the measuring scripts under tools/."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_scale_prints_each_step():
    done = subprocess.run([sys.executable, str(TOOLS / "scale.py"), "--per-label", "5"],
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert sorted(report) == ["eval", "file_bytes", "load", "n", "per_label", "table_bytes", "train"]
    assert (report["per_label"], report["n"]) == (5, 7)
    assert sorted(report["train"]) == sorted(report["load"]) == ["peak_mib", "wall_s"]
    assert sorted(report["eval"]) == ["accuracy", "peak_mib", "wall_s"]
    for step in ("train", "load", "eval"):
        assert report[step]["wall_s"] > 0 and report[step]["peak_mib"] > 0
    assert 0 <= report["eval"]["accuracy"] <= 1
    assert report["table_bytes"] > 0 and report["file_bytes"] > 0
