"""Smoke tests of the measuring scripts under tools/."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
sys.path.insert(0, str(TOOLS))

import compare  # noqa: E402


def test_scale_prints_each_step():
    # One run of the whole script, in a child that then checks it never imported
    # numpy: the scale process used to draw the corpus itself, and Linux carries its
    # resident peak into each child's ru_maxrss, so every step's peak_mib was floored at it.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import scale; scale.main(['--per-label', '2']); "
            "assert 'numpy' not in sys.modules, 'the scale process imported numpy'")
    done = subprocess.run([sys.executable, "-c", code, str(TOOLS)], capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert sorted(report) == ["dump", "eval", "file_bytes", "load", "n", "per_label", "score", "table_bytes", "train",
                              "widths"]
    assert (report["per_label"], report["n"]) == (2, 7)
    # the levels the figures measured: a few dozen positions fit all 6 history symbols in one
    assert report["widths"] == [6, 1]
    assert sorted(report["train"]) == sorted(report["load"]) == sorted(report["score"]) == \
        ["peak_mib", "traced_mib", "wall_s"]
    assert sorted(report["dump"]) == ["bytes", "peak_mib", "traced_mib", "wall_s"]
    assert sorted(report["eval"]) == ["accuracy", "peak_mib", "traced_mib", "wall_s"]
    for step in ("train", "load", "dump", "eval", "score"):
        assert report[step]["wall_s"] > 0 and report[step]["peak_mib"] > 0
        # the traced peak counts what lident and numpy allocate, not the interpreter itself
        assert 0 < report[step]["traced_mib"] < report[step]["peak_mib"]
    # eval scores the test texts after loading the model that load alone loads
    assert report["eval"]["traced_mib"] > report["load"]["traced_mib"]
    # score does less than eval, and its traced peak starts after the load
    assert report["score"]["traced_mib"] < report["eval"]["traced_mib"]
    assert 0 < report["dump"]["bytes"] < report["file_bytes"]
    assert 0 <= report["eval"]["accuracy"] <= 1
    assert report["table_bytes"] > 0 and report["file_bytes"] > 0


def test_clstm_step_prints_its_three_figures():
    done = subprocess.run([sys.executable, str(TOOLS / "clstm_step.py")], capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert sorted(report) == ["predict_one_ms", "predict_peak_mib", "step_peak_mib"]
    assert all(value > 0 for value in report.values())


def test_compare_pairs_figures():
    # a lower-is-better metric: HEAD wins pairs 2 and 4, pair 3 is a tie, and
    # pair 5 (no HEAD value, as from a failed run) is left out
    base, head = [2.0, 4.0, 3.0, 1.0, 5.0], [3.0, 2.0, 3.0, 0.5, None]
    first = [True, False, True, False, True]
    figures = compare.paired(base, head, first, "lower")
    assert figures == {
        "better": "lower",
        "pairs": 4,
        "median_ratio": 0.75,  # of 1.5, 0.5, 1.0 and 0.5
        "median_ratio_base_first": 1.25,  # of 1.5 and 1.0
        "median_ratio_head_first": 0.5,
        "base_quartiles": [1.75, 2.5, 3.25],
        "head_quartiles": [1.625, 2.5, 3.0],
        "head_wins": 2,
    }
    # the same numbers where higher is better: HEAD wins pair 1 only
    assert compare.paired(base, head, first, "higher")["head_wins"] == 1
    assert compare.paired([2.0], [2.0], [True], "higher") == {
        "better": "higher", "pairs": 1, "median_ratio": 1.0, "median_ratio_base_first": 1.0,
        "median_ratio_head_first": None, "base_quartiles": [2.0] * 3, "head_quartiles": [2.0] * 3,
        "head_wins": 0,
    }


def test_compare_probe_figures():
    # seconds of four alternating probes per tree, BASE first in even runs; the
    # last HEAD probe failed, so its pair is left out of the ratios and the medians
    base, head = [0.25, 0.125, 0.5, 0.375], [0.125, 0.25, 0.25, None]
    figures = compare.probe_figures("ngram", base, head, [True, False, True, False], {"median_ratio": 1.07})
    assert figures == {
        "kind": "ngram",
        "better": "lower",
        "pairs": 3,
        "median_ratio": 0.5,  # of 0.5, 2.0 and 0.5
        "median_ratio_base_first": 0.5,
        "median_ratio_head_first": 2.0,
        "base_quartiles": [0.1875, 0.25, 0.375],
        "head_quartiles": [0.1875, 0.25, 0.25],
        "head_wins": 2,
        "base_median_s": 0.3125,  # of all four BASE probes
        "head_median_s": 0.25,
        "setup_s_median_ratio": 1.07,
    }


def test_compare_probes_each_tree_in_turn(tmp_path, monkeypatch):
    # two trees that hold this checkout's package and probe, and the files a
    # benchmark run of ngram-sweep leaves: its corpora, under the last seed
    for side in ("base", "head"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "src").symlink_to(ROOT / "src")
        (tmp_path / side / "perfbench" / "setup_probe.py").symlink_to(ROOT / "perfbench" / "setup_probe.py")
        corpus = tmp_path / side / ".perfbench" / "corpus" / f"seed-{compare.SEEDS[-1]}-0123"
        corpus.mkdir(parents=True)
        for name in ("sweep_train", "sweep_dev"):
            (corpus / f"{name}.tsv").write_text("bonjour\tfr\nhola\tes\n", encoding="utf-8")
    monkeypatch.setattr(compare, "PROBE_RUNS", 3)
    kind, times, base_first = compare.probe_pairs(tmp_path, "ngram-sweep")
    assert kind == "corpus" and base_first == [True, False, True]
    assert all(len(times[side]) == 3 and all(0 < t < 60 for t in times[side]) for side in times)
    # a tree without the files fails its probes, which read as None
    (corpus / "sweep_dev.tsv").unlink()
    assert compare.probe_pairs(tmp_path, "ngram-sweep")[1]["head"] == [None] * 3
