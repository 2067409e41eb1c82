"""The benchmark's entry points into the package, which it reaches by name.

`perfbench/spans.py` wraps `lident` functions and methods by attribute name,
and `perfbench/layers.py` builds taped graphs of single layers, so a rename or
a changed return shape in `src/` breaks the benchmark without breaking any
other test. These tests run both against the package as it is.
"""

from __future__ import annotations

import importlib
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Import a module of perfbench/ by its file name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_tracer_installs_and_uninstalls(perfbench):
    spans = perfbench("spans")
    tracer = spans.Tracer()
    originals = {(short, cls, method): vars(getattr(importlib.import_module(f"lident.{short}"), cls))[method]
                 for short, cls, method, _ in spans.METHODS}
    try:
        tracer.install()  # a KeyError if a METHODS name left its class's __dict__
        assert tracer._patches
    finally:
        tracer.uninstall()
    for (short, cls, method), original in originals.items():
        assert vars(getattr(importlib.import_module(f"lident.{short}"), cls))[method] is original


def test_layer_backward_times(perfbench):
    times = perfbench("layers").backward_ms()
    expected = [f"autodiff.conv1d.stage{stage}.bwd_ms" for stage in (1, 2, 3)] + ["autodiff.lstm_forward.bwd_ms"]
    assert sorted(times) == sorted(expected)
    for name, value in times.items():
        assert math.isfinite(value) and value > 0, name
