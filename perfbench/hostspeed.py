"""Host-speed gauge: scales wall times to a fixed reference speed of the CPU.

The shared machine this benchmark was built on runs the same code at
speeds up to about 2x apart, in phases that last from seconds to minutes.
Runs a few minutes apart then differ by as much as the phases do, whatever
a run does inside itself. So the workload samples a fixed reference loop
right before and after every CLI call and set-up probe, and every 0.1 s
while it scores texts, and run.py scales each time by

    nominal sample / mean(the sample before it, the sample after it)

A time taken while the host is at its nominal speed is unchanged; one
taken while the reference takes twice as long is halved. Each workload uses the
reference of its own kind of work, because the phases slow kinds of work
by different amounts: `python` counts and scores tuple-keyed n-gram
histories in nested dicts (the n-gram workloads), `blas` multiplies small
matrices (the clstm workload). Neither calls lident, so a change to the
program moves a scaled figure exactly as it moves the wall time.
"""

from __future__ import annotations

import math
import statistics
import time

ORDER = 4           # history length of the `python` reference's n-gram counts


def _symbols(count: int, alphabet: int) -> list[int]:
    """A fixed pseudo-random symbol sequence (a linear congruential generator)."""
    x, out = 12345, []
    for _ in range(count):
        x = (x * 1103515245 + 12345) % 2**31
        out.append((x >> 16) % alphabet)
    return out


_TEXT = _symbols(6000, 40)


def _python() -> None:
    """Count tuple-keyed histories in nested dicts, then sum log-probabilities."""
    table: dict[tuple, dict[int, int]] = {}
    for i in range(ORDER, len(_TEXT)):
        history = tuple(_TEXT[i - ORDER:i])
        nexts = table.get(history)
        if nexts is None:
            nexts = table[history] = {}
        nexts[_TEXT[i]] = nexts.get(_TEXT[i], 0) + 1
    total = 0.0
    for i in range(ORDER, len(_TEXT)):
        nexts = table[tuple(_TEXT[i - ORDER:i])]
        total += math.log((nexts[_TEXT[i]] + 0.1) / (len(nexts) + 1.1))


_MATRICES: list = []


def _blas() -> None:
    """Small matrix products, the shape of the clstm's batched layers."""
    if not _MATRICES:
        import numpy

        rng = numpy.random.default_rng(0)
        _MATRICES.extend([rng.standard_normal((64, 256)), rng.standard_normal((256, 256))])
    a, b = _MATRICES
    for _ in range(20):
        a @ b


# reference -> (loop, its sample in ms that leaves a time unchanged: a fast
# phase of the 2-vCPU build host)
REFERENCES = {"python": (_python, 7.0), "blas": (_blas, 3.0)}


def sample(reference: str) -> float:
    """Milliseconds one run of the reference takes now."""
    started = time.perf_counter()
    REFERENCES[reference][0]()
    return (time.perf_counter() - started) * 1e3


def factor(reference: str, samples: list[float]) -> float:
    """Factor that turns a wall time taken among `samples` into a nominal-speed time."""
    return REFERENCES[reference][1] / statistics.median(samples)
