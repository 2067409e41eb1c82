"""The conv+BiLSTM's steady memory and latency figures at the default layer sizes.

The benchmark's resident peak moves with the allocator's heap placement from
run to run, and its one-text latency with the host's speed. This script
measures, in this process, on weights drawn from seed 0 for 12 labels and a
219-slot charset (218 characters and the unknown slot):

    step_peak_mib     tracemalloc peak above its start of one batch-48
                      `loss_and_grads` on random character indices
    predict_peak_mib  the same of one `predict` of 48 texts of 300 characters
    predict_one_ms    the median wall time of a one-text `predict`, untraced,
                      over 200 texts of 300 characters

and prints them as one JSON object. It takes no option and runs the package
under `src/` of this checkout.

    python3 tools/clstm_step.py
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from lident import Charset, Label, clstm  # noqa: E402

BATCH = 48
LABELS = 12
CHARS = 218
TEXT_LEN = 300
LATENCY_TEXTS = 200


def peak_mib(fn) -> float:
    """tracemalloc's peak above its start while fn() runs, in MiB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


def measure() -> dict:
    chars = tuple(chr(0x100 + i) for i in range(CHARS))
    charset = Charset(chars)
    config = clstm.ClstmConfig(charset_dim=charset.size, batch_size=BATCH)
    params = clstm.init_params(config, charset.size, LABELS, np.random.default_rng(0))
    model = clstm.ClstmModel(config, charset, tuple(Label(f"l{i:02d}") for i in range(LABELS)), params)
    rng = np.random.default_rng(1)
    batch = clstm.EncodedBatch(rng.integers(-1, charset.size, (BATCH, config.seq_len)), rng.integers(0, LABELS, BATCH))
    texts = ["".join(rng.choice(chars, TEXT_LEN)) for _ in range(BATCH)]
    step = peak_mib(lambda: clstm.loss_and_grads(params, config, batch, seed=2))
    scored = peak_mib(lambda: clstm.predict(model, texts))
    latencies = []
    for text in ["".join(rng.choice(chars, TEXT_LEN)) for _ in range(LATENCY_TEXTS)]:
        started = time.perf_counter()
        clstm.predict(model, [text])
        latencies.append((time.perf_counter() - started) * 1e3)
    return {
        "step_peak_mib": round(step, 1),
        "predict_peak_mib": round(scored, 1),
        "predict_one_ms": round(statistics.median(latencies), 3),
    }


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    print(json.dumps(measure()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
