"""Per-layer numbers derived from one traced round's spans and counts.

Every metric is reported on every workload; a layer the workload never
calls reads 0. Which end-to-end metric each one should move, and on which
workload, is tabulated in perfbench/README.md.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from lident import autodiff as ad
from lident.clstm import ClstmConfig

BACKWARD_REPS = 5


def _conv_stage_tags() -> dict[str, int]:
    """conv1d span tag ("width x in_channels") -> stage, at the default layer sizes."""
    cfg = ClstmConfig()
    tags, in_ch = {}, cfg.charset_dim
    for stage, width in enumerate(cfg.conv_kernels, start=1):
        tags[f"{width}x{in_ch}"] = stage
        in_ch = cfg.conv_features
    return tags


def backward_ms() -> dict[str, float]:
    """Tape.backward of each conv stage and one LSTM direction, alone, at default shapes.

    Stage 1 reads a constant one-hot input as in the classifier, so it skips
    the input gradient; later stages and the LSTM take a differentiable input.
    """
    cfg = ClstmConfig()
    rng = np.random.default_rng(0)

    def timed(build) -> float:
        samples = []
        for _ in range(BACKWARD_REPS):
            tape = ad.Tape()
            loss = ad.vsum(build(tape))
            started = time.perf_counter()
            tape.backward(loss)
            samples.append((time.perf_counter() - started) * 1e3)
        return statistics.median(samples)

    out = {}
    steps, in_ch, f = cfg.seq_len, cfg.charset_dim, cfg.conv_features
    for stage, (width, pool) in enumerate(zip(cfg.conv_kernels, cfg.pools), start=1):
        if stage == 1:
            x_data = np.eye(in_ch)[rng.integers(in_ch, size=steps)]
        else:
            x_data = rng.standard_normal((steps, in_ch))
        w_data = rng.standard_normal((f, width, in_ch)) * 0.05

        def conv(tape, x_data=x_data, w_data=w_data, first=stage == 1):
            x = ad.Tensor(x_data) if first else tape.leaf(x_data)
            return ad.conv1d(x, tape.leaf(w_data), tape.leaf(np.zeros(f)))

        out[f"autodiff.conv1d.stage{stage}.bwd_ms"] = timed(conv)
        steps, in_ch = (steps - width + 1) // pool, f
    h = cfg.lstm_hidden
    x_data = rng.standard_normal((steps, f))
    w_data = rng.standard_normal((4 * h, f + h)) * 0.05
    out["autodiff.lstm_forward.bwd_ms"] = timed(
        lambda tape: ad.lstm_forward(tape.leaf(x_data), tape.leaf(w_data), tape.leaf(np.zeros(4 * h)))
    )
    return out


def derive(tracer, plain_wall: float, traced_wall: float, tables: dict) -> dict[str, float]:
    """Per-layer metric name -> value, from the traced round."""
    durations: dict[str, list[float]] = defaultdict(list)
    work: dict[str, list] = defaultdict(list)
    own = tracer.self_times()
    cli_self = 0.0
    dense_outside_lstm: list[float] = []
    conv_by_stage: dict[int, list[float]] = defaultdict(list)
    stage_of = _conv_stage_tags()
    spans = tracer.spans
    for i, (name, start, end, parent, _, size) in enumerate(spans):
        durations[name].append(end - start)
        work[name].append(size)
        if name.startswith("cli."):
            cli_self += own[i]
        elif name == "autodiff.dense" and (parent < 0 or spans[parent][0] != "autodiff.lstm_forward"):
            dense_outside_lstm.append(end - start)
        elif name == "autodiff.conv1d" and size in stage_of:
            conv_by_stage[stage_of[size]].append(end - start)
    counts = tracer.counts
    # ngram.train calls per CLI call that trains: 1 for `train`, one per order for `sweep`.
    trains_under: dict[int, int] = defaultdict(int)
    for name, _, _, parent, _, _ in spans:
        if name == "ngram.train":
            while parent >= 0 and spans[parent][0] != "cli.main":
                parent = spans[parent][3]
            if parent >= 0:
                trains_under[parent] += 1

    def mean_ms(name: str) -> float:
        d = durations.get(name)
        return 1e3 * sum(d) / len(d) if d else 0.0

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def per_unit_ms(name: str) -> float:
        units = sum(w for w in work.get(name, ()) if w)
        return 1e3 * total(name) / units if units else 0.0

    def rate_m(name: str) -> float:
        t = total(name)
        return sum(w for w in work.get(name, ()) if w) / t / 1e6 if t else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    classified = counts["ngram.classify"]
    taped = sum(w for w in work.get("clstm.loss_and_grads", ()) if w)
    taped_ops = sum(v for k, v in counts.items()
                    if isinstance(k, tuple) and k[0] == "clstm.loss_and_grads"
                    and k[1].startswith("autodiff.") and k[1] != "autodiff.tape_backward")
    out = {
        "corpus.read_tsv.ms": mean_ms("corpus.read_tsv"),
        "corpus.build_charset.ms": mean_ms("corpus.build_charset"),
        "corpus.indices.calls_per_text": ratio(counts[("ngram.classify", "corpus.indices")], classified),
        "corpus.indices.mchar_per_s": rate_m("corpus.indices"),
        "ngram.train.mchar_per_s": rate_m("ngram.train"),
        "ngram.train.calls": max(trains_under.values(), default=0),
        "ngram.classify.ms_per_text": mean_ms("ngram.classify"),
        "ngram.log_prob.calls_per_text": ratio(counts[("ngram.classify", "ngram.log_prob")], classified),
        "ngram.accuracy.s": total("ngram.accuracy"),
        "ngram.table_entries": tables.get("table_entries", 0),
        "ngram.history_entries": tables.get("history_entries", 0),
        "ngram.save.ms": mean_ms("ngram.save"),
        "ngram.load.ms": mean_ms("ngram.load"),
        "serialization.write_envelope.ms": mean_ms("serialization.write_envelope"),
        "serialization.read_envelope.ms": mean_ms("serialization.read_envelope"),
    }
    for stage in (1, 2, 3):
        d = conv_by_stage.get(stage, [])
        out[f"autodiff.conv1d.stage{stage}.fwd_ms"] = 1e3 * sum(d) / len(d) if d else 0.0
    out["autodiff.maxpool1d.fwd_ms"] = mean_ms("autodiff.maxpool1d")
    out["autodiff.lstm_forward.fwd_ms"] = mean_ms("autodiff.lstm_forward")
    out["autodiff.dense.fwd_ms"] = (
        1e3 * sum(dense_outside_lstm) / len(dense_outside_lstm) if dense_outside_lstm else 0.0
    )
    bwd = backward_ms() if taped else {}
    for stage in (1, 2, 3):
        key = f"autodiff.conv1d.stage{stage}.bwd_ms"
        out[key] = bwd.get(key, 0.0)
    out["autodiff.lstm_forward.bwd_ms"] = bwd.get("autodiff.lstm_forward.bwd_ms", 0.0)
    out.update({
        "autodiff.tape_backward.ms_per_instance": ratio(1e3 * total("autodiff.tape_backward"), taped),
        "autodiff.ops_per_instance": ratio(taped_ops, taped),
        "autodiff.adam_step.ms": mean_ms("autodiff.adam_step"),
        "clstm.encode_batch.ms_per_instance": per_unit_ms("clstm.encode_batch"),
        "clstm.loss_and_grads.ms_per_instance": per_unit_ms("clstm.loss_and_grads"),
        "clstm.forward.ms_per_instance": per_unit_ms("clstm.forward"),
        "clstm.predict.ms_per_text": per_unit_ms("clstm.predict"),
        "clstm.save_checkpoint.ms": mean_ms("clstm.save_checkpoint"),
        "clstm.load_checkpoint.ms": mean_ms("clstm.load_checkpoint"),
        "metrics.confusion.ms": mean_ms("metrics.confusion"),
        "metrics.report.ms": mean_ms("metrics.report"),
        "metrics.render.ms": mean_ms("metrics.render"),
        "cli.self_ms": 1e3 * cli_self,
        "trace.overhead_ratio": traced_wall / plain_wall,
    })
    return out
