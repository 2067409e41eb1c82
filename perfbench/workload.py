"""One workload run in a fresh interpreter: the closed loop, its checks, its numbers.

`run.py` starts this script once per benchmark run, so peak RSS belongs to
the run alone. It writes one JSON document to `--out` and exits 0 even when
an operation failed; failures are counted, not raised.

The loop has one client that waits for each result. A round makes the
workload's training CLI calls and a CLI predict and eval (through
`lident.cli.main`, in this process), then scores a share of the latency
texts with one library call per text. Over
a plain run every latency text is scored `passes` times, in rounds spread
over the run, and fresh interpreters time set-up between rounds
(setup_probe.py). The plan (rounds, passes, probes) is fixed by the
workload and `--seconds` alone: it never depends on how fast the program
runs, and all of it always runs.

The host this was built on is shared: its CPU runs up to ~2x slower for
seconds to minutes at a time, and pinning to either vCPU does not avoid
it. So each round also samples a fixed reference loop (hostspeed.py)
right before and after every CLI call and probe and every 0.1 s while
scoring, and reports the samples with its raw wall times; run.py scales
each time by the two samples around it and takes medians over rounds
and calls.

With `--trace 1` three rounds run, each scoring every latency text once;
the middle one has every `lident` function wrapped (spans.py) and gives the
per-layer numbers (layers.py).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hostspeed  # sibling modules: the script's directory is on sys.path
import layers
import spans
from lident import cli, clstm, ngram
from lident.corpus import build_charset, read_tsv

NGRAM_ORDER = 7
DSL_TRAINS = 2          # ngram-dsl trains in under a second: two calls a round give more readings
SWEEP_ORDERS = (1, 8)
SPOT_CHECK_ORDER = 4    # sweep order retrained through the library and compared
LATENCY_TEXTS = 1008    # library scoring calls per pass: p99 has 10 samples beyond it
LATENCY_BLOCK_S = 0.1   # seconds of scoring calls between two host-speed samples
ORACLE_TEXTS = 2        # texts whose n-gram log-probs go to the exact oracle
MODEL_CHECK_TEXTS = 8   # clstm texts scored by both the in-memory and the loaded model
SETUP_PROBES = 3        # fresh interpreters timed per plain run
PROBE_TIMEOUT_S = 30
PLAN_SECONDS = 25       # --seconds at which a workload runs its `rounds` and `passes`


class Ledger:
    """Operations attempted and failed, with a note for the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


class Run:
    """Paths, the ledger and the optional tracer shared by one workload run."""

    def __init__(self, data: Path, work: Path, groups: Path, reference: str) -> None:
        self.data = data
        self.work = work
        self.groups = groups
        self.ledger = Ledger()
        self.tracer: spans.Tracer | None = None
        self.round = 0
        self.reference = reference         # hostspeed.py reference of the workload's kind
        self.host_ms: list[float] = []     # its samples in the current round

    def gauge(self) -> None:
        """One host-speed sample (hostspeed.py) for the current round."""
        self.host_ms.append(hostspeed.sample(self.reference))

    def phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.run_id = f"round{self.round}.{name}"
        return self.tracer.region(f"bench.{name}")

    def cli(self, phase: str, *argv) -> tuple[float, int]:
        """One CLI call through `lident.cli.main`: its wall time in seconds and
        the index of the host-speed sample taken right after it."""
        argv = [str(a) for a in argv]
        self.gauge()
        with self.phase(phase):
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a benchmark crash
                status = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
        self.gauge()
        # Each CLI call is a process of its own in real use: free its cyclic
        # garbage (autodiff tapes) now, not inside the next timed call.
        gc.collect()
        self.ledger.op(status == 0, f"lident {' '.join(argv[:3])}: exit {status}")
        return elapsed, len(self.host_ms) - 1

    def serve(self, model_path: Path, split: str) -> tuple:
        """CLI predict, then eval, on one split, and the eval check; their wall times."""
        d, w = self.data, self.work
        predict_s = self.cli("predict", "predict", "--model", model_path,
                             "--input", d / f"{split}.txt", "--out", w / "pred.txt")
        eval_s = self.cli("eval", "eval", "--model", model_path, "--gold", d / f"{split}.tsv",
                          "--groups", self.groups, "--format", "json", "--out", w / "eval.json")
        check_eval(self, split)
        return predict_s, eval_s


def _texts(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _gold(path: Path) -> list[str]:
    return [line.rsplit("\t", 1)[1] for line in path.read_text(encoding="utf-8").splitlines()]


def _chars(path: Path) -> int:
    return sum(len(line.rsplit("\t", 1)[0]) for line in path.read_text(encoding="utf-8").splitlines())


# --- the three workloads ----------------------------------------------------


def ngram_dsl(run: Run) -> dict:
    d, w = run.data, run.work
    return {"train_s": [run.cli("train", "train", "--kind", "ngram", "--n", NGRAM_ORDER, "--alpha", 0.1,
                                "--train", d / "train.tsv", "--out", w / "model.lidn")
                        for _ in range(DSL_TRAINS)]}


def ngram_sweep(run: Run) -> dict:
    d, w = run.data, run.work
    lo, hi = SWEEP_ORDERS
    sweep_s = run.cli("sweep", "sweep", "--train", d / "sweep_train.tsv", "--dev", d / "sweep_dev.tsv",
                      "--n-min", lo, "--n-max", hi, "--out", w / "sweep.csv")
    # The sweep keeps no model; train the spot-checked order to serve predict and eval.
    run.cli("train", "train", "--kind", "ngram", "--n", SPOT_CHECK_ORDER,
            "--train", d / "sweep_train.tsv", "--out", w / "model.lidn")
    return {"train_s": [sweep_s]}


def clstm_dsl(run: Run) -> dict:
    d, w = run.data, run.work
    trained: list = []
    real_train = clstm.train

    def keep_model(*args, **kwargs):  # the in-memory model, for the checkpoint check
        result = real_train(*args, **kwargs)
        trained.append(result[0])
        return result

    clstm.train = keep_model
    try:
        train_s = run.cli("train", "train", "--kind", "clstm", "--epochs", 1,
                          "--train", d / "small_train.tsv", "--dev", d / "small_dev.tsv",
                          "--out", w / "model.ckpt", "--history", w / "history.csv")
    finally:
        clstm.train = real_train
    return {"train_s": [train_s], "trained": trained[0] if trained else None}


def ngram_dsl_checks(run: Run, out: dict, model, first: bool) -> dict:
    return {"oracle": _oracle(run, model, NGRAM_ORDER, "train.tsv")} if first else {}


def ngram_sweep_checks(run: Run, out: dict, model, first: bool) -> dict:
    try:
        with open(run.work / "sweep.csv", encoding="utf-8") as fh:
            rows = {int(r["n"]): r for r in csv.DictReader(fh)}
    except (OSError, ValueError, KeyError) as exc:
        rows = {}
        run.ledger.op(False, f"sweep CSV unreadable: {exc}")
    lo, hi = SWEEP_ORDERS
    run.ledger.op(sorted(rows) == list(range(lo, hi + 1)), f"sweep rows {sorted(rows)}")
    if not first:
        return {}
    train = read_tsv(run.data / "sweep_train.tsv")
    spot = ngram.train(train, ngram.NgramConfig(SPOT_CHECK_ORDER, 0.1), build_charset(train))
    expected = f"{ngram.accuracy(spot, read_tsv(run.data / 'sweep_dev.tsv')):.6f}"
    got = rows.get(SPOT_CHECK_ORDER, {}).get("accuracy")
    run.ledger.op(got == expected, f"sweep order {SPOT_CHECK_ORDER}: CSV {got} != library {expected}")
    return {"oracle": _oracle(run, model, SPOT_CHECK_ORDER, "sweep_train.tsv")}


def clstm_dsl_checks(run: Run, out: dict, model, first: bool) -> dict:
    try:
        with open(run.work / "history.csv", encoding="utf-8") as fh:
            losses = [float(r["train_loss"]) for r in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError):
        losses = []
    run.ledger.op(bool(losses) and all(math.isfinite(x) for x in losses), f"clstm losses {losses}")
    if first:
        texts = _texts(run.data / "small_test.txt")[:MODEL_CHECK_TEXTS]
        if out["trained"] is None or model is None:
            run.ledger.op(False, "no in-memory or loaded clstm model to compare")
        else:
            mine = [s.per_label for s in clstm.predict(out["trained"], texts)]
            loaded = [s.per_label for s in clstm.predict(model, texts)]
            run.ledger.op(mine == loaded, "loaded checkpoint scores differ from the in-memory model")
    return {}


def _oracle(run: Run, model, order: int, train_file: str) -> dict:
    """Log-probs of a few texts for the parent to compare with the exact oracle."""
    texts = _texts(run.data / "holdout.txt")[:ORACLE_TEXTS] if model is not None else []
    return {"order": order, "train": train_file,
            "log_probs": [{"text": t, "log_probs": {label.code: model.log_prob(t, label)
                                                    for label in model.labels}} for t in texts]}


@dataclass(frozen=True)
class Workload:
    cli_round: Callable[[Run], dict]      # the round's training CLI calls -> {"train_s": [...], ...}
    checks: Callable[..., dict]           # workload-specific output checks
    train_file: str
    train_passes: int                     # training passes over train_file within train_s
    model_file: str
    loader: Callable
    score: Callable                       # (model, text) -> best label code
    predict_split: str
    probe: Callable[[Run], list]          # setup_probe.py arguments: kind, then files
    rounds: int
    passes: int                           # scoring passes over the latency texts per run
    chunks: int                           # each pass is scored in this many slices
    reference: str                        # hostspeed.py reference of the same kind of work
    # Whether p99 takes scaled calls. With `python`, slow phases shorter than a
    # block land uncorrected in the tail, and nearly every run holds such
    # phases: on ngram-dsl the raw p99 spread 2-13% over 6- and 10-run sets,
    # the scaled one 9-19%. The `blas` samples change little, and on
    # clstm-dsl scaling steadied p99 (8-18% against 14-24% raw).
    tail_scaled: bool


WORKLOADS = {
    "ngram-dsl": Workload(
        ngram_dsl, ngram_dsl_checks, "train.tsv", 1, "model.lidn", ngram.load,
        lambda m, t: m.classify(t).best.code, "holdout", lambda run: ["ngram", run.work / "model.lidn"],
        rounds=5, passes=2, chunks=3, reference="python", tail_scaled=False),
    "ngram-sweep": Workload(
        ngram_sweep, ngram_sweep_checks, "sweep_train.tsv", SWEEP_ORDERS[1] - SWEEP_ORDERS[0] + 1,
        "model.lidn", ngram.load, lambda m, t: m.classify(t).best.code, "holdout",
        lambda run: ["corpus", run.data / "sweep_train.tsv", run.data / "sweep_dev.tsv"],
        rounds=5, passes=3, chunks=2, reference="python", tail_scaled=False),
    "clstm-dsl": Workload(
        clstm_dsl, clstm_dsl_checks, "small_train.tsv", 1, "model.ckpt", clstm.load_checkpoint,
        lambda m, t: clstm.predict(m, [t])[0].best.code, "small_test",
        lambda run: ["clstm", run.work / "model.ckpt"],
        rounds=3, passes=2, chunks=2, reference="blas", tail_scaled=True),
}


# --- checks shared by the workloads -----------------------------------------


def check_eval(run: Run, split: str) -> None:
    """The `eval` JSON accuracy must equal the accuracy recomputed from CLI predictions."""
    pred_file = run.work / "pred.txt"
    predicted = _texts(pred_file) if pred_file.is_file() else []
    gold = _gold(run.data / f"{split}.tsv")
    try:
        report = json.loads((run.work / "eval.json").read_text(encoding="utf-8"))
        reported, split_ok = report["accuracy"], report["group_split"] is not None
    except (OSError, ValueError, KeyError) as exc:
        run.ledger.op(False, f"eval report unreadable: {exc}")
        return
    recomputed = sum(p == g for p, g in zip(predicted, gold)) / len(gold)
    run.ledger.op(len(predicted) == len(gold) and reported == recomputed and split_ok,
                  f"eval accuracy {reported} != recomputed {recomputed} (or no group split)")


# --- measurement ------------------------------------------------------------


def _load(run: Run, loader, path: Path):
    try:
        model = loader(path)
    except Exception as exc:
        run.ledger.op(False, f"loading {path.name}: {type(exc).__name__}: {exc}")
        return None
    run.ledger.op(True, "")
    return model


class Latency:
    """Every successful library scoring call's wall time, and each text's label.

    A call is kept with the index, in its round's host-speed samples, of
    the sample that closes its block of calls.
    """

    def __init__(self, texts: list[str]) -> None:
        self.texts = texts
        self.labels: list[str | None] = [None] * len(texts)
        self.calls_ms: list[tuple[float, int]] = []

    def score(self, run: Run, wl: Workload, model, indices) -> None:
        """One library scoring call per text; a host-speed sample after every block of calls."""
        clock = time.perf_counter
        with run.phase("score"):
            block_started = clock()
            for i in indices:
                started = clock()
                try:
                    label, problem = wl.score(model, self.texts[i]), ""
                except Exception as exc:
                    label, problem = None, f"library scoring raised {type(exc).__name__}: {exc}"
                elapsed = (clock() - started) * 1e3
                if run.ledger.op(label is not None, problem):
                    self.calls_ms.append((elapsed, len(run.host_ms)))
                self.labels[i] = label
                if clock() - block_started >= LATENCY_BLOCK_S:
                    run.gauge()
                    block_started = clock()
            run.gauge()


def setup_time(run: Run, wl: Workload) -> float | None:
    """Seconds from starting a fresh interpreter until it could score its first text,
    and the index of the host-speed sample taken right after."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), *map(str, wl.probe(run))]
    run.gauge()
    started = time.monotonic()
    try:
        proc = subprocess.run(probe, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        elapsed = float(proc.stdout.strip()) - started
        run.gauge()
    except subprocess.TimeoutExpired:
        run.ledger.op(False, f"set-up probe took over {PROBE_TIMEOUT_S} s")
        return None
    except ValueError:
        run.ledger.op(False, f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        return None
    run.ledger.op(True, "")
    return elapsed, len(run.host_ms) - 1


def _spread(count: int, slots: int) -> list[int]:
    """`count` indices spread evenly over range(slots), first and last included."""
    return [round(i * (slots - 1) / max(count - 1, 1)) for i in range(count)]


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its own API."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--data", type=Path, required=True, help="generated corpus directory")
    parser.add_argument("--work", type=Path, required=True, help="scratch directory for models")
    parser.add_argument("--groups", type=Path, required=True, help="label<TAB>group file")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    run = Run(args.data, args.work, args.groups, wl.reference)
    predict_texts = _texts(run.data / f"{wl.predict_split}.txt")
    latency = Latency(predict_texts + _texts(run.data / "test.txt")[: LATENCY_TEXTS - len(predict_texts)])
    n = len(latency.texts)
    slices = [range(c * n // wl.chunks, (c + 1) * n // wl.chunks) for c in range(wl.chunks)]
    if args.trace:
        # Plain, traced, plain, each scoring every text once. The first round
        # also warms up and loads the library model, so the overhead ratio
        # compares the traced round with the last.
        plan, passes = [False, True, False], 3
        slices_of = [slices] * 3
    else:
        # Pass after pass, slice after slice, dealt out evenly over the rounds,
        # so a text's passes fall in rounds far apart. The plan grows with
        # --seconds and with nothing else.
        scale = args.seconds / PLAN_SECONDS
        plan, passes = [False] * max(1, round(wl.rounds * scale)), max(1, round(wl.passes * scale))
        work = [s for _ in range(passes) for s in slices]
        slices_of = [work[r * len(work) // len(plan):(r + 1) * len(work) // len(plan)]
                     for r in range(len(plan))]
    probe_rounds = _spread(SETUP_PROBES, len(plan))

    rounds: list[dict] = []
    walls: list[float] = []
    extra: dict = {}
    tables: dict[str, int] = {}
    model = tracer = None
    # Untimed training calls first: a process's first CLI calls pay for
    # growing its heap and for first-use paths (the first `sweep` ran ~1.4x slower).
    wl.cli_round(run)
    for r, traced in enumerate(plan):
        run.round = r
        if traced:
            def note_tables(trained) -> None:
                # Its own span, so the caller's self time does not absorb the count.
                with tracer.region("bench.tables"):
                    for key in ("table_entries", "history_entries"):
                        tables[key] = max(tables.get(key, 0), getattr(trained, key)())

            tracer = run.tracer = spans.Tracer()
            tracer.install(on_result={"ngram.train": note_tables})
        round_started = time.perf_counter()
        run.host_ms = []
        first_call = len(latency.calls_ms)
        served: list[tuple] = []
        try:
            out = wl.cli_round(run)
            if model is None:
                with run.phase("load"):
                    model = _load(run, wl.loader, run.work / wl.model_file)
            served.append(run.serve(run.work / wl.model_file, wl.predict_split))
            for indices in slices_of[r]:
                latency.score(run, wl, model, indices)
        finally:
            walls.append(time.perf_counter() - round_started)
            if traced:
                tracer.uninstall()
                run.tracer = None
        extra.update(wl.checks(run, out, model, r == 0))
        setup = [] if args.trace else [setup_time(run, wl) for _ in range(probe_rounds.count(r))]
        rounds.append({
            "train_s": out["train_s"],
            "served": served,
            "calls_ms": latency.calls_ms[first_call:],
            "setup_s": [t for t in setup if t is not None],
            "host_ms": run.host_ms,
        })

    # The last CLI predictions must equal the library's labels from the loaded model.
    labels = latency.labels
    cli_labels = _texts(run.work / "pred.txt") if (run.work / "pred.txt").is_file() else []
    for i in range(len(predict_texts)):
        ok = i < len(cli_labels) and labels[i] is not None and cli_labels[i] == labels[i]
        run.ledger.op(ok, f"text {i}: library label {labels[i]!r} differs from CLI predict")
    if tracer is not None:
        extra["layers"] = layers.derive(tracer, walls[2], walls[1], tables)
        if args.spans:
            tracer.write(args.spans)
    model_path = run.work / wl.model_file
    result = {
        "workload": args.workload,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "problems": run.ledger.problems,
        "rounds": rounds,
        "round_walls_s": walls,
        "reference": wl.reference,
        "tail_scaled": wl.tail_scaled,
        "train_chars": wl.train_passes * _chars(run.data / wl.train_file),
        "train_instances": wl.train_passes * len(_texts(run.data / wl.train_file)),
        "predict_texts": len(predict_texts),
        "model_bytes": model_path.stat().st_size if model_path.is_file() else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        **extra,
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
