"""lident benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workloads are described in
perfbench/README.md. This process generates the seed's corpora (cached
under .perfbench/, outside every timed process), starts one fresh
interpreter for the workload itself (workload.py), then checks n-gram
scores against the exact-rational oracle in tests/reference.py.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list. The lines before it print every
end-to-end figure by name and unit, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
GROUPS = ROOT / "tests" / "fixtures" / "groups.tsv"
REQUIRED = (ROOT / "BENCHMARK.json", ROOT / "src" / "lident" / "__init__.py",
            ROOT / "tests" / "reference.py", GROUPS)

# Instances per label of each generated split (12 labels).
SPLITS = {"train": 100, "test": 84, "holdout": 10, "sweep_train": 50, "sweep_dev": 4,
          "small_train": 4, "small_dev": 2, "small_test": 4}
WORKLOADS = ("ngram-dsl", "ngram-sweep", "clstm-dsl")
CHILD_TIMEOUT_S = 150
REALISM_MAX_ACCURACY = 0.95
REALISM_TEXTS = 480     # test texts the realism check classifies (rows alternate labels)
CLSTM_CHARSET_CAP = 218


def child_env() -> dict[str, str]:
    """Environment of every process that runs lident: the checkout's source, fixed threads."""
    env = {k: v for k, v in os.environ.items() if k not in ("LIDENT_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


# --- corpora ----------------------------------------------------------------


def ensure_corpus(seed: int) -> Path:
    """Generate the seed's splits once, check their realism, and cache both.

    The cache key holds the generator's and this file's source, so a change
    to either (the generator, SPLITS, the realism check) makes new corpora.
    """
    recipe = hashlib.sha256((HERE / "corpus_gen.py").read_bytes() + Path(__file__).read_bytes())
    data = STATE / "corpus" / f"seed-{seed}-{recipe.hexdigest()[:12]}"
    if (data / "realism.json").is_file():
        return data
    import corpus_gen

    tmp = data.with_name(data.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    for name, rows in corpus_gen.generate(seed, SPLITS).items():
        corpus_gen.write_tsv(rows, tmp / f"{name}.tsv")
        (tmp / f"{name}.txt").write_text("".join(text + "\n" for text, _ in rows), encoding="utf-8")
    (tmp / "realism.json").write_text(json.dumps(realism(tmp)), encoding="utf-8")
    shutil.rmtree(data, ignore_errors=True)
    os.replace(tmp, data)
    return data


def realism(data: Path) -> dict:
    """n = 7 must be well short of perfect, with errors mostly inside a group."""
    sys.path.insert(0, str(ROOT / "src"))
    from lident import build_charset, ngram, read_tsv
    from lident.metrics import confusion, load_groups_tsv, report

    train, test = read_tsv(data / "train.tsv"), list(read_tsv(data / "test.tsv"))[:REALISM_TEXTS]
    model = ngram.train(train, ngram.NgramConfig(7, 0.1), build_charset(train))
    predicted = [model.classify(inst.text).best for inst in test]
    rep = report(confusion([inst.label for inst in test], predicted, labels=model.labels),
                 load_groups_tsv(GROUPS))
    distinct = len(build_charset(read_tsv(data / "small_train.tsv")).chars)
    split = rep.group_split
    return {
        "accuracy_n7": rep.accuracy,
        "within_group_errors": split.within_group_errors,
        "cross_group_errors": split.cross_group_errors,
        "small_train_distinct_chars": distinct,
        "ok": (rep.accuracy <= REALISM_MAX_ACCURACY
               and split.within_group_errors > split.cross_group_errors
               and distinct >= CLSTM_CHARSET_CAP),
    }


# --- checks made in this process ------------------------------------------------


def oracle_failures(data: Path, oracle: dict) -> tuple[int, list[str]]:
    """Compare the model's log-probs with tests/reference.py's exact rationals."""
    sys.path.insert(0, str(ROOT / "tests"))
    from reference import log_of_fraction, ngram_reference_best, ngram_reference_probs

    rows = [line.rsplit("\t", 1) for line in
            (data / oracle["train"]).read_text(encoding="utf-8").splitlines()]
    pairs = [(text, code) for text, code in rows]

    class Charset:  # the oracle needs only `size` and a consistent `lookup`
        index = {ch: i for i, ch in enumerate(sorted({ch for text, _ in pairs for ch in text}))}
        size = len(index) + 1

        @classmethod
        def lookup(cls, ch: str) -> int:
            return cls.index.get(ch, cls.size - 1)

    problems = []
    for item in oracle["log_probs"]:
        exact = ngram_reference_probs(pairs, Charset, oracle["order"], Fraction(1, 10), item["text"])
        got = item["log_probs"]
        close = set(got) == set(exact) and all(
            math.isclose(got[code], log_of_fraction(p), rel_tol=1e-9, abs_tol=1e-9)
            for code, p in exact.items())
        best = max(sorted(got), key=lambda code: got[code]) if got else None
        if not close or best != ngram_reference_best(exact):
            problems.append(f"n-gram log-probs differ from the exact oracle on {item['text'][:30]!r}")
    return len(oracle["log_probs"]), problems


# --- reporting ----------------------------------------------------------------


def environment(seed: int, blas_threads) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workload: str, child: dict, attempted: int, failed: int,
               scaled: bool = True) -> list[tuple[str, str, object, str]]:
    """(name, unit, value or None, note) for every end-to-end figure the benchmark prints.

    Each time comes with the index k of the host-speed sample taken right
    after it; sample k - 1 was taken right before it (before a CLI call or
    probe, or before a block of scoring calls). Unless `scaled` is false,
    the time is scaled to nominal host speed (hostspeed.py) by these two.
    Every figure is a median over the rounds, the CLI calls or the probes,
    or a percentile over every scoring call.
    """
    rounds = child["rounds"]

    def at_nominal(round_: dict, timed: list) -> float:
        seconds, k = timed
        bracket = round_["host_ms"][max(k - 1, 0):k + 1]
        return seconds * hostspeed.factor(child["reference"], bracket) if scaled and bracket else seconds

    train_s = [at_nominal(r, t) for r in rounds for t in r["train_s"]]
    served = [(at_nominal(r, p), at_nominal(r, e)) for r in rounds for p, e in r["served"]]
    calls = [at_nominal(r, c) for r in rounds for c in r["calls_ms"]]
    tail = calls if child["tail_scaled"] else [t for r in rounds for t, _ in r["calls_ms"]]
    setup = [at_nominal(r, t) for r in rounds for t in r["setup_s"]]
    of_rounds = f"median of {len(train_s)} calls over {len(rounds)} rounds"
    of_calls = f"median of {len(served)} calls over {len(rounds)} rounds"

    def median(samples: list[float]) -> float | None:
        return statistics.median(samples) if samples else None

    def quantile(samples: list[float], q: int) -> float | None:
        return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] if len(samples) > 1 else None

    sweep = workload == "ngram-sweep"
    over = f"over `sweep`, 8 orders, {of_rounds}" if sweep else f"over `train`, {of_rounds}"
    return [
        ("setup_s", "s", median(setup), f"median of {len(setup)} fresh interpreters, spread over the rounds"),
        ("train_chars_per_s", "chars/s", median([child["train_chars"] / t for t in train_s]), over),
        ("train_instances_per_s", "inst/s", median([child["train_instances"] / t for t in train_s]), over),
        ("predict_texts_per_s", "texts/s", median([child["predict_texts"] / p for p, _ in served]),
         f"CLI predict --out, {of_calls}"),
        ("predict_ms_p50", "ms", quantile(calls, 50), f"every library call, {len(calls)} calls"),
        ("predict_ms_p99", "ms", quantile(tail, 99),
         f"every library call, {len(tail)} calls{'' if child['tail_scaled'] else ', unscaled'}"),
        ("eval_s", "s", median([e for _, e in served]), f"CLI eval --groups --format json, {of_calls}"),
        ("sweep_s", "s", median(train_s) if sweep else None, f"CLI sweep 1..8, {of_rounds}"),
        ("peak_rss_mb", "MiB", child["peak_rss_mb"], "ru_maxrss of the workload process"),
        ("model_bytes", "bytes", child["model_bytes"], "file written by train"),
        ("ops_attempted", "count", attempted, "CLI and library calls, checks, probes"),
        ("ops_failed", "count", failed, ""),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lident benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a lident checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env()
    data = ensure_corpus(args.seed)
    work = STATE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_file = STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    trace_file.parent.mkdir(parents=True, exist_ok=True)

    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--data", str(data), "--work", str(work), "--groups", str(GROUPS),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(trace_file), "--out", str(work / "result.json")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"perfbench: workload process exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return 1
    child = json.loads((work / "result.json").read_text(encoding="utf-8"))

    attempted, problems = child["attempted"], list(child["problems"])
    failed = child["failed"]
    real = json.loads((data / "realism.json").read_text(encoding="utf-8"))
    attempted += 1
    if not real["ok"]:
        failed += 1
        problems.append(f"generated corpus is not DSL-like: {real}")
    if "oracle" in child:
        checked, wrong = oracle_failures(data, child["oracle"])
        attempted, failed = attempted + checked, failed + len(wrong)
        problems += wrong

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"round_walls_s={child['round_walls_s']}")
    for i, r in enumerate(child["rounds"]):
        host = r["host_ms"]
        print(f"round {i} train_s={[round(t, 4) for t, _ in r['train_s']]} "
              f"served={[[round(p[0], 4), round(e[0], 4)] for p, e in r['served']]} "
              f"calls={len(r['calls_ms'])} host_ms median {statistics.median(host):.3f} "
              f"of {len(host)} ({child['reference']}, nominal {hostspeed.REFERENCES[child['reference']][1]})"
              if host else "")
    print("env " + json.dumps(environment(args.seed, child["blas_threads"])))
    print("realism " + json.dumps(real))
    for problem in problems:
        print(f"FAILED {problem}")

    if args.trace == 0:
        unscaled = end_to_end(args.workload, child, attempted, failed, scaled=False)
        print("unscaled wall times: " + " ".join(
            f"{name}={value:.6g}" for name, _, value, _ in unscaled[:8] if value is not None))
        figures = end_to_end(args.workload, child, attempted, failed)
        for name, unit, value, note in figures:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<24} {shown:>14} {unit:<8} {note}")
        values = {name: value for name, _, value, _ in figures}
        wanted = spec["end_to_end"]
    else:
        values = child["layers"]
        for name, value in values.items():
            print(f"  {name:<44} {value:.6g}")
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None and failed == 0:
            print(f"perfbench: no value for metric {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}  # None only beside a failure
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
