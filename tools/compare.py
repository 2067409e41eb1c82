"""Paired benchmark runs of two commits: the before/after figures of a change.

    python3 tools/compare.py BASE [HEAD]     # HEAD defaults to the checkout's HEAD
    python3 tools/compare.py REV REV         # the noise floor: one commit against itself

One commit given twice is the noise-floor run: every ratio then measures
only the host's drift and the run order, so a change claims an effect on a
metric only beyond what that run reads for it.

Exports both commits with `git archive` into `base/` and `head/` of one
temporary directory, so that the two trees' paths have the same length (the
benchmark's set-up probes and resident peaks move with the checkout's path).
For each workload of BENCHMARK.json and each seed 1 to 10, it runs the
benchmark's command with `--workload W --seed S --seconds <run_seconds>
--trace 0` once in each tree: one pair. The tree that runs first alternates
from pair to pair, BASE first on odd seeds.

It prints one JSON object. For each workload and end-to-end metric:
`median_ratio`, the median HEAD/BASE ratio over the pairs, and the same
within each run order (`median_ratio_base_first`, `median_ratio_head_first`);
each side's quartiles; `head_wins`, the pairs in which HEAD is better in the
metric's direction (a tie counts for neither side); and, for `peak_rss_mb`,
each side's values in seed order. `runs` records every run's exit status,
`correct` and `failed`. The script exits 1 if any run failed or was not
correct, or if a set-up probe failed. It applies no bound of its own.

After each workload's pairs it times the workload's set-up probe directly:
`perfbench/setup_probe.py` on the files the last run left in each tree, 40
times per tree, alternating which tree runs first, timed as `setup_s` times
one probe but with no host-speed scaling. `setup_probe` holds the same
figures as a metric (`median_ratio` and the rest) beside `setup_s`'s median
ratio, and `env` records `PYTHONDONTWRITEBYTECODE`: without a bytecode
cache every fresh interpreter compiles the package, so added source lines
cost set-up time.

The 60 runs of three workloads took 12 minutes on 2 vCPUs. Progress goes
to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
PROBE_RUNS = 40
# Each workload's set-up probe (perfbench/workload.py): its kind, then its files
# under a tree's .perfbench/ as the last run left them; `{seed}` names the last seed's corpus.
PROBES = {
    "ngram-dsl": ("ngram", "work/ngram-dsl/model.lidn"),
    "ngram-sweep": ("corpus", "corpus/{seed}/sweep_train.tsv", "corpus/{seed}/sweep_dev.tsv"),
    "clstm-dsl": ("clstm", "work/clstm-dsl/model.ckpt"),
}


def quartiles(values: list[float]) -> list[float] | None:
    if not values:
        return None
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def paired(base: list, head: list, base_first: list[bool], better: str) -> dict:
    """The figures of one metric over pairs of runs; a pair without both values is left out."""
    pairs = [(b, h, first) for b, h, first in zip(base, head, base_first) if b is not None and h is not None]

    def median_ratio(rows) -> float | None:
        ratios = [h / b for b, h, _ in rows if b]
        return statistics.median(ratios) if ratios else None

    sign = 1 if better == "higher" else -1
    return {
        "better": better,
        "pairs": len(pairs),
        "median_ratio": median_ratio(pairs),
        "median_ratio_base_first": median_ratio([p for p in pairs if p[2]]),
        "median_ratio_head_first": median_ratio([p for p in pairs if not p[2]]),
        "base_quartiles": quartiles([b for b, _, _ in pairs]),
        "head_quartiles": quartiles([h for _, h, _ in pairs]),
        "head_wins": sum(sign * (h - b) > 0 for b, h, _ in pairs),
    }


def probe_figures(kind: str, base: list, head: list, base_first: list[bool], setup_s: dict) -> dict:
    """The direct set-up probe's figures of one kind, beside run.py's `setup_s` median ratio; a failed
    probe (None) is left out."""

    def median(values: list) -> float | None:
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    return {"kind": kind, **paired(base, head, base_first, "lower"), "base_median_s": median(base),
            "head_median_s": median(head), "setup_s_median_ratio": setup_s["median_ratio"]}


def probe(tree: Path, kind: str, files: list[Path]) -> float | None:
    """Seconds from starting `tree`'s setup_probe.py until it is ready, in the benchmark's child
    environment; None if it failed."""
    env = {k: v for k, v in os.environ.items() if k not in ("LIDENT_SEED", "PYTHONPATH")}
    threads = str(len(os.sched_getaffinity(0)))
    env.update(PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    argv = [sys.executable, str(tree / "perfbench" / "setup_probe.py"), kind, *map(str, files)]
    started = time.monotonic()
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    try:
        return float(done.stdout) - started
    except ValueError:
        return None


def probe_pairs(work: Path, workload: str) -> tuple[str, dict[str, list], list[bool]]:
    """`PROBE_RUNS` alternating probes of `workload` in each tree, BASE first in even runs:
    its kind, each side's seconds, and whether BASE ran first."""
    kind, *paths = PROBES[workload]
    files = {}
    for side in ("base", "head"):
        state = work / side / ".perfbench"
        seed = next((state / "corpus").glob(f"seed-{SEEDS[-1]}-*"), Path("missing")).name
        files[side] = [state / path.format(seed=seed) for path in paths]
    times: dict[str, list] = {"base": [], "head": []}
    base_first = [i % 2 == 0 for i in range(PROBE_RUNS)]
    for first in base_first:
        for side in ("base", "head") if first else ("head", "base"):
            times[side].append(probe(work / side, kind, files[side]))
    return kind, times, base_first


def export(commit: str, dest: Path) -> str:
    """Write `commit`'s tree to `dest`; return the full commit id."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{commit}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run(tree: Path, command: list[str], workload: str, seed: int, seconds) -> tuple[dict, dict]:
    """One benchmark run in `tree`: its metric values and its record."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return values, {"exit": done.returncode, "correct": result.get("correct"), "failed": result.get("failed")}


def compare(work: Path, base: str, head: str) -> dict:
    commits = {"base": export(base, work / "base"), "head": export(head, work / "head")}
    spec = json.loads((work / "head" / "BENCHMARK.json").read_text(encoding="utf-8"))
    out: dict = {**commits, "seeds": list(SEEDS), "seconds": spec["run_seconds"], "workloads": {}, "runs": [],
                 "env": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[dict]] = {"base": [], "head": []}
        for seed in SEEDS:
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                got, record = run(work / side, spec["command"], workload, seed, spec["run_seconds"])
                values[side].append(got)
                out["runs"].append({"workload": workload, "seed": seed, "side": side,
                                    "first": side == order[0], **record})
        base_first = [seed % 2 == 1 for seed in SEEDS]
        figures = out["workloads"][workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            series = {side: [v.get(name) for v in values[side]] for side in values}
            figures[name] = paired(series["base"], series["head"], base_first, metric["better"])
            if name == "peak_rss_mb":
                figures[name].update(base_values=series["base"], head_values=series["head"])
        print(f"{workload}: {PROBE_RUNS} set-up probes per tree", file=sys.stderr, flush=True)
        kind, times, first = probe_pairs(work, workload)
        figures["setup_probe"] = probe_figures(kind, times["base"], times["head"], first, figures["setup_s"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", metavar="BASE", help="the commit before the change")
    parser.add_argument("head", metavar="HEAD", nargs="?", default="HEAD", help="the commit after it (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="lident-compare-") as work:
        result = compare(Path(work), args.base, args.head)
    print(json.dumps(result, indent=1))
    runs_ok = all(r["exit"] == 0 and r["correct"] is True for r in result["runs"])
    probes_ok = all(w["setup_probe"]["pairs"] == PROBE_RUNS for w in result["workloads"].values())
    return 0 if runs_ok and probes_ok else 1


if __name__ == "__main__":
    sys.exit(main())
