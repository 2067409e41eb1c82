"""The n-gram model at scale: wall time, resident and traced peaks of train, load, dump, eval and score.

Draws train (`--per-label` texts per label) and test (300 per label) from
`perfbench/corpus_gen.py` in one `generate` call, so the test rows never
overlap a training split drawn alone with the same seed. That runs in a
child process, and this one imports no numpy: Linux carries a process's
resident peak into each child it starts, so the steps' peaks would be
floored at this one's. Then it runs each step twice, each time in a fresh
child process of this one:

    train   lident train --kind ngram --n 7
    load    ngram.load of the file train wrote
    dump    lident predict --model ... --dump
    eval    lident eval --model ... --gold test.tsv --format json
    score   ngram.load, read_tsv of test.tsv, tracemalloc.reset_peak(),
            then classify_many of the test texts

and prints one JSON object: each step's wall time and its own peak resident
size (the first child's `ru_maxrss`, from `os.wait4`) and its traced peak
(`traced_mib`: the tracemalloc peak of the second child, which starts the
tracer before it imports lident), the bytes the dump printed, the loaded
table's bytes and its level `widths` (from the dump), the model file's
bytes and the eval accuracy: the widths name the layout each figure
measured. The traced peak counts what the step's Python code and numpy
allocate; the resident one also counts the interpreter and numpy
themselves, and moves with the heap's placement from run to run. The
load's transient peak sits above what scoring adds, so eval's traced peak
is the load's; score's starts after the load (its wall time and resident
peak do not), and holds the loaded model and the texts with scoring's
working memory. The corpus seed
is fixed at 7, the seed of the README's figures. The children run the
package under `src/` of this checkout.

    python3 tools/scale.py                    # 3,000 texts per label
    python3 tools/scale.py --per-label 18000  # the DSL training set's size

On 2 vCPUs, 3,000 per label takes ~10 s to generate and ~15 s for the
steps; 18,000 per label ~40 s and ~30 s, and train then peaks near 1.8 GB,
so run it under `ulimit -v` on a host without swap.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED = 7
TEST_PER_LABEL = 300
ORDER = 7
_GENERATE = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import corpus_gen
splits = corpus_gen.generate({SEED}, {{"train": int(sys.argv[2]), "test": {TEST_PER_LABEL}}})
for name, rows in splits.items():
    corpus_gen.write_tsv(rows, Path(sys.argv[1]) / f"{{name}}.tsv")
"""
_CLI = "import sys; from lident.cli import main; sys.exit(main(sys.argv[1:]))"
_LOAD = "import json, sys; from lident import ngram; print(json.dumps(ngram.load(sys.argv[1]).nbytes()))"
# Outside tracemalloc, reset_peak does nothing.
_SCORE = ("import sys, tracemalloc; from lident import ngram; from lident.corpus import read_tsv; "
          "model, texts = ngram.load(sys.argv[1]), [inst.text for inst in read_tsv(sys.argv[2])]; "
          "tracemalloc.reset_peak(); model.classify_many(texts)")
# A step's code under tracemalloc, started before the code imports lident; the
# peak, in bytes, is the last line of stderr.
_TRACED = """import sys, tracemalloc
tracemalloc.start()
try:
    {}
finally:
    print(tracemalloc.get_traced_memory()[1], file=sys.stderr)
"""


def run(code: str, args: list[str]) -> tuple[dict, str]:
    """Run `code` with `args` in two fresh child processes: its wall time and
    resident peak, and its stdout, from one; its traced peak from the other."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-c", code, *args]
    started = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True) as child:
        out = child.stdout.read()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be the peak of every child so far.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    if child.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {child.returncode}")
    traced = subprocess.run([sys.executable, "-c", _TRACED.format(code), *args], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=env, text=True)
    if traced.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {traced.returncode} under tracemalloc:\n{traced.stderr}")
    return {"wall_s": round(wall, 3), "peak_mib": round(usage.ru_maxrss / 1024, 1),
            "traced_mib": round(int(traced.stderr.split()[-1]) / 2**20, 1)}, out


def scale(per_label: int, work: Path) -> dict:
    subprocess.run([sys.executable, "-c", _GENERATE, str(work), str(per_label)], check=True)
    model = work / "model.lidn"
    train, _ = run(_CLI, ["train", "--kind", "ngram", "--n", str(ORDER),
                          "--train", str(work / "train.tsv"), "--out", str(model)])
    load, table_bytes = run(_LOAD, [str(model)])
    dump, summary = run(_CLI, ["predict", "--model", str(model), "--dump"])
    evaluation, report = run(_CLI, ["eval", "--model", str(model), "--gold", str(work / "test.tsv"),
                                    "--format", "json"])
    score, _ = run(_SCORE, [str(model), str(work / "test.tsv")])
    return {
        "per_label": per_label,
        "n": ORDER,
        "train": train,
        "load": load,
        "dump": {**dump, "bytes": len(summary.encode())},
        "eval": {**evaluation, "accuracy": json.loads(report)["accuracy"]},
        "score": score,
        "table_bytes": json.loads(table_bytes),
        "widths": json.loads(summary)["widths"],
        "file_bytes": model.stat().st_size,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--per-label", type=int, default=3000, help="training texts per label (default 3000)")
    args = parser.parse_args(argv)
    if args.per_label < 1:
        parser.error("--per-label must be at least 1")
    with tempfile.TemporaryDirectory(prefix="lident-scale-") as work:
        print(json.dumps(scale(args.per_label, Path(work))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
