"""The n-gram model at scale: wall time and resident peak of train, load, dump and eval.

Draws train (`--per-label` texts per label) and test (300 per label) from
`perfbench/corpus_gen.py` in one `generate` call, so the test rows never
overlap a training split drawn alone with the same seed. That runs in a
child process, and this one imports no numpy: Linux carries a process's
resident peak into each child it starts, so the steps' peaks would be
floored at this one's. Then it runs, each in a fresh child process of this one:

    train   lident train --kind ngram --n 7
    load    ngram.load of the file train wrote
    dump    lident predict --model ... --dump
    eval    lident eval --model ... --gold test.tsv --format json

and prints one JSON object: each step's wall time and its own peak resident
size (the child's `ru_maxrss`, from `os.wait4`), the bytes the dump printed,
the loaded table's bytes, the model file's bytes and the eval accuracy. The corpus seed is fixed at
7, the seed of the README's figures. The children run the package under
`src/` of this checkout.

    python3 tools/scale.py                    # 3,000 texts per label
    python3 tools/scale.py --per-label 18000  # the DSL training set's size

On 2 vCPUs, 3,000 per label takes ~10 s to generate and ~6 s for the
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
_LOAD = "import json, sys; from lident import ngram; print(json.dumps(ngram.load(sys.argv[1]).nbytes()))"


def run(argv: list[str]) -> tuple[dict, str]:
    """Run `argv` in a child process; its wall time and peak, and its stdout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    started = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path}, text=True) as child:
        out = child.stdout.read()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be the peak of every child so far.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    if child.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {child.returncode}")
    return {"wall_s": round(wall, 3), "peak_mib": round(usage.ru_maxrss / 1024, 1)}, out


def scale(per_label: int, work: Path) -> dict:
    subprocess.run([sys.executable, "-c", _GENERATE, str(work), str(per_label)], check=True)
    model = work / "model.lidn"
    lident = [sys.executable, "-m", "lident.cli"]
    train, _ = run([*lident, "train", "--kind", "ngram", "--n", str(ORDER),
                    "--train", str(work / "train.tsv"), "--out", str(model)])
    load, table_bytes = run([sys.executable, "-c", _LOAD, str(model)])
    dump, summary = run([*lident, "predict", "--model", str(model), "--dump"])
    evaluation, report = run([*lident, "eval", "--model", str(model), "--gold", str(work / "test.tsv"),
                              "--format", "json"])
    return {
        "per_label": per_label,
        "n": ORDER,
        "train": train,
        "load": load,
        "dump": {**dump, "bytes": len(summary.encode())},
        "eval": {**evaluation, "accuracy": json.loads(report)["accuracy"]},
        "table_bytes": json.loads(table_bytes),
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
