"""What "byte-identical" covers across machines, each side trained in a fresh child.

n-gram model files and scores have the same bits on any machine: the n-gram
path calls no BLAS, and `_logs` takes `math.log` wherever `np.log` rounds
otherwise, which it does on a few ratios under numpy's AVX-512 loops.
Conv+BiLSTM files have the same bits for the same inputs, seed, BLAS build
and kernel, at any thread count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# 12 labels of 100 texts: 2,286 distinct ratios, 6 of which np.log rounds an ulp
# away from math.log under AVX-512 on numpy 2.4.
_NGRAM = """
import json, sys
sys.path.insert(0, sys.argv[1])
from synth import word_corpus
from lident import ngram
from lident.corpus import build_charset
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
corpus = word_corpus(100, 40, seed=11)
model = ngram.train(corpus, ngram.NgramConfig(7), build_charset(corpus))
model.save(sys.argv[2])
scores = model.classify_many([inst.text for inst in word_corpus(5, 40, seed=12)])
print(json.dumps({
    "features": {name: bool(__cpu_features__[name]) for name in sys.argv[3:]},
    "logs": [term.hex() for term in model.logs.tolist()],
    "scores": [[s.per_label[label].hex() for label in model.labels] for s in scores],
}))
"""

# Batch 32 of 64 characters through 64 filters: the conv products pass
# OpenBLAS's threshold for running on more than one thread.
_CLSTM = """
import sys
sys.path.insert(0, sys.argv[1])
from synth import word_corpus
from lident import clstm
config = clstm.ClstmConfig(seq_len=64, charset_dim=40, conv_features=64, conv_kernels=(5, 3, 3), pools=(2, 2, 2),
                           lstm_hidden=16, dense_units=64, epochs=2, batch_size=32, seed=3)
model, _ = clstm.train(word_corpus(8, 12, seed=5), None, config)
clstm.save_checkpoint(model, sys.argv[2])
"""


def _child(code: str, args: list[str], **env: str) -> str:
    base = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "tests"), *args], env={**base, **env},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_ngram_bits_do_not_depend_on_simd_dispatch(tmp_path):
    # numpy 2.x groups AVX-512 as X86_V4 and its AVX512_* successors; numpy 1.x
    # names each AVX512* feature. Only those this CPU has are named, so on a CPU
    # without AVX-512 neither child sets the variable, both run the same loops,
    # and they agree.
    names = [name for name in __cpu_dispatch__
             if (name == "X86_V4" or name.startswith("AVX512")) and __cpu_features__.get(name)]
    default = json.loads(_child(_NGRAM, [str(tmp_path / "a.lidn"), *names]))
    narrow = json.loads(_child(_NGRAM, [str(tmp_path / "b.lidn"), *names],
                               **({"NPY_DISABLE_CPU_FEATURES": " ".join(names)} if names else {})))
    assert all(default["features"].values()) and not any(narrow["features"].values())
    # compare every log term, not only the scores: a score can absorb a wrong last bit
    differ = sum(a != b for a, b in zip(default["logs"], narrow["logs"]))
    assert len(default["logs"]) == len(narrow["logs"]) and differ == 0, f"{differ} log terms differ"
    assert default["scores"] == narrow["scores"]
    assert (tmp_path / "a.lidn").read_bytes() == (tmp_path / "b.lidn").read_bytes()


def test_clstm_bits_do_not_depend_on_blas_threads(tmp_path):
    for threads in ("1", "2"):
        _child(_CLSTM, [str(tmp_path / f"{threads}.lidc")], OPENBLAS_NUM_THREADS=threads)
    assert (tmp_path / "1.lidc").read_bytes() == (tmp_path / "2.lidc").read_bytes()
