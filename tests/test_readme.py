"""README's fenced `python` blocks run as written, on the files they name."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from conftest import write_tsv_file
from lident import clstm
from synth import word_corpus

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
TINY = clstm.ClstmConfig(seq_len=24, conv_features=2, conv_kernels=(3, 2, 2), pools=(2, 2, 2),
                         lstm_hidden=2, dense_units=4, epochs=1, batch_size=4)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """`train.tsv`, `groups.tsv` and a tiny `model.ckpt`, as the blocks read them."""
    work = tmp_path_factory.mktemp("readme")
    corpus = word_corpus(10, 8, seed=2, labels=6)
    write_tsv_file(work / "train.tsv", [(inst.text, inst.label.code) for inst in corpus])
    write_tsv_file(work / "groups.tsv", [(label.code, str(i // 3 + 1)) for i, label in enumerate(corpus.labels)])
    clstm.save_checkpoint(clstm.train(corpus, None, TINY)[0], work / "model.ckpt")
    return work


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_python_block_runs(block, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
