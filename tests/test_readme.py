"""README's fenced `python` blocks and the `lident` lines of its `sh` blocks run
as written, on the files they name."""

from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURES, write_tsv_file
from lident import clstm
from lident.cli import main
from lident.corpus import read_tsv
from synth import word_corpus

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
# Each `lident` command of the `sh` blocks, its continuation lines joined.
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("lident ")]
TINY = clstm.ClstmConfig(seq_len=24, conv_features=2, conv_kernels=(3, 2, 2), pools=(2, 2, 2),
                         lstm_hidden=2, dense_units=4, epochs=1, batch_size=4)


def write_corpora(work: Path, per_label: int) -> None:
    """`train.tsv`, `dev.tsv`, `test.tsv`, `texts.txt` and `groups.tsv` of six labels in two groups."""
    corpus = word_corpus(3 * per_label, 8, seed=2, labels=6)
    rows = [(inst.text, inst.label.code) for inst in corpus]
    for name, part in (("train", 0), ("dev", 1), ("test", 2)):
        write_tsv_file(work / f"{name}.tsv", rows[part::3])
    (work / "texts.txt").write_text("".join(text + "\n" for text, _ in rows[2::3]), encoding="utf-8")
    write_tsv_file(work / "groups.tsv", [(label.code, str(i // 3 + 1)) for i, label in enumerate(corpus.labels)])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The corpora and a tiny `model.ckpt`, as the python blocks read them."""
    work = tmp_path_factory.mktemp("readme")
    write_corpora(work, 10)
    clstm.save_checkpoint(clstm.train(read_tsv(work / "train.tsv"), None, TINY)[0], work / "model.ckpt")
    return work


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_python_block_runs(block, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_lident_commands_run(tmp_path, monkeypatch, capsys):
    # Quick start, the conv+BiLSTM example and `eval --from-matrix`, in order, a
    # few texts per label, so that the default-size conv+BiLSTM trains in seconds.
    assert {shlex.split(command)[1] for command in COMMANDS} == {"stats", "train", "predict", "eval", "sweep"}
    write_corpora(tmp_path, 2)
    shutil.copytree(FIXTURES, tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    for command in COMMANDS:
        assert main(shlex.split(command, comments=True)[1:]) == 0, (command, capsys.readouterr().err)
