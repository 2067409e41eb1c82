from __future__ import annotations

import dataclasses
import json
import warnings

import pytest

from conftest import GOLDEN, write_tsv_file
from lident import clstm, metrics, ngram
from lident.cli import build_parser, main
from lident.corpus import build_charset, read_lines, read_tsv
from lident.errors import LidentError
from synth import word_corpus


@pytest.fixture(autouse=True)
def fixed_terminal_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.fixture
def toy_tsv(tmp_path):
    return write_tsv_file(
        tmp_path / "train.tsv",
        [
            ("bonjour le monde entier", "fr"),
            ("bonsoir les amis proches", "fr"),
            ("salut tout le monde", "fr"),
            ("hola mundo entero amigos", "es"),
            ("buenos dias queridos amigos", "es"),
            ("adios mundo cruel amigo", "es"),
        ],
    )


@pytest.fixture
def clstm_cfg():
    """The flags of a tiny conv+BiLSTM; a later flag of the same name overrides one of these."""
    return ["--seq-len", "24", "--conv-features", "2", "--kernels", "3,2,2", "--pools", "2,2,2",
            "--lstm-hidden", "2", "--dense-units", "4", "--dropout", "0.2", "--epochs", "2", "--batch-size", "4"]


class TestHelpGolden:
    @pytest.mark.parametrize("name", ["main", "train", "predict", "eval", "sweep", "stats"])
    def test_help_matches_golden(self, name, capsys):
        argv = ["--help"] if name == "main" else [name, "--help"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / f"help_{name}.txt").read_text()

    def test_every_flag_documented(self, capsys):
        parser = build_parser()
        sub_actions = next(a for a in parser._actions if a.dest == "command")
        for name, sub in sub_actions.choices.items():
            assert main([name, "--help"]) == 0
            out = capsys.readouterr().out
            for action in sub._actions:
                for option in action.option_strings:
                    assert option in out, f"{option} missing from {name} --help"


class TestTrainCommand:
    def test_ngram_train_creates_model(self, toy_tsv, tmp_path, capsys):
        out = tmp_path / "m.lidn"
        code = main(["train", "--kind", "ngram", "--n", "2", "--alpha", "0.1",
                     "--train", str(toy_tsv), "--out", str(out)])
        assert code == 0
        assert out.exists()
        summary = capsys.readouterr().out
        assert "2 labels" in summary and "6 instances" in summary

    def test_ngram_train_idempotent_bytes(self, toy_tsv, tmp_path):
        a, b = tmp_path / "a.lidn", tmp_path / "b.lidn"
        base = ["train", "--kind", "ngram", "--n", "3", "--train", str(toy_tsv)]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_order_is_usage_error(self, toy_tsv, tmp_path, capsys):
        code = main(["train", "--kind", "ngram", "--n", "0",
                     "--train", str(toy_tsv), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_train_file(self, tmp_path, capsys):
        code = main(["train", "--kind", "ngram", "--train", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "m")])
        assert code == 1

    def test_kind_flag_groups_are_exclusive(self, toy_tsv, tmp_path, capsys):
        code = main(["train", "--kind", "ngram", "--epochs", "3",
                     "--train", str(toy_tsv), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "not valid with --kind ngram" in capsys.readouterr().err
        code = main(["train", "--kind", "clstm", "--n", "4",
                     "--train", str(toy_tsv), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "not valid with --kind clstm" in capsys.readouterr().err

    def test_seed_not_valid_with_ngram(self, toy_tsv, tmp_path, capsys):
        # --seed used to be accepted and ignored by an n-gram run
        out = tmp_path / "m.lidn"
        assert main(["train", "--kind", "ngram", "--seed", "5", "--train", str(toy_tsv), "--out", str(out)]) == 1
        assert "flags not valid with --kind ngram: seed" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dev_corpus_rejected(self, toy_tsv, clstm_cfg, tmp_path, capsys):
        # used to train, exit 0 and write nan as every epoch's dev accuracy
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out, history = tmp_path / "m.lidc", tmp_path / "history.csv"
        assert main(["train", "--kind", "clstm", *clstm_cfg, "--train", str(toy_tsv),
                     "--dev", str(empty), "--history", str(history), "--out", str(out)]) == 1
        assert "dev corpus is empty" in capsys.readouterr().err
        assert not out.exists() and not history.exists()

    def test_one_label_clstm_corpus_rejected(self, clstm_cfg, tmp_path, capsys):
        # used to read "num_classes must be >= 2, got 1", a field no flag or key sets
        one = write_tsv_file(tmp_path / "one.tsv", [("bonjour le monde", "fr"), ("salut tout le monde", "fr")])
        out = tmp_path / "m.lidc"
        assert main(["train", "--kind", "clstm", *clstm_cfg, "--train", str(one),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: training corpus needs at least 2 labels, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("error, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 56.0 MiB for an array"),
         "error: out of memory: Unable to allocate 56.0 MiB for an array\n"),
    ], ids=["bare", "numpy"])
    def test_out_of_memory_is_an_error_line(self, toy_tsv, tmp_path, capsys, monkeypatch, error, line):
        # used to end in a traceback
        def exhausted(*args):
            raise error

        monkeypatch.setattr(ngram, "train", exhausted)
        out = tmp_path / "m.lidn"
        assert main(["train", "--kind", "ngram", "--train", str(toy_tsv), "--out", str(out)]) == 1
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_no_partial_output_on_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab on this line\n", encoding="utf-8")
        out = tmp_path / "m.lidn"
        assert main(["train", "--kind", "ngram", "--train", str(bad), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_underflowing_alpha_rejected(self, toy_tsv, tmp_path, capsys, command):
        # a miss term alpha / (t + alpha * V) that rounds to 0 used to end in numpy's
        # divide-by-zero warning, then a bare "math domain error"
        argv = {"train": ["train", "--kind", "ngram", "--train", str(toy_tsv), "--out", str(tmp_path / "m.lidn")],
                "sweep": ["sweep", "--train", str(toy_tsv), "--dev", str(toy_tsv), "--n-min", "1", "--n-max", "2"]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv[command], "--alpha", "5e-324"]) == 1
        assert not caught
        assert "alpha = 5e-324" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [toy_tsv]

    @pytest.mark.parametrize("kind, flags", [("ngram", ["--alpha", "0"]), ("clstm", ["--lr", "0"])])
    def test_config_checked_before_corpus_read(self, tmp_path, capsys, kind, flags):
        # a bad config value used to be found only after the corpus was read
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab on this line\n", encoding="utf-8")
        code = main(["train", "--kind", kind, *flags, "--train", str(bad), "--out", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err
        assert flags[0][2:] in err and "tab" not in err

    @pytest.mark.parametrize("cap", ["0", "1"])
    @pytest.mark.parametrize("kind", ["ngram", "clstm"])
    def test_charset_cap_checked_before_corpus_read(self, tmp_path, capsys, kind, cap):
        # a cap below 2 used to be found only after the corpus was read, as its format
        # error; with --kind clstm it read "charset_dim must be >= 2", a rule of its own
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab on this line\n", encoding="utf-8")
        out = tmp_path / "m"
        code = main(["train", "--kind", kind, "--max-charset", cap, "--train", str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "charset cap" in err and f"got {cap}" in err and "tab" not in err
        assert not out.exists()

    def test_clstm_charset_cap(self, toy_tsv, clstm_cfg, tmp_path):
        out = tmp_path / "m.lidc"
        assert main(["train", "--kind", "clstm", *clstm_cfg, "--max-charset", "6",
                     "--epochs", "1", "--train", str(toy_tsv), "--out", str(out)]) == 0
        model = clstm.load_checkpoint(out)
        # the toy corpus has more than five distinct characters, so the cap binds
        assert model.config.charset_dim == model.charset.size == 6

    def test_clstm_dump_keeps_the_cap(self, toy_tsv, clstm_cfg, tmp_path, capsys):
        # the config of a trained model used to read the charset's size as charset_dim
        out = tmp_path / "m.lidc"
        assert main(["train", "--kind", "clstm", *clstm_cfg, "--epochs", "1",
                     "--train", str(toy_tsv), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(out), "--dump"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["charset_dim"] == clstm.ClstmConfig.charset_dim > len(doc["charset"]) + 1
        assert "num_classes" not in doc["config"]

    @pytest.mark.parametrize("kind", ["ngram", "clstm"])
    def test_out_into_missing_directory_rejected_before_training(self, toy_tsv, clstm_cfg, tmp_path,
                                                                 capsys, monkeypatch, kind):
        trained = []
        monkeypatch.setattr(ngram, "train", lambda *args: trained.append(args))
        monkeypatch.setattr(clstm, "train", lambda *args: trained.append(args))
        out = tmp_path / "missing" / "m"
        flags = clstm_cfg if kind == "clstm" else []
        assert main(["train", "--kind", kind, *flags, "--train", str(toy_tsv), "--out", str(out)]) == 1
        assert f"output directory {str(out.parent)!r} does not exist" in capsys.readouterr().err
        assert not trained

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_history_naming_the_out_file_rejected(self, toy_tsv, clstm_cfg, tmp_path, capsys, monkeypatch,
                                                  spelling):
        # the history CSV used to replace the model it was written over, with exit 0
        trained = []
        monkeypatch.setattr(clstm, "train", lambda *args: trained.append(args))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        out = "m.lidc"
        history = {"same": out, "dotted": f"sub/../{out}"}[spelling]
        files = sorted(tmp_path.rglob("*"))
        assert main(["train", "--kind", "clstm", *clstm_cfg, "--train", str(toy_tsv),
                     "--out", out, "--history", history]) == 1
        assert "error: --out and --history name the same file" in capsys.readouterr().err
        assert not trained and sorted(tmp_path.rglob("*")) == files

    def test_clstm_train_deterministic_and_history(self, toy_tsv, clstm_cfg, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        history = tmp_path / "h.csv"
        base = ["train", "--kind", "clstm", "--train", str(toy_tsv), "--dev", str(toy_tsv),
                *clstm_cfg, "--seed", "1"]
        assert main(base + ["--out", str(a), "--history", str(history)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = history.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,dev_accuracy"
        assert len(lines) == 3

    def test_environment_does_not_seed(self, toy_tsv, clstm_cfg, tmp_path, monkeypatch):
        # LIDENT_SEED used to stand in for a missing --seed
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        base = ["train", "--kind", "clstm", "--train", str(toy_tsv), *clstm_cfg]
        monkeypatch.setenv("LIDENT_SEED", "5")
        assert main(base + ["--out", str(a)]) == 0
        monkeypatch.delenv("LIDENT_SEED")
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_kernels_flag_reported(self, toy_tsv, tmp_path, capsys):
        code = main(["train", "--kind", "clstm", "--train", str(toy_tsv),
                     "--kernels", "7,x", "--out", str(tmp_path / "m")])
        assert code == 1
        assert "--kernels" in capsys.readouterr().err

    def test_every_config_field_has_exactly_one_flag(self, toy_tsv, tmp_path, monkeypatch):
        # a field used to be set by its flag or by a line of a --config file, and
        # beta1, beta2 and eps by the file alone
        configs = []

        def capture(corpus, dev, config):
            configs.append(config)
            raise LidentError("captured")

        monkeypatch.setattr(clstm, "train", capture)
        train = next(a for a in build_parser()._actions if a.dest == "command").choices["train"]
        others = {"-h", "--help", "--kind", "--train", "--out", "--dev", "--history", "--n", "--alpha"}
        values = {"--seq-len": "300", "--max-charset": "30", "--conv-features": "5", "--kernels": "4,3,2",
                  "--pools": "2,3,1", "--lstm-hidden": "6", "--dense-units": "7", "--dropout": "0.25",
                  "--lr": "0.5", "--epochs": "3", "--batch-size": "9", "--seed": "4"}
        assert set(train._option_string_actions) - others == set(values)
        default = clstm.ClstmConfig()
        set_by = {}
        for flag, value in values.items():
            assert main(["train", "--kind", "clstm", flag, value, "--train", str(toy_tsv),
                         "--out", str(tmp_path / "m")]) == 1
            (name,) = [f.name for f in dataclasses.fields(default)
                       if getattr(configs[-1], f.name) != getattr(default, f.name)]
            set_by.setdefault(name, []).append(flag)
        assert set_by == {f.name: [flag] for f, flag in zip(dataclasses.fields(default), values)}

    def test_huge_seq_len_rejected_before_training(self, toy_tsv, clstm_cfg, tmp_path,
                                                   capsys, monkeypatch):
        # used to pass validation and then ask numpy for gigabytes per batch
        def no_work(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(clstm, "encode_batch", no_work)
        out = tmp_path / "m.ckpt"
        code = main(["train", "--kind", "clstm", "--train", str(toy_tsv),
                     *clstm_cfg, "--seq-len", "1000000000", "--out", str(out)])
        assert code == 1
        assert "MiB limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**70)])
    def test_seed_out_of_range_rejected(self, toy_tsv, clstm_cfg, tmp_path, capsys, seed):
        # -1 used to stop in numpy's seeding with no field named; 2**70 to train
        # and then end in a struct.error traceback from the checkpoint's i64 seed
        assert main(["train", "--kind", "clstm", "--train", str(toy_tsv), *clstm_cfg, "--seed", seed,
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_divergence_exit_code(self, toy_tsv, clstm_cfg, tmp_path, capsys):
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--kind", "clstm", "--train", str(toy_tsv),
                         *clstm_cfg, "--lr", "1e308",
                         "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()


class TestOutputPaths:
    """Each output flag is checked before any input is read: its directory
    must exist and it must not name a directory."""

    @pytest.fixture
    def work(self, toy_tsv, tmp_path):
        corpus = read_tsv(toy_tsv)
        ngram.train(corpus, ngram.NgramConfig(n=2), build_charset(corpus)).save(tmp_path / "m.lidn")
        (tmp_path / "texts.txt").write_text("bonjour\nhola\n", encoding="utf-8")
        (tmp_path / "taken").mkdir()
        return tmp_path

    @pytest.mark.parametrize("target", ["missing", "directory", "empty"])
    @pytest.mark.parametrize("command", ["train-ngram", "train-clstm", "train-history", "predict", "eval", "sweep"])
    def test_rejected_before_any_work(self, work, clstm_cfg, monkeypatch, capsys, command, target):
        # predict, eval and sweep used to check --out only after all the work; a
        # directory passed every check, and a --history directory left the model
        # behind; an empty path, the current directory, trained before it failed
        monkeypatch.chdir(work)
        calls = []
        for module, name in ((ngram, "train"), (ngram, "load"), (ngram, "sweep"), (clstm, "train")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(real) or real(*a))
        bad = {"missing": work / "missing" / "x", "directory": work / "taken", "empty": ""}[target]
        train, model, ckpt = str(work / "train.tsv"), str(work / "m.lidn"), str(work / "m.lidc")
        argv = {
            "train-ngram": ["train", "--kind", "ngram", "--train", train, "--out", str(bad)],
            "train-clstm": ["train", "--kind", "clstm", *clstm_cfg, "--train", train, "--out", str(bad)],
            "train-history": ["train", "--kind", "clstm", *clstm_cfg, "--train", train, "--out", ckpt,
                              "--history", str(bad)],
            "predict": ["predict", "--model", model, "--input", str(work / "texts.txt"), "--out", str(bad)],
            "eval": ["eval", "--model", model, "--gold", train, "--out", str(bad)],
            "sweep": ["sweep", "--train", train, "--dev", train, "--n-min", "1", "--n-max", "2", "--out", str(bad)],
        }[command]
        files = sorted(work.rglob("*"))
        assert main(argv) == 1
        err = capsys.readouterr().err
        if target == "missing":
            assert f"error: output directory {str(bad.parent)!r} does not exist" in err
        else:
            assert f"error: output {str(bad)!r} is a directory" in err
        assert not calls
        assert sorted(work.rglob("*")) == files


class TestPredictCommand:
    @pytest.fixture
    def model_path(self, toy_tsv, tmp_path):
        out = tmp_path / "m.lidn"
        assert main(["train", "--kind", "ngram", "--n", "2",
                     "--train", str(toy_tsv), "--out", str(out)]) == 0
        return out

    def test_one_label_per_line(self, model_path, tmp_path, capsys):
        inp = tmp_path / "texts.txt"
        inp.write_text("bonjour les amis\nhola amigos\nbonsoir\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--input", str(inp)]) == 0
        assert capsys.readouterr().out == "fr\nes\nfr\n"

    def test_scores_column_count(self, model_path, tmp_path, capsys):
        inp = tmp_path / "texts.txt"
        inp.write_text("bonjour\nhola\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--input", str(inp), "--scores"]) == 0
        for line in capsys.readouterr().out.strip().split("\n"):
            assert len(line.split("\t")) == 1 + 2  # best + one score per label

    def test_empty_input(self, model_path, tmp_path, capsys):
        inp = tmp_path / "empty.txt"
        inp.write_text("", encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--input", str(inp)]) == 0
        assert capsys.readouterr().out == ""

    def test_crlf_input(self, model_path, tmp_path, capsys):
        inp = tmp_path / "texts.txt"
        inp.write_bytes(b"bonjour les amis\r\nhola amigos")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--input", str(inp)]) == 0
        assert capsys.readouterr().out == "fr\nes\n"

    def test_non_utf8_input_named(self, model_path, tmp_path, capsys):
        # used to end in a bare "'utf-8' codec can't decode byte 0xff in position 3"
        inp = tmp_path / "texts.txt"
        inp.write_bytes(b"abc\xff\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--input", str(inp)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{inp}: not valid UTF-8" in captured.err

    def test_dump_is_valid_json(self, model_path, capsys):
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--dump"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(ngram.load(model_path).to_json_dict(), indent=2) + "\n"
        assert doc["kind"] == "ngram"
        assert doc["labels"] == ["es", "fr"]
        # a summary of the table, not its counts
        assert sorted(doc) == ["alpha", "charset", "grams", "histories", "kind", "labels", "n", "table_bytes",
                               "totals", "widths"]

    def test_dump_honours_out(self, model_path, tmp_path, capsys):
        # the dump used to go to stdout whatever --out said, and write no file
        out = tmp_path / "dump.json"
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--dump", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == json.dumps(ngram.load(model_path).to_json_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("flags, named", [
        (["--input", "missing.txt"], "--input"),
        (["--scores"], "--scores"),
        (["--input", "missing.txt", "--scores"], "--input, --scores"),
    ], ids=["input", "scores", "both"])
    def test_dump_rejects_flags_it_ignores(self, model_path, tmp_path, capsys, flags, named):
        # `--dump --input missing.txt --scores` used to exit 0 and ignore both flags
        out = tmp_path / "dump.json"
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--dump", "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: flags not valid with --dump: {named}\n"
        assert not out.exists()

    def test_input_required_without_dump(self, model_path, capsys):
        assert main(["predict", "--model", str(model_path)]) == 1

    def test_unrecognized_model_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"XXXXsome junk")
        assert main(["predict", "--model", str(bogus), "--dump"]) == 1
        assert "not a recognized model" in capsys.readouterr().err

    @pytest.mark.parametrize("blob, named", [
        (b"LI", "too short to be a model file"),
        (ngram.MAGIC + b"\x04\x00\x00\x00", "truncated file (8 bytes)"),
    ], ids=["under-4-bytes", "magic-under-12-bytes"])
    def test_short_model_file_named(self, tmp_path, capsys, blob, named):
        short = tmp_path / "short.lidn"
        short.write_bytes(blob)
        assert main(["predict", "--model", str(short), "--dump"]) == 1
        assert f"{short}: {named}" in capsys.readouterr().err


@pytest.fixture
def word_tsvs(tmp_path):
    """Train and gold corpora of 12 labels in 4 groups, a gold text with
    unseen characters among them, and the groups file."""
    gold = [(inst.text, inst.label.code) for inst in word_corpus(6, 20, seed=12)]
    gold[5] = ("\u2603 " + gold[5][0] + " \u00a7\u00a7", gold[5][1])
    groups = tmp_path / "groups.tsv"
    groups.write_text("".join(f"l{code:02d}\t{code // 3}\n" for code in range(12)), encoding="utf-8")
    train = write_tsv_file(tmp_path / "train.tsv", [(i.text, i.label.code) for i in word_corpus(20, 20, seed=11)])
    return train, write_tsv_file(tmp_path / "gold.tsv", gold), groups


class TestBatchScoringOutput:
    """CLI output from batched scoring equals that of one library call per text."""

    def test_predict_scores_as_one_text_at_a_time(self, word_tsvs, tmp_path, capsys):
        train, gold, _ = word_tsvs
        model_path, inp = tmp_path / "m.lidn", tmp_path / "texts.txt"
        assert main(["train", "--kind", "ngram", "--train", str(train), "--out", str(model_path)]) == 0
        # a blank line, texts of unseen characters only, and texts with some
        texts = [*read_lines(gold)[:9], "", "\u2603\u2603", "\u00a7 bonjour \u2603", ""]
        inp.write_text("".join(text.split("\t")[0] + "\n" for text in texts), encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--input", str(inp), "--scores"]) == 0
        model = ngram.load(model_path)
        expected = []
        for line in read_lines(inp):
            s = model.classify(line)
            expected.append(s.best.code + "\t" + "\t".join(f"{s.per_label[label]:.6f}" for label in model.labels))
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_eval_groups_report_as_one_text_at_a_time(self, word_tsvs, tmp_path, capsys):
        train, gold, groups = word_tsvs
        model_path = tmp_path / "m.lidn"
        assert main(["train", "--kind", "ngram", "--n", "4", "--train", str(train), "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--gold", str(gold), "--groups", str(groups),
                     "--format", "json"]) == 0
        model, corpus = ngram.load(model_path), read_tsv(gold)
        cm = metrics.confusion([inst.label for inst in corpus], [model.classify(inst.text).best for inst in corpus],
                               labels=model.labels).with_groups(metrics.load_groups_tsv(groups))
        out = capsys.readouterr().out
        assert out == metrics.render(cm, "json")
        assert 0 < json.loads(out)["accuracy"] < 1

    def test_sweep_rows_as_one_text_at_a_time(self, word_tsvs, capsys):
        train, gold, _ = word_tsvs
        assert main(["sweep", "--train", str(train), "--dev", str(gold), "--n-min", "1", "--n-max", "5"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        train_corpus, dev_corpus = read_tsv(train), read_tsv(gold)
        charset = build_charset(train_corpus)
        for n, row in enumerate(rows, start=1):
            model = ngram.train(train_corpus, ngram.NgramConfig(n), charset)
            hits = sum(model.classify(inst.text).best == inst.label for inst in dev_corpus)
            assert row.split(",")[:3] == [str(n), f"{hits / len(dev_corpus):.6f}", str(model.table_entries())]


class TestEvalCommand:
    @pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json"), ("csv", "csv")])
    @pytest.mark.parametrize("matrix", ["ngram7", "clstm"])
    def test_from_matrix_with_groups_golden(self, fixtures_dir, capsys, matrix, fmt, ext):
        source = fixtures_dir / f"confusion_{matrix}.csv"
        assert main(["eval", "--from-matrix", str(source), "--groups", str(fixtures_dir / "groups.tsv"),
                     "--format", fmt]) == 0
        # the csv report is the matrix in the layout that --from-matrix reads: the fixture itself
        golden = source if fmt == "csv" else GOLDEN / f"eval_{matrix}_groups.{ext}"
        assert capsys.readouterr().out == golden.read_text()

    def test_csv_report_read_back_by_from_matrix(self, word_tsvs, tmp_path, capsys):
        train, gold, groups = word_tsvs
        model, matrix = tmp_path / "m.lidn", tmp_path / "m.csv"
        assert main(["train", "--kind", "ngram", "--n", "4", "--train", str(train), "--out", str(model)]) == 0
        assert main(["eval", "--model", str(model), "--gold", str(gold), "--format", "csv", "--out", str(matrix)]) == 0
        capsys.readouterr()
        assert main(["eval", "--from-matrix", str(matrix), "--groups", str(groups), "--format", "json"]) == 0
        read_back = capsys.readouterr().out
        assert main(["eval", "--model", str(model), "--gold", str(gold), "--groups", str(groups),
                     "--format", "json"]) == 0
        assert read_back == capsys.readouterr().out
        assert 0 < json.loads(read_back)["accuracy"] < 1

    def test_from_matrix_with_groups(self, fixtures_dir, capsys):
        assert main(["eval", "--from-matrix", str(fixtures_dir / "confusion_ngram7.csv"),
                     "--groups", str(fixtures_dir / "groups.tsv"), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accuracy"] == 10614 / 12000
        assert doc["group_split"]["cross_group_errors"] == 19

    def test_model_against_gold(self, toy_tsv, tmp_path, capsys):
        model = tmp_path / "m.lidn"
        assert main(["train", "--kind", "ngram", "--n", "2",
                     "--train", str(toy_tsv), "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--gold", str(toy_tsv),
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accuracy"] == 1.0
        assert all(row["f1"] == 1.0 for row in doc["per_class"])

    def test_unknown_gold_label_named(self, toy_tsv, tmp_path, capsys):
        model = tmp_path / "m.lidn"
        assert main(["train", "--kind", "ngram", "--n", "2",
                     "--train", str(toy_tsv), "--out", str(model)]) == 0
        gold = write_tsv_file(tmp_path / "gold.tsv", [("hello there", "en")])
        assert main(["eval", "--model", str(model), "--gold", str(gold)]) == 1
        assert "'en'" in capsys.readouterr().err

    def test_non_utf8_groups_file_named(self, fixtures_dir, tmp_path, capsys):
        groups = tmp_path / "groups.tsv"
        groups.write_bytes(b"bs\t1\nhr\xff\t1\n")
        assert main(["eval", "--from-matrix", str(fixtures_dir / "confusion_ngram7.csv"),
                     "--groups", str(groups)]) == 1
        assert f"{groups}: not valid UTF-8" in capsys.readouterr().err

    def test_repeated_labels_named(self, fixtures_dir, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("a,a,b\n5,1,0\n0,4,2\n1,0,6\n", encoding="utf-8")
        assert main(["eval", "--from-matrix", str(matrix)]) == 1
        assert f"{matrix}:1: label 'a'" in capsys.readouterr().err
        groups = tmp_path / "groups.tsv"
        groups.write_text("bs\t1\nbs\t2\n", encoding="utf-8")
        assert main(["eval", "--from-matrix", str(fixtures_dir / "confusion_ngram7.csv"),
                     "--groups", str(groups)]) == 1
        assert f"{groups}:2: label 'bs'" in capsys.readouterr().err

    def test_needs_exactly_one_source(self, fixtures_dir, toy_tsv, tmp_path, capsys):
        assert main(["eval", "--format", "json"]) == 1
        model = tmp_path / "m.lidn"
        assert main(["train", "--kind", "ngram", "--train", str(toy_tsv),
                     "--out", str(model)]) == 0
        assert main(["eval", "--model", str(model),
                     "--from-matrix", str(fixtures_dir / "confusion_ngram7.csv")]) == 1
        capsys.readouterr()
        assert main(["eval", "--model", str(model)]) == 1
        assert "eval --model needs --gold" in capsys.readouterr().err

    def test_gold_with_from_matrix_rejected(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        # --gold used to be ignored, even naming no file
        read = []
        monkeypatch.setattr(metrics, "load_matrix_csv", lambda *args: read.append(args))
        assert main(["eval", "--from-matrix", str(fixtures_dir / "confusion_ngram7.csv"),
                     "--gold", str(tmp_path / "missing.tsv")]) == 1
        assert "error: flags not valid with --from-matrix: --gold" in capsys.readouterr().err
        assert not read

    def test_report_written_atomically(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        assert main(["eval", "--from-matrix", str(fixtures_dir / "confusion_ngram7.csv"),
                     "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["accuracy"] == 10614 / 12000


class TestSweepCommand:
    def test_csv_shape(self, toy_tsv, capsys):
        assert main(["sweep", "--train", str(toy_tsv), "--dev", str(toy_tsv),
                     "--n-min", "1", "--n-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,accuracy,model_table_entries,peak_memory_estimate"
        assert len(lines) == 5

    def test_inverted_range(self, toy_tsv, capsys):
        assert main(["sweep", "--train", str(toy_tsv), "--dev", str(toy_tsv),
                     "--n-min", "3", "--n-max", "2"]) == 1

    def test_order_over_limit_rejected_before_training(self, toy_tsv, tmp_path, capsys, monkeypatch):
        # --n-max used to be accepted whatever its size, and counted at that order
        trained = []
        monkeypatch.setattr(ngram, "train", lambda *args: trained.append(args))
        out = tmp_path / "sweep.csv"
        limit = ngram.NgramConfig.MAX_N
        assert main(["sweep", "--train", str(toy_tsv), "--dev", str(toy_tsv),
                     "--n-min", "1", "--n-max", str(limit + 1), "--out", str(out)]) == 1
        assert f"1..{limit}" in capsys.readouterr().err
        assert not trained and not out.exists()


    def test_empty_dev_corpus_rejected_before_training(self, toy_tsv, tmp_path, capsys, monkeypatch):
        # used to train the n-max model before failing on "evaluation corpus is empty"
        trained = []
        monkeypatch.setattr(ngram, "train", lambda *args: trained.append(args))
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--train", str(toy_tsv), "--dev", str(empty),
                     "--n-min", "1", "--n-max", "3", "--out", str(out)]) == 1
        assert "dev corpus is empty" in capsys.readouterr().err
        assert not trained and not out.exists()

    def test_unseen_dev_label_rejected_before_training(self, toy_tsv, tmp_path, capsys, monkeypatch):
        # used to print accuracy 0.000000 for every order and exit 0
        trained = []
        monkeypatch.setattr(ngram, "train", lambda *args: trained.append(args))
        dev = write_tsv_file(tmp_path / "dev.tsv", [("hello there", "en")])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--train", str(toy_tsv), "--dev", str(dev),
                     "--n-min", "1", "--n-max", "3", "--out", str(out)]) == 1
        assert "error: dev label 'en' is not in the training corpus" in capsys.readouterr().err
        assert not trained and not out.exists()

    def test_charset_cap_checked_before_corpus_read(self, tmp_path, capsys):
        # a cap below 2 used to be found only after the corpora were read, as their format error
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab on this line\n", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--train", str(bad), "--dev", str(bad), "--n-min", "1", "--n-max", "2",
                     "--max-charset", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "charset cap" in err and "got 1" in err and "tab" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--n-min", "3", "--n-max", "2"], "invalid order range 3..2"),
        (["--n-min", "1", "--n-max", "2", "--alpha", "0"], "alpha must be a finite number > 0, got 0.0"),
        (["--n-min", "1", "--n-max", "99"], f"order must be an integer in 1..{ngram.NgramConfig.MAX_N}, got 99"),
    ], ids=["range", "alpha", "order"])
    def test_orders_and_alpha_checked_before_corpus_read(self, tmp_path, capsys, flags, named):
        # each used to be found only after both corpora were read, as their format error
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab on this line\n", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--train", str(bad), "--dev", str(bad), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "tab" not in err
        assert not out.exists()


class TestStatsCommand:
    def test_single_instance_exact(self, tmp_path, capsys):
        tsv = write_tsv_file(tmp_path / "one.tsv", [("a b", "L1")])
        assert main(["stats", "--input", str(tsv), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0] == {"label": "L1", "count": 1, "avg_chars": 3.0, "avg_tokens": 2.0}
        assert rows[-1]["label"] == "TOTAL"

    @pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
    def test_golden(self, fixtures_dir, capsys, fmt, ext):
        # labels unsorted in the file, one with a single instance and one wider than
        # "TOTAL": pins the label order, the TOTAL row and the column widths
        assert main(["stats", "--input", str(fixtures_dir / "stats_corpus.tsv"), "--format", fmt]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"stats_corpus.{ext}").read_text()

    def test_text_table(self, toy_tsv, capsys):
        assert main(["stats", "--input", str(toy_tsv)]) == 0
        out = capsys.readouterr().out
        assert "label" in out and "TOTAL" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["stats", "--input", str(tmp_path / "nope.tsv")]) == 1

    def test_label_named_total_exits_one(self, tmp_path, capsys):
        # used to exit 0 with two TOTAL rows
        tsv = write_tsv_file(tmp_path / "total.tsv", [("a b", "TOTAL"), ("c", "x")])
        assert main(["stats", "--input", str(tsv)]) == 1
        captured = capsys.readouterr()
        assert "label 'TOTAL' clashes with the total row" in captured.err and not captured.out


class TestArgparseBehavior:
    def test_unknown_subcommand_is_exit_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_exit_one(self, capsys):
        assert main(["train"]) == 1

    def test_roundtrip_corpus_unchanged_by_cli(self, toy_tsv):
        # the CLI must not normalize or reorder its inputs
        assert read_tsv(toy_tsv) == read_tsv(toy_tsv)
